package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// clockTick is the unit of utime and stime in /proc/<pid>/stat
// (USER_HZ, 100 on every Linux architecture Go supports).
const clockTick = 10 * time.Millisecond

// procSample is one reading of a process's resource counters.
type procSample struct {
	cpu        time.Duration // utime + stime, all threads
	writeBytes int64         // bytes the process caused to be written to storage
	hwmKB      int64         // peak resident set (VmHWM)
}

func readProc(pid int) (procSample, error) {
	var s procSample
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return s, err
	}
	if s.cpu, err = parseStatCPU(string(stat)); err != nil {
		return s, err
	}
	io, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", pid))
	if err != nil {
		return s, err
	}
	if s.writeBytes, err = parseKeyed(string(io), "write_bytes"); err != nil {
		return s, err
	}
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return s, err
	}
	if s.hwmKB, err = parseKeyed(string(status), "VmHWM"); err != nil {
		return s, err
	}
	return s, nil
}

// hostCPU is a reading of the machine-wide CPU time counters.
type hostCPU struct {
	total, steal int64 // clock ticks
}

// readHostCPU reads the aggregate "cpu" line of /proc/stat.
func readHostCPU() (hostCPU, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}, err
	}
	return parseHostCPU(string(b))
}

// parseHostCPU sums the aggregate "cpu" line of /proc/stat and picks out
// steal (field 8): time a virtual CPU was ready but the hypervisor ran
// something else.
func parseHostCPU(stat string) (hostCPU, error) {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}, fmt.Errorf("/proc/stat: unexpected first line %q", line)
	}
	var h hostCPU
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return hostCPU{}, fmt.Errorf("/proc/stat field %d: %w", i+1, err)
		}
		// guest and guest_nice (fields 9 and 10) are already in user.
		if i < 8 {
			h.total += n
		}
		if i == 7 {
			h.steal = n
		}
	}
	return h, nil
}

// stealShare is the share of CPU time stolen between two readings.
func stealShare(a, b hostCPU) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// parseStatCPU returns utime + stime from a /proc/<pid>/stat line. The
// command name (field 2) is parenthesised and may hold spaces or
// parentheses, so fields are counted from the last ')'.
func parseStatCPU(stat string) (time.Duration, error) {
	end := strings.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, fmt.Errorf("stat: no command name in %q", stat)
	}
	// rest[0] is field 3 (state); utime and stime are fields 14 and 15.
	rest := strings.Fields(stat[end+1:])
	if len(rest) < 13 {
		return 0, fmt.Errorf("stat: %d fields after the command name", len(rest))
	}
	utime, err := strconv.ParseInt(rest[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat utime: %w", err)
	}
	stime, err := strconv.ParseInt(rest[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat stime: %w", err)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// parseKeyed returns the integer value of key in a "key: value [unit]"
// file such as /proc/<pid>/io or /proc/<pid>/status.
func parseKeyed(text, key string) (int64, error) {
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok || k != key {
			continue
		}
		f := strings.Fields(v)
		if len(f) == 0 {
			return 0, fmt.Errorf("%s: empty value", key)
		}
		n, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", key, err)
		}
		return n, nil
	}
	return 0, fmt.Errorf("%s: not found", key)
}
