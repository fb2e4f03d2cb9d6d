package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// startTimeout bounds how long a spawned svcd may take to log its
// address and answer GET /v1/status.
const startTimeout = 60 * time.Second

// addrLine matches the address in svcd's startup log line ("... on
// 127.0.0.1:41234, journaled to ...").
var addrLine = regexp.MustCompile(` on (127\.0\.0\.1:\d+),`)

// daemon is one svcd child process.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed once the process has been reaped
	err  error         // Wait's result, valid after done

	logMu sync.Mutex
	log   []string // last lines of stderr, for diagnostics
}

// spawnDaemon starts svcd on stateDir with -addr 127.0.0.1:0 and waits
// until it answers GET /v1/status with 200. It returns the time from
// spawn to that first 200.
func spawnDaemon(bin, stateDir string, shards int) (*daemon, time.Duration, error) {
	args := []string{"-addr", "127.0.0.1:0", "-state-dir", stateDir}
	if shards > 0 {
		args = append(args, "-shards", strconv.Itoa(shards))
	}
	d := &daemon{cmd: exec.Command(bin, args...), done: make(chan struct{})}
	// The kernel kills the daemon if the harness dies first.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start svcd: %w", err)
	}
	addrCh := make(chan string, 1)
	go d.readLog(stderr, addrCh)

	fail := func(err error) (*daemon, time.Duration, error) {
		d.kill()
		return nil, 0, fmt.Errorf("%w; svcd log: %s", err, d.logTail())
	}
	select {
	case d.addr = <-addrCh:
	case <-d.done:
		return fail(fmt.Errorf("svcd exited before serving: %v", d.err))
	case <-time.After(startTimeout):
		return fail(errors.New("svcd logged no address"))
	}
	probe := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	url := "http://" + d.addr + "/v1/status"
	for {
		resp, err := probe.Get(url)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		if time.Since(start) > startTimeout {
			return fail(fmt.Errorf("svcd not ready: %v", err))
		}
		select {
		case <-d.done:
			return fail(fmt.Errorf("svcd exited before serving: %v", d.err))
		case <-time.After(time.Millisecond):
		}
	}
}

// readLog forwards the address from the startup line, keeps the last
// lines for diagnostics, and reaps the process once stderr closes.
func (d *daemon) readLog(r io.Reader, addrCh chan<- string) {
	sc := bufio.NewScanner(r)
	sent := false
	for sc.Scan() {
		line := sc.Text()
		if !sent {
			if m := addrLine.FindStringSubmatch(line); m != nil {
				addrCh <- m[1]
				sent = true
			}
		}
		d.logMu.Lock()
		d.log = append(d.log, line)
		if len(d.log) > 20 {
			d.log = d.log[1:]
		}
		d.logMu.Unlock()
	}
	// Drain anything left (a line longer than the scanner's buffer) so
	// the child never blocks on a full pipe.
	io.Copy(io.Discard, r)
	d.err = d.cmd.Wait()
	close(d.done)
}

func (d *daemon) logTail() string {
	d.logMu.Lock()
	defer d.logMu.Unlock()
	return strings.Join(d.log, " | ")
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// kill sends SIGKILL and waits until the process has been reaped.
func (d *daemon) kill() {
	d.cmd.Process.Signal(syscall.SIGKILL)
	<-d.done
}

// stop sends SIGTERM — svcd drains, checkpoints and closes its journal —
// and waits for a clean exit, escalating to SIGKILL after timeout.
func (d *daemon) stop(timeout time.Duration) error {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(timeout):
		d.kill()
		return errors.New("svcd did not exit after SIGTERM")
	}
	if d.err != nil {
		return fmt.Errorf("svcd graceful exit: %v; log: %s", d.err, d.logTail())
	}
	return nil
}
