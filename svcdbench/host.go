package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// hostRecord describes the machine a run measured, so results from
// different hosts are never compared by accident.
type hostRecord struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go"`
	Kernel     string  `json:"kernel"`
	StateFS    string  `json:"state_fs"`
	FsyncP50us float64 `json:"fsync_p50_us"`
	FsyncP95us float64 `json:"fsync_p95_us"`
}

// fsMagic names the filesystems a state directory is likely to sit on.
var fsMagic = map[int64]string{
	0xEF53:     "ext4",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x01021994: "tmpfs",
	0x794C7630: "overlayfs",
	0x2FC12FC1: "zfs",
	0x6969:     "nfs",
}

// probeHost records the host and measures the fsync latency of a 4 KiB
// append in dir, the filesystem the state directories live on.
func probeHost(dir string) (hostRecord, error) {
	h := hostRecord{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	var sfs syscall.Statfs_t
	if err := syscall.Statfs(dir, &sfs); err != nil {
		return h, fmt.Errorf("statfs %s: %w", dir, err)
	}
	h.StateFS = fsMagic[int64(sfs.Type)]
	if h.StateFS == "" {
		h.StateFS = fmt.Sprintf("0x%x", sfs.Type)
	}
	lat, err := fsyncLatencies(filepath.Join(dir, "fsync-probe"))
	if err != nil {
		return h, err
	}
	h.FsyncP50us, h.FsyncP95us = us(lat.quantile(0.5)), us(lat.quantile(0.95))
	return h, nil
}

// fsyncLatencies times 200 fsyncs, each after a 4 KiB append — the
// write pattern of a WAL group commit — and returns them sorted.
func fsyncLatencies(path string) (durations, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	defer os.Remove(path)
	defer f.Close()
	buf := make([]byte, 4096)
	var lat durations
	for i := 0; i < 200; i++ {
		if _, err := f.Write(buf); err != nil {
			return nil, err
		}
		start := time.Now()
		if err := f.Sync(); err != nil {
			return nil, err
		}
		lat = append(lat, time.Since(start))
	}
	return lat.sorted(), nil
}
