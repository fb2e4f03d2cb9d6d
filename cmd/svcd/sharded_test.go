package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/httpapi"
)

// shardedTopoPath writes a two-pod topology: each pod is one aggregation
// subtree with two 2-slot machines (4 slots per pod, 8 total).
func shardedTopoPath(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "pods.json")
	spec := `{"children": [
		{"upCapMbps": 400, "children": [{"upCapMbps": 200, "slots": 2}, {"upCapMbps": 200, "slots": 2}]},
		{"upCapMbps": 400, "children": [{"upCapMbps": 200, "slots": 2}, {"upCapMbps": 200, "slots": 2}]}
	]}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatalf("write topo: %v", err)
	}
	return path
}

func startShardedDaemon(t *testing.T, stateDir, topoPath string) *daemon {
	t.Helper()
	d, err := newDaemon(config{
		addr:            "127.0.0.1:0",
		topoPath:        topoPath,
		eps:             0.05,
		policy:          "minmax",
		stateDir:        stateDir,
		checkpointEvery: 4096,
		noSync:          true,
		shards:          2,
		shardMode:       "strict",
	})
	if err != nil {
		t.Fatalf("newDaemon: %v", err)
	}
	d.start()
	return d
}

// TestShardedDaemonFlagValidation rejects the flag combinations the
// sharded control plane cannot serve.
func TestShardedDaemonFlagValidation(t *testing.T) {
	base := config{addr: "127.0.0.1:0", eps: 0.05, policy: "minmax"}

	cfg := base
	cfg.shards = 5
	if _, err := newDaemon(cfg); err == nil {
		t.Error("-shards without -state-dir accepted")
	}
	cfg.stateDir = t.TempDir()
	cfg.shardMode = "psychic"
	if _, err := newDaemon(cfg); err == nil {
		t.Error("unknown shard mode accepted")
	}
	cfg.shardMode = "strict"
	cfg.role = "standby"
	cfg.follow = "http://127.0.0.1:1"
	if _, err := newDaemon(cfg); err == nil {
		t.Error("-shards with -role standby accepted")
	}
	cfg.role = ""
	cfg.follow = ""
	cfg.shards = 3 // builtin paper topology has 5 pods
	if _, err := newDaemon(cfg); err == nil {
		t.Error("shard count not matching the pod count accepted")
	}
}

// TestShardedDaemonServesAndRecovers is the sharded end-to-end check:
// a daemon with -shards admits pod-local and cross-pod jobs over HTTP,
// reports the sharding status section, and recovers every admission —
// including the cross-pod one and its idempotency binding — from the
// per-pod WALs plus the intent log after an abrupt crash.
func TestShardedDaemonServesAndRecovers(t *testing.T) {
	stateDir := t.TempDir()
	topoPath := shardedTopoPath(t)
	ctx := context.Background()

	d1 := startShardedDaemon(t, stateDir, topoPath)
	c1 := testClient(d1)

	// Pod-local job (fits one pod's 4 slots).
	if _, err := c1.Allocate(ctx, httpapi.AllocationRequest{N: 3, Mu: 20}); err != nil {
		t.Fatalf("pod-local allocate: %v", err)
	}
	// Cross-pod job: 5 VMs cannot fit in the 1 + 4 slots any single pod
	// still has, so the placement must span both pods.
	crossReq := httpapi.AllocationRequest{N: 5, Mu: 20}
	cross, err := c1.Allocate(ctx, crossReq, httpapi.WithIdempotencyKey("cross-1"))
	if err != nil {
		t.Fatalf("cross-pod allocate: %v", err)
	}

	before, err := c1.Status(ctx)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if before.RunningJobs != 2 || before.FreeSlots != 0 {
		t.Fatalf("status = %d jobs / %d free, want 2 / 0", before.RunningJobs, before.FreeSlots)
	}
	sh := before.Sharding
	if sh == nil {
		t.Fatal("status has no sharding section")
	}
	if sh.Mode != "strict" || sh.Shards != 2 || sh.CrossPodJobs != 1 || len(sh.Pods) != 2 {
		t.Fatalf("sharding section = %+v", sh)
	}
	if before.WAL == nil || before.WAL.Appended == 0 {
		t.Fatalf("wal section = %+v, want merged pod appends", before.WAL)
	}
	links, err := c1.Links(ctx, 0)
	if err != nil {
		t.Fatalf("links: %v", err)
	}
	if len(links) != 6 {
		t.Fatalf("links = %d, want 6 (2 pod uplinks + 4 machine links)", len(links))
	}

	// Crash without drain or checkpoint; recovery must rebuild from the
	// pod WALs and the router's intent log.
	d1.server.Close()
	close(d1.stopTick)

	d2 := startShardedDaemon(t, stateDir, topoPath)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := d2.shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	c2 := testClient(d2)
	after, err := c2.Status(ctx)
	if err != nil {
		t.Fatalf("status after restart: %v", err)
	}
	if after.RunningJobs != 2 || after.FreeSlots != 0 {
		t.Fatalf("restarted status = %d jobs / %d free, want 2 / 0", after.RunningJobs, after.FreeSlots)
	}
	if after.Sharding == nil || after.Sharding.CrossPodJobs != 1 {
		t.Fatalf("restarted sharding section = %+v", after.Sharding)
	}

	// The keyed cross-pod allocate must replay, not re-reserve.
	replay, err := c2.Allocate(ctx, crossReq, httpapi.WithIdempotencyKey("cross-1"))
	if err != nil {
		t.Fatalf("replayed allocate: %v", err)
	}
	if replay.ID != cross.ID {
		t.Errorf("replay returned job %d, want %d", replay.ID, cross.ID)
	}

	// Releasing the cross-pod job frees both pods' sub-frames.
	if err := c2.Release(ctx, cross.ID); err != nil {
		t.Fatalf("release: %v", err)
	}
	final, err := c2.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if final.RunningJobs != 1 || final.FreeSlots != 5 || final.Sharding.CrossPodJobs != 0 {
		t.Fatalf("post-release status = %d jobs / %d free / %d cross, want 1 / 5 / 0",
			final.RunningJobs, final.FreeSlots, final.Sharding.CrossPodJobs)
	}
}
