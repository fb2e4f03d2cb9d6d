package scenario

import (
	"reflect"
	"testing"
)

// TestDifferentialSimVsLive runs the same compiled plan against the
// offline manager and against a live in-process svcd (HTTP API over a
// nosync WAL) and requires the two runs to agree exactly: same admission
// outcomes, same report, same final exported ledger. The engine issues an
// identical call sequence to both backends, so any divergence is a bug in
// the wire layer, the WAL, or the admission pipeline.
func TestDifferentialSimVsLive(t *testing.T) {
	if testing.Short() {
		t.Skip("live daemon round-trips in -short mode")
	}
	s := decodeTestDoc(t)

	plan1, err := s.Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	sim, err := NewSimBackend(plan1.Topo, s.Eps)
	if err != nil {
		t.Fatalf("NewSimBackend: %v", err)
	}
	defer sim.Close()
	simRep, err := Run(plan1, sim)
	if err != nil {
		t.Fatalf("sim run: %v", err)
	}

	plan2, err := s.Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	srv, err := StartLocal(LocalConfig{
		Topo:     plan2.Topo,
		Eps:      s.Eps,
		StateDir: t.TempDir(),
	})
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	live := NewLiveBackend(srv.URL)
	liveRep, err := Run(plan2, live)
	if err != nil {
		t.Fatalf("live run: %v", err)
	}

	// The reports must agree on everything but the backend label.
	liveRep.Backend = simRep.Backend
	if !reflect.DeepEqual(simRep, liveRep) {
		sj, _ := simRep.JSON()
		lj, _ := liveRep.JSON()
		t.Fatalf("reports diverge:\nsim:\n%s\nlive:\n%s", sj, lj)
	}

	// And the final ledgers must be identical, byte for byte: the live
	// state crossed the wire as JSON and survived a WAL.
	simState := sim.Manager().ExportState()
	liveState, err := live.State()
	if err != nil {
		t.Fatalf("live state: %v", err)
	}
	if !reflect.DeepEqual(simState, liveState) {
		t.Fatalf("ledgers diverge:\nsim:  %+v\nlive: %+v", simState, liveState)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close local server: %v", err)
	}
}

// TestDifferentialSimVsSharded runs the same compiled plan against the
// unsharded offline manager and against the pod-sharded router, twice:
// once in-process and once behind the HTTP API. Strict mode promises
// sharding is an implementation detail — identical admission outcomes,
// identical reports, and a bit-identical final exported ledger. Chaos
// runs in kill mode because cross-pod jobs are not repairable (the
// sharded RepairAll skips them, which would legitimately diverge).
func TestDifferentialSimVsSharded(t *testing.T) {
	s := decodeTestDoc(t)
	s.Chaos.Repair = false
	s.Run.Shards = 2
	s.Run.ShardMode = "strict"
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}

	plan1, err := s.Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	sim, err := NewSimBackend(plan1.Topo, s.Eps)
	if err != nil {
		t.Fatalf("NewSimBackend: %v", err)
	}
	defer sim.Close()
	simRep, err := Run(plan1, sim)
	if err != nil {
		t.Fatalf("sim run: %v", err)
	}
	simState := sim.Manager().ExportState()

	plan2, err := s.Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	cfg := LocalConfig{Topo: plan2.Topo, Eps: s.Eps}
	sb, err := NewShardBackend(t.TempDir(), cfg, s.Run.Shards, s.Run.ShardMode)
	if err != nil {
		t.Fatalf("NewShardBackend: %v", err)
	}
	defer sb.Close()
	shardRep, err := Run(plan2, sb)
	if err != nil {
		t.Fatalf("shard run: %v", err)
	}
	shardRep.Backend = simRep.Backend
	if !reflect.DeepEqual(simRep, shardRep) {
		sj, _ := simRep.JSON()
		hj, _ := shardRep.JSON()
		t.Fatalf("reports diverge:\nsim:\n%s\nshard:\n%s", sj, hj)
	}
	shardState, err := sb.State()
	if err != nil {
		t.Fatalf("shard state: %v", err)
	}
	if !reflect.DeepEqual(simState, shardState) {
		t.Fatalf("ledgers diverge:\nsim:   %+v\nshard: %+v", simState, shardState)
	}

	if testing.Short() {
		return // live daemon round-trips in -short mode
	}
	plan3, err := s.Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	srv, err := StartLocal(LocalConfig{
		Topo: plan3.Topo, Eps: s.Eps,
		StateDir: t.TempDir(), Shards: s.Run.Shards, ShardMode: s.Run.ShardMode,
	})
	if err != nil {
		t.Fatalf("StartLocal sharded: %v", err)
	}
	live := NewLiveBackend(srv.URL)
	liveRep, err := Run(plan3, live)
	if err != nil {
		t.Fatalf("live sharded run: %v", err)
	}
	liveRep.Backend = simRep.Backend
	if !reflect.DeepEqual(simRep, liveRep) {
		sj, _ := simRep.JSON()
		lj, _ := liveRep.JSON()
		t.Fatalf("reports diverge:\nsim:\n%s\nlive-shard:\n%s", sj, lj)
	}
	liveState, err := live.State()
	if err != nil {
		t.Fatalf("live state: %v", err)
	}
	if !reflect.DeepEqual(simState, liveState) {
		t.Fatalf("ledgers diverge:\nsim:        %+v\nlive-shard: %+v", simState, liveState)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close local server: %v", err)
	}
}
