package scenario

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/shard"
)

// ShardBackend drives the sharded control plane in-process: a
// shard.Router over pod-local WALs in StateDir. Its Failover crashes and
// recovers the whole router from disk — replaying every pod WAL and
// resolving the cross-pod intent log — rather than switching to a hot
// standby, so failover scenarios double as recovery soak tests.
type ShardBackend struct {
	router *shard.Router
	dir    string
	opts   shardOpenArgs
}

// shardOpenArgs captures everything needed to reopen the router after a
// simulated crash.
type shardOpenArgs struct {
	cfg    LocalConfig
	shards int
	mode   shard.Mode
}

// shardOptions maps scenario run settings onto shard.Options. Scenarios
// measure the controller, not the disk, so pod WALs open nosync.
func shardOptions(shardMode string) (shard.Options, shard.Mode, error) {
	mode := shard.Strict
	if shardMode != "" {
		var err error
		if mode, err = shard.ParseMode(shardMode); err != nil {
			return shard.Options{}, 0, err
		}
	}
	return shard.Options{Mode: mode, NoSync: true}, mode, nil
}

// NewShardBackend opens a sharded router under dir. The shard settings
// come from the scenario's run block.
func NewShardBackend(dir string, cfg LocalConfig, shards int, shardMode string) (*ShardBackend, error) {
	opts, mode, err := shardOptions(shardMode)
	if err != nil {
		return nil, err
	}
	r, err := shard.Open(dir, cfg.Topo, cfg.Eps, shards, opts)
	if err != nil {
		return nil, err
	}
	return &ShardBackend{
		router: r,
		dir:    dir,
		opts:   shardOpenArgs{cfg: cfg, shards: shards, mode: mode},
	}, nil
}

// Router exposes the backing router (tests assert on its cross-pod
// accounting directly).
func (b *ShardBackend) Router() *shard.Router { return b.router }

func (b *ShardBackend) Name() string { return "shard" }

// Failover restarts the control plane from its own durable state: close
// the router, reopen from the same directory. Jobs, reservations, the
// idempotency table, and in-flight cross-pod intents must all survive —
// the engine's conservation mirror checks exactly that at the next
// sample.
func (b *ShardBackend) Failover() error {
	if err := b.router.Close(); err != nil {
		return fmt.Errorf("scenario: shard failover close: %w", err)
	}
	opts, _, err := shardOptions(b.opts.mode.String())
	if err != nil {
		return err
	}
	r, err := shard.Open(b.dir, b.opts.cfg.Topo, b.opts.cfg.Eps, b.opts.shards, opts)
	if err != nil {
		return fmt.Errorf("scenario: shard failover reopen: %w", err)
	}
	b.router = r
	return nil
}

func (b *ShardBackend) Allocate(req core.Homogeneous) (AdmitResult, error) {
	alloc, err := b.router.AllocateHomog(req)
	if errors.Is(err, core.ErrNoCapacity) {
		return AdmitResult{}, nil
	}
	if err != nil {
		return AdmitResult{}, err
	}
	out := AdmitResult{Admitted: true, ID: int64(alloc.ID)}
	for _, e := range alloc.Placement.Entries {
		out.Placement = append(out.Placement, Entry{Machine: e.Machine, Count: e.Count})
	}
	return out, nil
}

func (b *ShardBackend) Release(id int64) error {
	return b.router.Release(core.JobID(id))
}

func (b *ShardBackend) Apply(ev Event) error {
	var err error
	switch ev.Kind {
	case EvFailMachine:
		_, err = b.router.FailMachine(ev.Node)
	case EvRestoreMachine:
		err = b.router.RestoreMachine(ev.Node)
	case EvFailLink:
		_, err = b.router.FailLink(ev.Node)
	case EvRestoreLink:
		err = b.router.RestoreLink(ev.Node)
	default:
		err = fmt.Errorf("scenario: unknown event kind %v", ev.Kind)
	}
	return err
}

// RepairAll re-places displaced pod-local jobs. Cross-pod jobs are not
// repairable (see shard.ErrCrossPodRepair) and are skipped by the
// router; they keep their reservations until released or killed.
func (b *ShardBackend) RepairAll() ([]Repair, error) {
	results, err := b.router.RepairAll()
	if err != nil {
		return nil, err
	}
	out := make([]Repair, len(results))
	for i, r := range results {
		out[i] = Repair{ID: int64(r.Job), Outcome: r.Outcome.String()}
		for _, e := range r.Placement.Entries {
			out[i].Placement = append(out[i].Placement, Entry{Machine: e.Machine, Count: e.Count})
		}
	}
	return out, nil
}

func (b *ShardBackend) Stats() (Stats, error) {
	return Stats{
		Running:      b.router.Running(),
		FreeSlots:    b.router.FreeSlots(),
		MaxOccupancy: b.router.MaxOccupancy(),
	}, nil
}

func (b *ShardBackend) State() (*core.ManagerState, error) {
	return b.router.ExportState(), nil
}

func (b *ShardBackend) Close() error { return b.router.Close() }
