// Command svcd serves the SVC network manager over HTTP — the paper's
// admission-control component as a standalone daemon.
//
//	svcd -addr :8080                          # builtin paper topology
//	svcd -topo dc.json -eps 0.02              # custom datacenter, stricter SLA
//	svcd -state-dir /var/lib/svcd             # durable: journal + crash recovery
//
// With -state-dir every state-changing operation is committed to a
// write-ahead log before it is applied, and a restart replays the log
// (plus the latest snapshot) into a bit-identical manager: admitted jobs,
// fault state, and idempotency keys all survive a crash or SIGKILL.
//
// API (see internal/httpapi):
//
//	POST   /v1/allocations        {"n":49,"mu":300,"sigma":120} -> placement
//	DELETE /v1/allocations/{id}
//	POST   /v1/dryrun
//	GET    /v1/status
//	GET    /v1/links?limit=10
//	POST   /v1/faults             {"machine":3} / {"link":7,"restore":true}
//	POST   /v1/repairs            {"job":1} or {} for all displaced jobs
//	GET    /v1/failures
//
// Mutating requests may carry an Idempotency-Key header; a repeated key
// replays the original outcome instead of re-executing, which makes
// client retries safe.
//
// Example session:
//
//	curl -s -X POST localhost:8080/v1/allocations -d '{"n":8,"mu":250,"sigma":100}'
//	curl -s localhost:8080/v1/status
//	curl -s -X POST localhost:8080/v1/faults -d '{"machine":3}'
//	curl -s -X POST localhost:8080/v1/repairs -d '{}'
//	curl -s localhost:8080/v1/failures
//	curl -s -X DELETE localhost:8080/v1/allocations/1
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/httpapi"
	"repro/internal/replica"
	"repro/internal/shard"
	"repro/internal/topology"
	"repro/internal/wal"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "svcd:", err)
		os.Exit(1)
	}
}

// config collects everything a daemon needs, parsed from flags in run and
// built directly in tests.
type config struct {
	addr            string
	topoPath        string
	eps             float64
	policy          string
	stateDir        string
	checkpointEvery int
	noSync          bool
	role            string // "primary" (default) or "standby"
	follow          string // primary base URL, required for a standby
	shards          int    // 0: unsharded; N: one pod-local shard per aggregation subtree
	shardMode       string // "strict" (default) or "fast"
}

// daemon is one running svcd instance: manager, optional journal, HTTP
// server. Split from run so tests can start and stop instances in-process.
type daemon struct {
	mgr      *core.Manager
	router   *shard.Router // non-nil with -shards; mgr is nil then
	api      *httpapi.Server
	journal  *wal.Journal // nil without -state-dir
	server   *http.Server
	listener net.Listener
	serveErr chan error
	stopTick chan struct{}

	// Standby role: the follower and its follow loop. roleMu guards the
	// promotion swap of mgr/journal/standby against shutdown.
	roleMu       sync.Mutex
	standby      *replica.Standby
	followCancel context.CancelFunc
	followDone   chan struct{}
	follow       string // the old primary's URL, fenced after promotion
	cfg          config
}

func newDaemon(cfg config) (*daemon, error) {
	topo, err := loadTopology(cfg.topoPath)
	if err != nil {
		return nil, err
	}
	var policyOpt core.ManagerOption
	switch cfg.policy {
	case "minmax":
		policyOpt = core.WithPolicy(core.MinMaxOccupancy)
	case "first-feasible":
		policyOpt = core.WithPolicy(core.FirstFeasible)
	case "greedy-pack":
		policyOpt = core.WithPolicy(core.GreedyPack)
	default:
		return nil, fmt.Errorf("unknown policy %q", cfg.policy)
	}
	mgrOpts := []core.ManagerOption{policyOpt}

	d := &daemon{serveErr: make(chan error, 1), stopTick: make(chan struct{}), cfg: cfg, follow: cfg.follow}
	walOpts := []wal.Option{wal.WithSnapshotEvery(cfg.checkpointEvery)}
	if cfg.noSync {
		walOpts = append(walOpts, wal.WithNoSync())
	}
	switch cfg.role {
	case "", "primary":
		if cfg.follow != "" {
			return nil, errors.New("-follow requires -role standby")
		}
		if cfg.shards > 0 {
			if cfg.stateDir == "" {
				return nil, errors.New("-shards needs -state-dir (each pod keeps its own write-ahead log)")
			}
			mode, merr := shard.ParseMode(cfg.shardMode)
			if merr != nil {
				return nil, merr
			}
			d.router, err = shard.Open(cfg.stateDir, topo, cfg.eps, cfg.shards, shard.Options{
				Mode:          mode,
				MgrOpts:       mgrOpts,
				NoSync:        cfg.noSync,
				SnapshotEvery: cfg.checkpointEvery,
			})
			if err != nil {
				return nil, err
			}
			d.api = httpapi.NewControllerServer(d.router)
			d.wireShards(d.router)
			break
		}
		if cfg.stateDir != "" {
			d.mgr, d.journal, err = wal.Recover(cfg.stateDir, topo, cfg.eps, mgrOpts, walOpts...)
			if err != nil {
				return nil, err
			}
		} else {
			if d.mgr, err = core.NewManager(topo, cfg.eps, mgrOpts...); err != nil {
				return nil, err
			}
		}
		d.api = httpapi.NewServer(d.mgr)
		if d.journal != nil {
			d.wireJournal(d.mgr, d.journal)
		}
	case "standby":
		if cfg.shards > 0 {
			return nil, errors.New("-shards requires -role primary (standbys follow one unsharded WAL)")
		}
		if cfg.stateDir == "" || cfg.follow == "" {
			return nil, errors.New("-role standby needs -state-dir (the mirror) and -follow (the primary URL)")
		}
		s, serr := replica.New(replica.Config{
			Dir:     cfg.stateDir,
			Topo:    topo,
			Eps:     cfg.eps,
			Fetch:   replica.ClientFetcher(httpapi.NewClient(cfg.follow, nil)),
			MgrOpts: mgrOpts,
			WALOpts: walOpts,
			NoSync:  cfg.noSync,
			// Stream resets build a fresh follower manager; re-point
			// read traffic at it (d.api is set before start()).
			OnReset: func(m *core.Manager) { d.api.SetManager(m) },
		})
		if serr != nil {
			return nil, serr
		}
		d.standby = s
		d.mgr = s.Manager()
		d.api = httpapi.NewServer(d.mgr)
		d.api.SetStandby(true)
		d.api.SetPromote(d.promote)
		d.api.SetReplication(func() *httpapi.ReplicationStatus {
			cur := s.Cursor()
			lag := s.Lag()
			return &httpapi.ReplicationStatus{
				Role: "standby", Epoch: s.Epoch(), Gen: cur.Gen,
				AppliedOff: cur.Off, DurableOff: cur.Off + lag.Bytes,
				LagBytes: lag.Bytes, LagRecords: lag.Records, Version: lag.Version,
			}
		})
	default:
		return nil, fmt.Errorf("unknown role %q (want primary or standby)", cfg.role)
	}
	d.server = &http.Server{
		Handler:           d.api.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	if d.listener, err = net.Listen("tcp", cfg.addr); err != nil {
		if d.journal != nil {
			d.journal.Close()
		}
		return nil, err
	}
	return d, nil
}

// wireJournal installs the seams a journaled primary serves: WAL
// status, the replication tail, fencing, and the status report's
// replication section. Called at boot and again at promotion.
func (d *daemon) wireJournal(mgr *core.Manager, j *wal.Journal) {
	d.api.SetWALStatus(func() httpapi.WALStatus { return walStatus(j) })
	d.api.SetWALTail(replica.TailHandler(j))
	d.api.SetFence(j.Fence)
	d.api.SetReplication(func() *httpapi.ReplicationStatus {
		cur := j.DurableCursor()
		return &httpapi.ReplicationStatus{
			Role: "primary", Epoch: j.Epoch(), Gen: cur.Gen,
			DurableOff: cur.Off, Version: mgr.Version(),
		}
	})
}

// wireShards installs the sharded control plane's status seams: the
// per-pod WAL counters merged into one WAL section, and the sharding
// section with the per-pod layout.
func (d *daemon) wireShards(r *shard.Router) {
	d.api.SetWALStatus(func() httpapi.WALStatus {
		js := make([]*wal.Journal, r.Shards())
		for i := range js {
			js[i] = r.PodJournal(i)
		}
		return walStatus(js...)
	})
	d.api.SetSharding(func() *httpapi.ShardingStatus {
		ss := &httpapi.ShardingStatus{
			Mode:         r.Mode().String(),
			Shards:       r.Shards(),
			CrossPodJobs: r.CrossPodJobs(),
		}
		for _, st := range r.ShardStatuses() {
			ss.Pods = append(ss.Pods, httpapi.PodStatus{
				Shard:        st.Shard,
				Root:         st.Root,
				Jobs:         st.Jobs,
				FreeSlots:    st.FreeSlots,
				MaxOccupancy: st.MaxOccupancy,
			})
		}
		return ss
	})
}

// walStatus merges the journals' group-commit counters into the status
// report's WAL section: counts sum, the generation and largest batch
// are maxima, and the mean batch is records per batch over all of them.
func walStatus(js ...*wal.Journal) httpapi.WALStatus {
	var ws httpapi.WALStatus
	for _, j := range js {
		gs := j.GroupCommitStats()
		ws.Gen = max(ws.Gen, j.Gen())
		ws.Appended += j.Appended()
		ws.Batches += gs.Batches
		ws.Records += gs.Records
		ws.MaxBatch = max(ws.MaxBatch, gs.MaxBatch)
	}
	if ws.Batches > 0 {
		ws.MeanBatch = float64(ws.Records) / float64(ws.Batches)
	}
	return ws
}

// start begins serving and, when journaled, compacting the log in the
// background; a standby starts its follow loop instead.
func (d *daemon) start() {
	go func() { d.serveErr <- d.server.Serve(d.listener) }()
	if d.standby != nil {
		d.startFollow(d.standby)
		return
	}
	if d.router != nil {
		go d.shardCheckpointLoop(d.router)
		return
	}
	if d.journal != nil {
		go d.checkpointLoop(d.mgr, d.journal)
	}
}

// shardCheckpointLoop compacts each pod's log independently: a hot pod
// snapshots on its own cadence without stalling its siblings.
func (d *daemon) shardCheckpointLoop(r *shard.Router) {
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		select {
		case <-d.stopTick:
			return
		case <-t.C:
			for i := 0; i < r.Shards(); i++ {
				if r.PodJournal(i).NeedsCheckpoint() {
					if err := r.Pod(i).Checkpoint(); err != nil {
						log.Printf("svcd: checkpoint pod %d: %v", i, err)
					}
				}
			}
		}
	}
}

// startFollow launches (or relaunches) the standby follow loop. Callers
// hold roleMu except during single-threaded startup.
func (d *daemon) startFollow(s *replica.Standby) {
	ctx, cancel := context.WithCancel(context.Background())
	d.followCancel = cancel
	d.followDone = make(chan struct{})
	done := d.followDone
	go func() {
		defer close(done)
		if err := s.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
			log.Printf("svcd: follow loop: %v", err)
		}
	}()
}

// checkpointLoop snapshots the manager whenever the journal has
// accumulated enough records to make compaction worthwhile.
func (d *daemon) checkpointLoop(mgr *core.Manager, j *wal.Journal) {
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		select {
		case <-d.stopTick:
			return
		case <-t.C:
			if j.NeedsCheckpoint() {
				if err := mgr.Checkpoint(); err != nil {
					log.Printf("svcd: checkpoint: %v", err)
				}
			}
		}
	}
}

// promote serves POST /v1/promote on a standby: catch up to the
// primary's durable tail, promote the follower into a journaled
// primary, swap it behind the HTTP surface, and fence the old primary.
func (d *daemon) promote(ctx context.Context) (httpapi.PromoteResponse, error) {
	d.roleMu.Lock()
	defer d.roleMu.Unlock()
	s := d.standby
	if s == nil {
		return httpapi.PromoteResponse{}, errors.New("this node is no longer a standby")
	}
	// Pause the follow loop first: promotion serializes with sync rounds,
	// so a parked long poll would otherwise stall the catch-up below for
	// a full poll horizon.
	if d.followCancel != nil {
		d.followCancel()
		<-d.followDone
		d.followCancel = nil
	}
	// Drain whatever the primary can still serve before the lag check;
	// each round is one fetch, so a dead primary fails fast.
	for i := 0; i < 8; i++ {
		caught, err := s.SyncOnce(ctx, 0)
		if err != nil || caught {
			break
		}
	}
	prom, err := s.Promote(ctx)
	if err != nil {
		d.startFollow(s) // still a standby: keep tracking the primary
		return httpapi.PromoteResponse{}, err
	}
	d.standby = nil
	d.mgr = prom.Mgr
	d.journal = prom.Journal
	d.api.SetManager(prom.Mgr)
	d.wireJournal(prom.Mgr, prom.Journal)
	d.api.SetPromote(nil)
	d.api.SetStandby(false)
	go d.checkpointLoop(prom.Mgr, prom.Journal)
	if d.follow != "" {
		// Best effort: a dead primary can't ack the fence, and doesn't
		// need it — its journal seam vetoes stale commits if it returns.
		go func(url string, epoch uint64) {
			fctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if err := httpapi.NewClient(url, nil).Fence(fctx, epoch); err != nil {
				log.Printf("svcd: fence old primary: %v", err)
			}
		}(d.follow, prom.Epoch)
	}
	log.Printf("svcd: promoted to primary at epoch %d (gen %d)", prom.Epoch, prom.Journal.Gen())
	return httpapi.PromoteResponse{
		Epoch: prom.Epoch, LagRecords: prom.Lag.Records,
		LagBytes: prom.Lag.Bytes, Version: prom.Mgr.Version(),
	}, nil
}

// shutdown drains in-flight requests, then makes the final state durable:
// refuse new mutations, stop the listener, checkpoint, close the journal.
func (d *daemon) shutdown(ctx context.Context) error {
	d.api.SetDraining(true)
	err := d.server.Shutdown(ctx)
	close(d.stopTick)
	if serr := <-d.serveErr; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.roleMu.Lock()
	mgr, journal, standby := d.mgr, d.journal, d.standby
	cancel, done := d.followCancel, d.followDone
	d.roleMu.Unlock()
	if cancel != nil {
		cancel()
		<-done
	}
	if standby != nil {
		if cerr := standby.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if d.router != nil {
		// Seal each pod: snapshot logs that grew since the last rotation,
		// then close the pod journals and the router's intent log.
		for i := 0; i < d.router.Shards(); i++ {
			if d.router.PodJournal(i).Appended() > 0 {
				if cerr := d.router.Pod(i).Checkpoint(); cerr != nil && !errors.Is(cerr, wal.ErrFenced) && err == nil {
					err = cerr
				}
			}
		}
		if cerr := d.router.Close(); cerr != nil && err == nil {
			err = cerr
		}
		return err
	}
	if journal != nil {
		// Skip the final checkpoint when the log has nothing new since
		// the last one (an empty rotation buys no recovery time) or the
		// journal is fenced (a deposed primary must not rotate).
		if journal.Appended() > 0 {
			if cerr := mgr.Checkpoint(); cerr != nil && !errors.Is(cerr, wal.ErrFenced) && err == nil {
				err = cerr
			}
		}
		mgr.SetJournal(nil)
		if cerr := journal.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

func run(args []string) error {
	fs := flag.NewFlagSet("svcd", flag.ContinueOnError)
	var cfg config
	fs.StringVar(&cfg.addr, "addr", "127.0.0.1:8080", "listen address")
	fs.StringVar(&cfg.topoPath, "topo", "", "topology spec JSON (default: builtin paper topology)")
	fs.Float64Var(&cfg.eps, "eps", 0.05, "risk factor for the probabilistic guarantee")
	fs.StringVar(&cfg.policy, "policy", "minmax", "placement policy: minmax|first-feasible|greedy-pack")
	fs.StringVar(&cfg.stateDir, "state-dir", "", "directory for the write-ahead log and snapshots (empty: in-memory only)")
	fs.IntVar(&cfg.checkpointEvery, "checkpoint-every", 4096, "journal records between snapshots")
	fs.BoolVar(&cfg.noSync, "no-sync", false, "skip fsync on journal appends (faster, loses tail on power failure)")
	fs.StringVar(&cfg.role, "role", "primary", "primary serves writes; standby follows a primary's WAL and serves reads until promoted")
	fs.StringVar(&cfg.follow, "follow", "", "primary base URL a standby replicates from (e.g. http://10.0.0.1:8080)")
	fs.IntVar(&cfg.shards, "shards", 0, "shard the control plane into one ledger+WAL per aggregation subtree; must equal the topology's pod count (0: unsharded)")
	fs.StringVar(&cfg.shardMode, "shard-mode", "strict", "sharded admission mode: strict (serialized, bit-identical to unsharded) | fast (pod-parallel, no cross-pod placements)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	d, err := newDaemon(cfg)
	if err != nil {
		return err
	}
	durable := "in-memory"
	if cfg.stateDir != "" {
		durable = "journaled to " + cfg.stateDir
	}
	if cfg.role == "standby" {
		durable = "standby following " + cfg.follow + ", mirroring to " + cfg.stateDir
	}
	if d.router != nil {
		durable = fmt.Sprintf("%d pod shards (%s mode) journaled to %s", d.router.Shards(), d.router.Mode(), cfg.stateDir)
		topo := d.router.Topology()
		log.Printf("svcd: serving %d machines (%d slots, %d jobs recovered) at eps=%v on %s, %s",
			len(topo.Machines()), topo.TotalSlots(), d.router.Running(), cfg.eps, d.listener.Addr(), durable)
	} else {
		log.Printf("svcd: serving %d machines (%d slots, %d jobs recovered) at eps=%v on %s, %s",
			len(d.mgr.Topology().Machines()), d.mgr.Topology().TotalSlots(),
			d.mgr.Running(), cfg.eps, d.listener.Addr(), durable)
	}
	d.start()

	// Serve until interrupted, then drain connections and seal the journal.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-d.serveErr:
		return err
	case sig := <-stop:
		log.Printf("svcd: %v, draining", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return d.shutdown(ctx)
	}
}

func loadTopology(path string) (*topology.Topology, error) {
	if path == "" {
		return topology.NewThreeTier(topology.PaperConfig())
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	spec, err := topology.ReadSpec(f)
	if err != nil {
		return nil, err
	}
	return topology.NewFromSpec(spec)
}
