package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/httpapi"
	"repro/internal/shard"
	"repro/internal/topology"
	"repro/internal/wal"
)

// svcd's default flags: paper topology, eps 0.05, min-max policy,
// optimistic admission, fsync on, a checkpoint every 4,096 records
// polled by a 1 s ticker; -shards N runs strict mode.
const (
	svcdEps             = 0.05
	svcdCheckpointEvery = 4096
)

// stack is svcd's serving stack built in-process from the same public
// constructors cmd/svcd calls, with timing decorators at its seams.
type stack struct {
	mgr      *core.Manager
	router   *shard.Router
	journal  *wal.Journal
	srv      *http.Server
	addr     string
	served   chan error
	stopTick chan struct{}
	ticked   chan struct{}
}

// openStack recovers (or initialises) the state in dir and serves it on
// a loopback port. It returns the duration of the recovery call itself:
// wal.Recover, or shard.Open for a sharded workload.
func openStack(dir string, w workload, t *tracer) (*stack, time.Duration, error) {
	topo, err := topology.NewThreeTier(topology.PaperConfig())
	if err != nil {
		return nil, 0, err
	}
	mgrOpts := []core.ManagerOption{core.WithPolicy(core.MinMaxOccupancy)}
	s := &stack{served: make(chan error, 1), stopTick: make(chan struct{}), ticked: make(chan struct{})}
	var ctrl httpapi.Controller
	start := time.Now()
	if w.shards > 0 {
		s.router, err = shard.Open(dir, topo, svcdEps, w.shards, shard.Options{
			Mode:          shard.Strict,
			MgrOpts:       mgrOpts,
			SnapshotEvery: svcdCheckpointEvery,
		})
		if err != nil {
			return nil, 0, err
		}
		ctrl = s.router
	} else {
		s.mgr, s.journal, err = wal.Recover(dir, topo, svcdEps, mgrOpts, wal.WithSnapshotEvery(svcdCheckpointEvery))
		if err != nil {
			return nil, 0, err
		}
		ctrl = s.mgr
	}
	recovered := time.Since(start)

	api := httpapi.NewControllerServer(tracedController{Controller: ctrl, t: t})
	if s.router != nil {
		for i := 0; i < s.router.Shards(); i++ {
			s.router.Pod(i).SetJournal(tracedJournal{j: s.router.PodJournal(i), t: t})
		}
		api.SetWALStatus(func() httpapi.WALStatus { return walStatus(s.journals()...) })
		api.SetSharding(s.shardingStatus)
	} else {
		s.mgr.SetJournal(tracedJournal{j: s.journal, t: t})
		api.SetWALStatus(func() httpapi.WALStatus { return walStatus(s.journal) })
	}
	s.srv = &http.Server{
		Handler:           t.handler(api.Handler()),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
		ErrorLog:          log.New(discard{}, "", 0),
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.closeJournals()
		return nil, 0, err
	}
	s.addr = ln.Addr().String()
	go func() { s.served <- s.srv.Serve(ln) }()
	go s.checkpointLoop()
	return s, recovered, nil
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

func (s *stack) journals() []*wal.Journal {
	if s.router == nil {
		return []*wal.Journal{s.journal}
	}
	js := make([]*wal.Journal, s.router.Shards())
	for i := range js {
		js[i] = s.router.PodJournal(i)
	}
	return js
}

// checkpointLoop is svcd's compaction ticker: once a second, checkpoint
// each journal that has accumulated enough records.
func (s *stack) checkpointLoop() {
	defer close(s.ticked)
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		select {
		case <-s.stopTick:
			return
		case <-t.C:
			if err := s.checkpoint(true); err != nil {
				log.Printf("svcdbench: checkpoint: %v", err)
			}
		}
	}
}

// checkpoint snapshots every journal, or only those over the threshold.
func (s *stack) checkpoint(onlyNeeded bool) error {
	if s.router == nil {
		if onlyNeeded && !s.journal.NeedsCheckpoint() || s.journal.Appended() == 0 {
			return nil
		}
		return s.mgr.Checkpoint()
	}
	for i := 0; i < s.router.Shards(); i++ {
		j := s.router.PodJournal(i)
		if onlyNeeded && !j.NeedsCheckpoint() || j.Appended() == 0 {
			continue
		}
		if err := s.router.Pod(i).Checkpoint(); err != nil {
			return fmt.Errorf("pod %d: %w", i, err)
		}
	}
	return nil
}

// stop ends serving. graceful mirrors svcd's SIGTERM path (drain, then
// checkpoint whatever the log gained, then close the journals); otherwise
// the journals are closed as they are, leaving the log tail for the next
// recovery as SIGKILL would.
func (s *stack) stop(graceful bool) error {
	var err error
	if graceful {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = s.srv.Shutdown(ctx)
		cancel()
	} else {
		err = s.srv.Close()
	}
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	close(s.stopTick)
	<-s.ticked
	if graceful {
		if cerr := s.checkpoint(false); cerr != nil && err == nil {
			err = cerr
		}
	}
	if cerr := s.closeJournals(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

func (s *stack) closeJournals() error {
	if s.router != nil {
		return s.router.Close()
	}
	s.mgr.SetJournal(nil)
	return s.journal.Close()
}

// walStatus merges journal counters into the status report's WAL
// section, as svcd does for its journal or pod journals.
func walStatus(js ...*wal.Journal) httpapi.WALStatus {
	var ws httpapi.WALStatus
	for _, j := range js {
		gs := j.GroupCommitStats()
		ws.Appended += j.Appended()
		ws.Batches += gs.Batches
		ws.Records += gs.Records
		ws.MaxBatch = max(ws.MaxBatch, gs.MaxBatch)
		ws.Gen = max(ws.Gen, j.Gen())
	}
	if ws.Batches > 0 {
		ws.MeanBatch = float64(ws.Records) / float64(ws.Batches)
	}
	return ws
}

func (s *stack) shardingStatus() *httpapi.ShardingStatus {
	r := s.router
	ss := &httpapi.ShardingStatus{Mode: r.Mode().String(), Shards: r.Shards(), CrossPodJobs: r.CrossPodJobs()}
	for _, st := range r.ShardStatuses() {
		ss.Pods = append(ss.Pods, httpapi.PodStatus{
			Shard: st.Shard, Root: st.Root, Jobs: st.Jobs,
			FreeSlots: st.FreeSlots, MaxOccupancy: st.MaxOccupancy,
		})
	}
	return ss
}
