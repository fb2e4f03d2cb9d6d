package main

import (
	"bytes"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/httpapi"
	"repro/internal/wal"
)

// layer names a span's seam.
type layer uint8

const (
	lHandler    layer = iota // http.Handler around Server.Handler()
	lCtrl                    // httpapi.Controller around the manager or router
	lStage                   // Journal.StageCommit / StageCommitBatch
	lWait                    // the durability wait StageCommit returns
	lCommit                  // synchronous Journal.Commit
	lCheckpoint              // Journal.Checkpoint
)

// span is one timed call at a seam. Times are offsets from the tracer's
// base; parent is 0 for a root.
type span struct {
	id, parent uint64
	layer      layer
	op         opKind
	req        uint64 // handler spans: the client's request ID
	start, end time.Duration
}

// tracer keeps spans in memory until the run ends. A child finds its
// parent through the goroutine it runs on: the innermost open span of
// that goroutine or, for a goroutine spawned inside a call (the router's
// parallel pod commits), of the goroutine that created it.
type tracer struct {
	base time.Time

	mu     sync.Mutex
	spans  []span
	open   map[int64][]int // goroutine -> indices of its open spans
	client map[uint64]time.Duration
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), open: map[int64][]int{}, client: map[uint64]time.Duration{}}
}

func (t *tracer) now() time.Duration { return time.Since(t.base) }

// begin opens a span on the calling goroutine and returns a function that
// closes it.
func (t *tracer) begin(l layer, op opKind, req uint64) func() {
	g := goid()
	t.mu.Lock()
	var parent uint64
	stack := t.open[g]
	switch {
	case len(stack) > 0:
		parent = t.spans[stack[len(stack)-1]].id
	case l != lHandler:
		t.mu.Unlock()
		pg := creatorGoid()
		t.mu.Lock()
		if ps := t.open[pg]; len(ps) > 0 {
			parent = t.spans[ps[len(ps)-1]].id
		}
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{id: uint64(idx + 1), parent: parent, layer: l, op: op, req: req, start: t.now()})
	t.open[g] = append(t.open[g], idx)
	t.mu.Unlock()
	return func() {
		end := t.now()
		t.mu.Lock()
		t.spans[idx].end = end
		s := t.open[g]
		if len(s) == 1 {
			delete(t.open, g)
		} else {
			t.open[g] = s[:len(s)-1]
		}
		t.mu.Unlock()
	}
}

// clientDone records a request's client-observed duration.
func (t *tracer) clientDone(id uint64, _ opKind, start, end time.Time) {
	t.mu.Lock()
	t.client[id] = end.Sub(start)
	t.mu.Unlock()
}

// goid returns the calling goroutine's ID from the first line of its
// stack trace ("goroutine 18 [running]:").
func goid() int64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	f := bytes.Fields(buf[:n])
	if len(f) < 2 {
		return 0
	}
	id, _ := strconv.ParseInt(string(f[1]), 10, 64)
	return id
}

// creatorGoid returns the ID of the goroutine that created the calling
// one, from the trace's last line ("created by ... in goroutine 7"), or
// 0 when the trace does not say.
func creatorGoid() int64 {
	buf := make([]byte, 16<<10)
	n := runtime.Stack(buf, false)
	i := bytes.LastIndex(buf[:n], []byte("in goroutine "))
	if i < 0 {
		return 0
	}
	rest := buf[i+len("in goroutine ") : n]
	j := 0
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	id, _ := strconv.ParseInt(string(rest[:j]), 10, 64)
	return id
}

// handler wraps the API handler with a span per request.
func (t *tracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		op := opOther
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/allocations":
			op = opAdmit
		case r.Method == http.MethodDelete:
			op = opRelease
		case r.URL.Path == "/v1/dryrun":
			op = opQuery
		}
		end := t.begin(lHandler, op, req)
		defer end()
		next.ServeHTTP(w, r)
	})
}

// tracedController times the admission-control calls the handlers make;
// every other method passes straight through.
type tracedController struct {
	httpapi.Controller
	t *tracer
}

func (c tracedController) AllocateHomog(req core.Homogeneous, opts ...core.CallOption) (*core.Allocation, error) {
	defer c.t.begin(lCtrl, opAdmit, 0)()
	return c.Controller.AllocateHomog(req, opts...)
}

func (c tracedController) AllocateHetero(req core.Heterogeneous, opts ...core.CallOption) (*core.Allocation, error) {
	defer c.t.begin(lCtrl, opAdmit, 0)()
	return c.Controller.AllocateHetero(req, opts...)
}

func (c tracedController) Release(id core.JobID, opts ...core.CallOption) error {
	defer c.t.begin(lCtrl, opRelease, 0)()
	return c.Controller.Release(id, opts...)
}

func (c tracedController) CanAllocateHomog(req core.Homogeneous) bool {
	defer c.t.begin(lCtrl, opQuery, 0)()
	return c.Controller.CanAllocateHomog(req)
}

func (c tracedController) CanAllocateHetero(req core.Heterogeneous) bool {
	defer c.t.begin(lCtrl, opQuery, 0)()
	return c.Controller.CanAllocateHetero(req)
}

// tracedJournal times a *wal.Journal. It implements exactly the journal
// interfaces core type-asserts (Journal, AsyncJournal, BatchJournal), so
// the manager takes the same commit path as with the bare journal.
type tracedJournal struct {
	j *wal.Journal
	t *tracer
}

var _ core.BatchJournal = tracedJournal{}

func (tj tracedJournal) Commit(mut core.Mutation) error {
	defer tj.t.begin(lCommit, opOther, 0)()
	return tj.j.Commit(mut)
}

func (tj tracedJournal) Checkpoint(st *core.ManagerState) error {
	defer tj.t.begin(lCheckpoint, opOther, 0)()
	return tj.j.Checkpoint(st)
}

func (tj tracedJournal) StageCommit(mut core.Mutation) (func() error, error) {
	end := tj.t.begin(lStage, opOther, 0)
	wait, err := tj.j.StageCommit(mut)
	end()
	return tj.timedWait(wait), err
}

func (tj tracedJournal) StageCommitBatch(muts []core.Mutation) (func() error, error) {
	end := tj.t.begin(lStage, opOther, 0)
	wait, err := tj.j.StageCommitBatch(muts)
	end()
	return tj.timedWait(wait), err
}

func (tj tracedJournal) timedWait(wait func() error) func() error {
	if wait == nil {
		return nil
	}
	return func() error {
		defer tj.t.begin(lWait, opOther, 0)()
		return wait()
	}
}

// spanStats is the analysis of a finished trace.
type spanStats struct {
	self        map[uint64]time.Duration // span ID -> own time
	escapes     int                      // children outside their parent's interval
	byLayerOp   map[[2]uint8]durations   // span durations by layer and op, in the window
	selfByOp    map[[2]uint8]durations   // self times by layer and op, in the window
	netOverhead durations                // client-observed minus handler, in the window
	checkpoints durations                // every checkpoint of the run
}

// analyze computes self times — a span's duration minus the part of its
// interval its children cover — and gathers the window's samples.
func (t *tracer) analyze(from, to time.Time) *spanStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	lo, hi := from.Sub(t.base), to.Sub(t.base)
	st := &spanStats{
		self:      make(map[uint64]time.Duration, len(t.spans)),
		byLayerOp: map[[2]uint8]durations{},
		selfByOp:  map[[2]uint8]durations{},
	}
	children := map[uint64][]int{}
	for i, s := range t.spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	for _, s := range t.spans {
		if s.end == 0 {
			continue // still open when the trace was read
		}
		var iv [][2]time.Duration
		for _, ci := range children[s.id] {
			c := t.spans[ci]
			if c.start < s.start || c.end > s.end {
				st.escapes++
			}
			iv = append(iv, [2]time.Duration{max(c.start, s.start), min(c.end, s.end)})
		}
		self := s.end - s.start - covered(iv)
		st.self[s.id] = self
		if s.layer == lCheckpoint {
			st.checkpoints = append(st.checkpoints, s.end-s.start)
		}
		if s.start < lo || s.start >= hi {
			continue
		}
		k := [2]uint8{uint8(s.layer), uint8(s.op)}
		st.byLayerOp[k] = append(st.byLayerOp[k], s.end-s.start)
		st.selfByOp[k] = append(st.selfByOp[k], self)
		if s.layer == lHandler && s.req != 0 {
			if c, ok := t.client[s.req]; ok {
				st.netOverhead = append(st.netOverhead, c-(s.end-s.start))
			}
		}
	}
	return st
}

// covered returns the length of the union of intervals.
func covered(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	open := false
	for _, v := range iv {
		if v[1] <= v[0] {
			continue
		}
		if !open || v[0] > curHi {
			if open {
				total += curHi - curLo
			}
			curLo, curHi, open = v[0], v[1], true
			continue
		}
		curHi = max(curHi, v[1])
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// layerOps returns the window's spans of layer l, any op in ops.
func (st *spanStats) layerOps(m map[[2]uint8]durations, l layer, ops ...opKind) durations {
	var out durations
	for _, op := range ops {
		out = append(out, m[[2]uint8{uint8(l), uint8(op)}]...)
	}
	return out
}
