package main

import (
	"container/heap"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/topology"
)

// opKind names the three request types the workloads send.
type opKind uint8

const (
	opQuery   opKind = iota // POST /v1/dryrun
	opAdmit                 // POST /v1/allocations
	opRelease               // DELETE /v1/allocations/{id}
	opOther                 // status and state reads; never timed
)

var opNames = [...]string{"query", "admit", "release", "other"}

func (k opKind) String() string { return opNames[k] }

// ledger is the client's record of acknowledged outcomes, checked
// against the daemon's state. Requests with no response are counted in
// unknown and excluded from the checks.
type ledger struct {
	mu         sync.Mutex
	live       map[int64]int // acknowledged admissions not yet released -> VMs
	released   map[int64]bool
	order      []int64 // admission order, for FIFO releases
	unknown    int
	violations []string
}

func newLedger() *ledger {
	return &ledger{live: map[int64]int{}, released: map[int64]bool{}}
}

func (l *ledger) violate(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.violations) < 20 {
		l.violations = append(l.violations, fmt.Sprintf(format, args...))
	}
}

// admitted records an acknowledged admission after checking that its
// placement holds exactly the requested VMs.
func (l *ledger) admitted(tn *tenant, id int64, vms int, entries []int) {
	sum := 0
	for _, c := range entries {
		sum += c
	}
	if vms != tn.vms || sum != tn.vms {
		l.violate("job %d: requested %d VMs, response says %d, placement holds %d", id, tn.vms, vms, sum)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, dup := l.live[id]; dup || l.released[id] {
		l.violations = append(l.violations, fmt.Sprintf("job ID %d acknowledged twice", id))
	}
	l.live[id] = tn.vms
	l.order = append(l.order, id)
}

func (l *ledger) releasedJob(id int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.live, id)
	l.released[id] = true
}

func (l *ledger) lost() {
	l.mu.Lock()
	l.unknown++
	l.mu.Unlock()
}

// liveIDs returns the live jobs in admission order.
func (l *ledger) liveIDs() []int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]int64, 0, len(l.live))
	for _, id := range l.order {
		if _, ok := l.live[id]; ok {
			out = append(out, id)
		}
	}
	l.order = append(l.order[:0], out...)
	return out
}

// recorder collects the timed samples and counts of one phase.
type recorder struct {
	mu        sync.Mutex
	lat       [3]durations
	due       [3][]time.Time // due time of each latency sample
	lag       durations
	attempted int
	failed    int
	admits    int // timed admission attempts
	accepted  int // timed admissions acknowledged with 201
	timedOps  int // timed ops completed with a response
	timedMuts int // timed mutations acknowledged
}

// account counts one request and, when timed, its latency from due.
func (r *recorder) account(op opKind, timed, failed bool, due, done time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if failed {
		r.failed++
	}
	if !timed {
		return
	}
	if op == opAdmit {
		r.admits++
	}
	if failed {
		return
	}
	r.lat[op] = append(r.lat[op], done.Sub(due))
	r.due[op] = append(r.due[op], due)
	r.timedOps++
}

// sender issues workload operations and keeps the ledger and recorder
// consistent with their outcomes.
type sender struct {
	c    *apiClient
	led  *ledger
	rec  *recorder
	pods *topology.PodSet // counts cross-pod placements when set

	mu              sync.Mutex
	admits, crossed int
}

// crossCounts returns how many admissions were acknowledged so far and
// how many of them span more than one pod.
func (d *sender) crossCounts() (crossed, admits int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.crossed, d.admits
}

// query sends one dry run; it returns when the response arrived.
func (d *sender) query(tn *tenant, due time.Time, timed bool) time.Time {
	st, err := d.c.dryRun(&tn.req)
	done := time.Now()
	d.rec.account(opQuery, timed, err != nil || st != http.StatusOK, due, done)
	return done
}

// admit sends one admission and returns the job ID (0 unless admitted).
func (d *sender) admit(tn *tenant, due time.Time, timed bool) (int64, time.Time) {
	st, resp, err := d.c.admit(&tn.req)
	done := time.Now()
	failed := err != nil || (st != http.StatusCreated && st != http.StatusConflict)
	d.rec.account(opAdmit, timed, failed, due, done)
	if failed {
		// The daemon may or may not hold the job.
		d.led.lost()
		return 0, done
	}
	if st != http.StatusCreated {
		return 0, done
	}
	counts := make([]int, len(resp.Placement))
	for i, e := range resp.Placement {
		counts[i] = e.Count
	}
	d.led.admitted(tn, resp.ID, resp.VMs, counts)
	if d.pods != nil {
		d.mu.Lock()
		d.admits++
		if podsOf(d.pods, resp.Placement) > 1 {
			d.crossed++
		}
		d.mu.Unlock()
	}
	if timed {
		d.rec.mu.Lock()
		d.rec.accepted++
		d.rec.timedMuts++
		d.rec.mu.Unlock()
	}
	return resp.ID, done
}

// release frees one job and reports whether the daemon acknowledged it.
func (d *sender) release(id int64, due time.Time, timed bool) bool {
	st, err := d.c.release(id)
	done := time.Now()
	failed := err != nil || st != http.StatusNoContent
	d.rec.account(opRelease, timed, failed, due, done)
	switch {
	case err != nil:
		d.led.lost()
	case st == http.StatusNoContent:
		d.led.releasedJob(id)
		if timed {
			d.rec.mu.Lock()
			d.rec.timedMuts++
			d.rec.mu.Unlock()
		}
		return true
	case st == http.StatusNotFound:
		d.led.violate("release of acknowledged job %d: 404", id)
	}
	return false
}

// event is one scheduled operation of the open loop.
type event struct {
	due    time.Duration // offset from the loop's start
	tenant *tenant       // arrival: dry run (maybe), then admission
	job    int64         // release
	hold   time.Duration // arrival: release is due at due+hold
}

type eventHeap []*event

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return h[i].due < h[j].due }
func (h eventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)        { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// openLoop drives Poisson arrivals on a fixed schedule over conns
// connections. Every operation is timed from when it was due, so a stall
// shows in the latency of everything queued behind it.
type openLoop struct {
	d         *sender
	conns     int
	timedFrom time.Duration // ops due in [timedFrom, end) are timed
	end       time.Duration // no op due at or after end is sent

	// Called at timedFrom and end, concurrently with the load, to read
	// the daemon's counters; run waits for both before returning.
	atTimedFrom, atEnd func()

	mu      sync.Mutex
	h       eventHeap
	pending int // events dispatched but not finished
	wake    chan struct{}
	start   time.Time
}

// schedule builds the arrival events of [0, end) from tr, plus the
// stationary population at time 0: tenants that arrived in the five mean
// holding times before 0 and are still held. It returns those initial
// tenants with their release offsets.
func (o *openLoop) schedule(tr *traffic) (prefill []*event) {
	t := -5 * tr.meanHold
	for {
		t += tr.gap()
		if t >= o.end {
			break
		}
		tn := tr.next()
		ev := &event{due: t, tenant: &tn, hold: tn.hold}
		if t < 0 {
			if t+tn.hold > 0 {
				prefill = append(prefill, ev)
			}
			continue
		}
		o.h = append(o.h, ev)
	}
	heap.Init(&o.h)
	return prefill
}

// run schedules tr's arrivals and runs them.
func (o *openLoop) run(tr *traffic) {
	o.runEvents(o.schedule(tr))
}

// runEvents admits the prefill population back to back (untimed), then
// dispatches the scheduled events until every one has finished.
func (o *openLoop) runEvents(prefill []*event) {
	o.wake = make(chan struct{}, 1)
	now := time.Now()
	for _, ev := range prefill {
		if id, _ := o.d.admit(ev.tenant, now, false); id != 0 {
			o.addRelease(id, ev.due+ev.hold)
		}
	}
	// The queue holds every event at most once: arrivals plus at most
	// one release per admission.
	queue := make(chan *event, 2*len(o.h)+len(prefill)+1)
	o.start = time.Now()
	var wg sync.WaitGroup
	for i := 0; i < o.conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ev := range queue {
				o.exec(ev)
			}
		}()
	}
	// One goroutine reads the counters at timedFrom and at end, off the
	// dispatch path so a reading never delays an op.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, m := range []struct {
			at time.Duration
			fn func()
		}{{o.timedFrom, o.atTimedFrom}, {o.end, o.atEnd}} {
			time.Sleep(m.at - time.Since(o.start))
			if m.fn != nil {
				m.fn()
			}
		}
	}()
	for {
		o.mu.Lock()
		if len(o.h) == 0 {
			idle := o.pending == 0
			o.mu.Unlock()
			if idle {
				break
			}
			o.sleepUntil(o.end + time.Hour)
			continue
		}
		next := o.h[0]
		now := time.Since(o.start)
		if next.due <= now {
			heap.Pop(&o.h)
			o.pending++
			o.mu.Unlock()
			if next.due >= o.timedFrom {
				o.d.rec.mu.Lock()
				o.d.rec.lag = append(o.d.rec.lag, now-next.due)
				o.d.rec.mu.Unlock()
			}
			queue <- next
			continue
		}
		o.mu.Unlock()
		o.sleepUntil(next.due)
	}
	close(queue)
	wg.Wait()
}

// sleepUntil blocks until offset at, or until a worker adds an event.
func (o *openLoop) sleepUntil(at time.Duration) {
	d := at - time.Since(o.start)
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-o.wake:
	}
}

// addRelease schedules the release of job id at offset due, unless that
// falls after the loop's end: the job then stays live for the next phase.
func (o *openLoop) addRelease(id int64, due time.Duration) {
	if due >= o.end {
		return
	}
	o.mu.Lock()
	heap.Push(&o.h, &event{due: due, job: id})
	o.mu.Unlock()
	select {
	case o.wake <- struct{}{}:
	default:
	}
}

func (o *openLoop) exec(ev *event) {
	defer func() {
		o.mu.Lock()
		o.pending--
		o.mu.Unlock()
		select {
		case o.wake <- struct{}{}:
		default:
		}
	}()
	due := o.start.Add(ev.due)
	timed := ev.due >= o.timedFrom
	if ev.tenant == nil {
		o.d.release(ev.job, due, timed)
		return
	}
	if ev.tenant.dryRun {
		// The tenant submits once its dry run has answered.
		due = o.d.query(ev.tenant, due, timed)
	}
	if id, done := o.d.admit(ev.tenant, due, timed); id != 0 {
		rel := ev.due + ev.hold
		if at := done.Sub(o.start); at > rel {
			rel = at
		}
		o.addRelease(id, rel)
	}
}

// closedLoop runs the workload's op mix back to back on conns
// connections for dur. Each connection holds a fixed number of jobs —
// the live population divided evenly — and releases its oldest job after
// each admission, so occupancy stays at the workload's level. It
// returns the median of the per-second completion rates, so a stall of
// a second or two does not decide the result.
func closedLoop(d *sender, streams []*traffic, dur time.Duration) float64 {
	live := d.led.liveIDs()
	conns := len(streams)
	secs := max(int(dur/time.Second), 1)
	perSec := make([]atomic.Int64, secs)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(time.Duration(secs) * time.Second)
	done := func() {
		if s := int(time.Since(start) / time.Second); s < secs {
			perSec[s].Add(1)
		}
	}
	for i := 0; i < conns; i++ {
		var fifo []int64
		for k := i; k < len(live); k += conns {
			fifo = append(fifo, live[k])
		}
		hold := max(len(fifo), 1)
		tr := streams[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				tn := tr.next()
				if tn.dryRun {
					d.query(&tn, time.Now(), false)
					done()
				}
				if id, _ := d.admit(&tn, time.Now(), false); id != 0 {
					fifo = append(fifo, id)
				}
				done()
				for len(fifo) > hold {
					d.release(fifo[0], time.Now(), false)
					fifo = fifo[1:]
					done()
				}
			}
		}()
	}
	wg.Wait()
	rates := make([]float64, secs)
	for i := range perSec {
		rates[i] = float64(perSec[i].Load())
	}
	return medianFloat(rates)
}

// sequentialOps applies mutations one at a time from tr — admissions
// alternating with releases of the oldest live job — until n have been
// acknowledged. Rejected admissions append nothing to the log, so
// counting acknowledgements fixes the number of records appended.
func sequentialOps(d *sender, tr *traffic, n int) {
	live := d.led.liveIDs()
	admit := true
	for acked, tries := 0, 0; acked < n && tries < 4*n; tries++ {
		if admit || len(live) == 0 {
			tn := tr.next()
			if id, _ := d.admit(&tn, time.Now(), false); id != 0 {
				live = append(live, id)
				acked++
				admit = false
			}
			continue
		}
		if d.release(live[0], time.Now(), false) {
			acked++
		}
		live = live[1:]
		admit = true
	}
}

// resetPopulation releases every live job, then admits tenants from tr
// one at a time until they hold the target share of the slots.
// Sequential admissions into an empty datacenter place and reject by the
// seed alone, so every run of a seed checkpoints the same state.
func resetPopulation(d *sender, tr *traffic, share float64) {
	for _, id := range d.led.liveIDs() {
		d.release(id, time.Now(), false)
	}
	target := int(share * totalSlots)
	for vms, tries := 0, 0; vms < target && tries < target; tries++ {
		tn := tr.next()
		if id, _ := d.admit(&tn, time.Now(), false); id != 0 {
			vms += tn.vms
		}
	}
}

// selfCPU returns the harness's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sortedIDs returns the keys of m in ascending order.
func sortedIDs(m map[int64]int) []int64 {
	out := make([]int64, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
