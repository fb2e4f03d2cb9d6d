package main

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/httpapi"
	"repro/internal/topology"
)

const (
	// warmup is the untimed open-loop lead-in after the stationary
	// population is admitted.
	warmup = 2 * time.Second
	// setupRuns and recoveries are how many times a run measures set-up
	// and crash recovery; it reports the medians.
	setupRuns  = 15
	recoveries = 15
	// tailOps is the fixed number of acknowledged mutations applied
	// after a checkpoint and before each SIGKILL, so every recovery
	// replays the same snapshot-plus-tail shape.
	tailOps = 1024
	// latencyWindow is the window the median latencies are taken over
	// before their median across the run is reported.
	latencyWindow = 2 * time.Second
	// behindLag marks a generator that fell behind its schedule: its
	// p99 dispatch delay exceeds this.
	behindLag = 10 * time.Millisecond
)

// Traffic streams drawn from one seed.
const (
	streamOpen = 0
	streamTail = 1
	// streamReset draws the population checkpointed before recovery.
	streamReset = 2
	streamPeak  = 100 // + connection index
)

// recoverySeed seeds the recovery phase's population and tail instead of
// the run's seed, so every run replays the same snapshot-plus-tail
// shape: drawn from each run's seed, the job-size mix alone moved
// recovery time by a quarter between seeds.
const recoverySeed = 0

// runConfig fixes one run.
type runConfig struct {
	w       workload
	seed    int64
	openDur time.Duration // timed open-loop window
	peakDur time.Duration // closed-loop peak phase
	svcd    string        // svcd binary
	dir     string        // the run's working directory
	conns   int
	pods    *topology.PodSet
}

// report is an ordered set of metrics with notes for the log.
type report struct {
	names []string
	vals  map[string]metricValue
	notes map[string]string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newReport() *report {
	return &report{vals: map[string]metricValue{}, notes: map[string]string{}}
}

func (r *report) add(name string, v float64, unit, note string) {
	if _, dup := r.vals[name]; !dup {
		r.names = append(r.names, name)
	}
	r.vals[name] = metricValue{Value: v, Unit: unit}
	r.notes[name] = note
}

// latency adds the median and the 99th percentile of a sample under
// the given names.
func (r *report) latency(p50, p99 string, d durations, unit string, scale func(time.Duration) float64) {
	s := d.sorted()
	r.add(p50, scale(s.quantile(0.5)), unit, fmt.Sprintf("n=%d", len(s)))
	v, _, note := s.tail(99)
	r.add(p99, scale(v), unit, note)
}

// openResult is what one open-loop phase measured.
type openResult struct {
	rec                   *recorder
	from, to              time.Time // the timed window, as the counters were read
	windowStart           time.Time // when the first timed op was due
	before, after         statusDoc
	procBefore, procAfter procSample
	genCPU                time.Duration
	hostBefore, hostAfter hostCPU // machine-wide CPU counters
	intentBytes           int64
	crossPod, admitted    int
}

// runOpen runs the open loop against the daemon behind drv. pid, when
// nonzero, is the daemon process whose /proc counters bracket the timed
// window.
func runOpen(rc runConfig, drv *sender, ctl *apiClient, pid int, stateDir string) (*openResult, error) {
	tr, err := newTraffic(rc.w, rc.seed, streamOpen)
	if err != nil {
		return nil, err
	}
	o := &openLoop{d: drv, conns: rc.conns, timedFrom: warmup, end: warmup + rc.openDur}
	res := &openResult{rec: drv.rec}
	intents := filepath.Join(stateDir, "intents.log")
	var (
		cpu0, cpu1         time.Duration
		int0, int1         int64
		errFrom, errTo     error
		statFrom, statTo   error
		procFrom, procTo   error
		crossFrom, admFrom int
	)
	o.atTimedFrom = func() {
		res.from, cpu0, int0 = time.Now(), selfCPU(), fileSize(intents)
		res.hostBefore, _ = readHostCPU()
		crossFrom, admFrom = drv.crossCounts()
		if pid > 0 {
			res.procBefore, procFrom = readProc(pid)
		}
		res.before, statFrom = ctl.status()
		errFrom = errors.Join(procFrom, statFrom)
	}
	o.atEnd = func() {
		res.to, cpu1, int1 = time.Now(), selfCPU(), fileSize(intents)
		res.hostAfter, _ = readHostCPU()
		cross, adm := drv.crossCounts()
		res.crossPod, res.admitted = cross-crossFrom, adm-admFrom
		if pid > 0 {
			res.procAfter, procTo = readProc(pid)
		}
		res.after, statTo = ctl.status()
		errTo = errors.Join(procTo, statTo)
	}
	o.run(tr)
	res.windowStart = o.start.Add(o.timedFrom)
	if err := errors.Join(errFrom, errTo); err != nil {
		return nil, fmt.Errorf("read counters: %w", err)
	}
	res.genCPU = cpu1 - cpu0
	res.intentBytes = int1 - int0
	return res, nil
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// walBytes sums the sizes of the write-ahead logs under dir (one per pod
// when sharded).
func walBytes(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasPrefix(d.Name(), "wal-") && strings.HasSuffix(d.Name(), ".log") {
			total += fileSize(path)
		}
		return nil
	})
	return total
}

// binaryResult is what a run against the real svcd binary measured.
type binaryResult struct {
	open      *openResult
	led       *ledger
	setup     []float64 // seconds
	recover   []float64 // seconds
	peakOps   float64
	hwmKB     int64
	tailBytes float64 // WAL bytes per record over the recovery tail
}

// runBinary measures the real svcd binary. With full false it runs the
// set-up and open-loop phases only (the untraced reference of a traced
// run).
func runBinary(rc runConfig, full bool) (res *binaryResult, err error) {
	res = &binaryResult{led: newLedger()}
	// Half the set-up samples are taken now and half at the end, so a
	// run's figure spans the run rather than one moment of a noisy host.
	if res.setup, err = measureSetup(rc, setupRuns/2, "setup-a"); err != nil {
		return nil, err
	}
	t := &svcdTarget{rc: rc, stateDir: filepath.Join(rc.dir, "svcd")}
	defer t.close()
	if t.d, _, err = spawnDaemon(rc.svcd, t.stateDir, rc.w.shards); err != nil {
		return nil, err
	}

	c := newAPIClient(t.address(), rc.conns)
	defer c.close()
	ctl := newAPIClient(t.address(), 1)
	defer ctl.close()
	drv := &sender{c: c, led: res.led, rec: &recorder{}, pods: rc.pods}
	if res.open, err = runOpen(rc, drv, ctl, t.d.pid(), t.stateDir); err != nil {
		return nil, err
	}
	if err := checkDaemon(ctl, res.led, "after the open loop"); err != nil {
		return nil, err
	}
	if !full {
		return res, nil
	}

	streams := make([]*traffic, rc.conns)
	for i := range streams {
		if streams[i], err = newTraffic(rc.w, rc.seed, streamPeak+int64(i)); err != nil {
			return nil, err
		}
	}
	res.peakOps = closedLoop(drv, streams, rc.peakDur)
	ps, err := readProc(t.d.pid())
	if err != nil {
		return nil, err
	}
	res.hwmKB = ps.hwmKB

	var took []time.Duration
	if res.tailBytes, took, err = recoveryPhase(rc, t, drv, t.stateDir); err != nil {
		return nil, err
	}
	for _, d := range took {
		res.recover = append(res.recover, d.Seconds())
	}
	t.close()
	more, err := measureSetup(rc, setupRuns-setupRuns/2, "setup-b")
	if err != nil {
		return nil, err
	}
	res.setup = append(res.setup, more...)
	return res, nil
}

// measureSetup spawns svcd n times, each on a fresh state directory, and
// returns the seconds from each spawn to its first 200 from GET
// /v1/status.
func measureSetup(rc runConfig, n int, name string) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		d, ready, err := spawnDaemon(rc.svcd, filepath.Join(rc.dir, fmt.Sprintf("%s-%d", name, i)), rc.w.shards)
		if err != nil {
			return nil, err
		}
		d.kill()
		out = append(out, ready.Seconds())
	}
	return out, nil
}

// target is the server under test: the svcd binary, or its stack built
// in-process for tracing.
type target interface {
	address() string
	// restart stops the server, gracefully or as a crash would, and
	// starts it again on the same state. It returns how long recovery
	// took; stopErr reports a failed graceful stop.
	restart(graceful bool) (took time.Duration, stopErr, err error)
}

// svcdTarget is an svcd child process on one state directory.
type svcdTarget struct {
	rc       runConfig
	stateDir string
	d        *daemon
}

func (t *svcdTarget) address() string { return t.d.addr }

// restart stops svcd with SIGTERM or SIGKILL and respawns it; recovery
// is timed from the spawn to the first 200 from GET /v1/status.
func (t *svcdTarget) restart(graceful bool) (time.Duration, error, error) {
	var stopErr error
	if graceful {
		stopErr = t.d.stop(30 * time.Second)
	} else {
		t.d.kill()
	}
	t.d = nil
	d, ready, err := spawnDaemon(t.rc.svcd, t.stateDir, t.rc.w.shards)
	if err != nil {
		return 0, stopErr, err
	}
	t.d = d
	return ready, stopErr, nil
}

// close kills svcd, if running, and waits for it to exit.
func (t *svcdTarget) close() {
	if t.d != nil {
		t.d.kill()
		t.d = nil
	}
}

// recoveryPhase rebuilds a population from recoverySeed, checkpoints
// it by a graceful restart (svcd seals every journal on SIGTERM; default
// flags otherwise checkpoint only after 4,096 records per journal),
// applies the fixed tail, then crashes and recovers the target
// recoveries times, checking the acknowledged state after each restart.
// It returns the WAL bytes per tail record and the recovery times.
func recoveryPhase(rc runConfig, t target, drv *sender, stateDir string) (float64, []time.Duration, error) {
	led := drv.led
	tr, err := newTraffic(rc.w, recoverySeed, streamReset)
	if err != nil {
		return 0, nil, err
	}
	resetPopulation(drv, tr, 0.6)
	restart := func(graceful bool) (time.Duration, error) {
		took, stopErr, err := t.restart(graceful)
		if stopErr != nil {
			led.violate("graceful stop: %v", stopErr)
		}
		return took, err
	}
	if _, err := restart(true); err != nil {
		return 0, nil, err
	}
	c := newAPIClient(t.address(), 1)
	defer c.close()
	st, err := c.status()
	if err != nil {
		return 0, nil, err
	}
	if app, ok := st.field("wal", "appended"); !ok || app != 0 {
		led.violate("journal not checkpointed after graceful restart: wal.appended %v (present %v)", app, ok)
	}
	if err := checkDaemon(c, led, "after graceful restart"); err != nil {
		return 0, nil, err
	}
	tailBytes, err := applyTail(rc, &sender{c: c, led: led, rec: drv.rec}, c, stateDir)
	if err != nil {
		return 0, nil, err
	}
	c.close()

	var took []time.Duration
	for i := 0; i < recoveries; i++ {
		d, err := restart(false)
		if err != nil {
			return 0, nil, err
		}
		took = append(took, d)
		ci := newAPIClient(t.address(), 1)
		err = checkDaemon(ci, led, fmt.Sprintf("after crash and restart %d", i+1))
		ci.close()
		if err != nil {
			return 0, nil, err
		}
	}
	return tailBytes, took, nil
}

// applyTail applies tailOps sequential mutations after a checkpoint and
// returns the WAL bytes per record they added.
func applyTail(rc runConfig, drv *sender, ctl *apiClient, stateDir string) (float64, error) {
	tr, err := newTraffic(rc.w, recoverySeed, streamTail)
	if err != nil {
		return 0, err
	}
	before, err := ctl.status()
	if err != nil {
		return 0, err
	}
	b0 := walBytes(stateDir)
	sequentialOps(drv, tr, tailOps)
	after, err := ctl.status()
	if err != nil {
		return 0, err
	}
	recs, ok := delta(before, after, "wal", "appended")
	// A cross-pod mutation appends one record to each pod it touches.
	if !ok || recs < tailOps {
		return 0, fmt.Errorf("recovery tail appended %v WAL records, want at least %d (counter present: %v)", recs, tailOps, ok)
	}
	return float64(walBytes(stateDir)-b0) / recs, nil
}

// endToEnd turns a full binary run into the end-to-end metrics, plus
// figures that are printed but not part of the result. Latencies and
// the closed-loop peak rate move with the host: on a 2-CPU virtual
// machine whose host ran other tenants (5-10% CPU steal, slow fsyncs),
// the median admission latency of one workload doubled across ten
// consecutive runs, a spread no regression bound can hold. The error
// ratio is carried by the result's attempted and failed counts.
func endToEnd(rc runConfig, b *binaryResult) (e2e, info *report) {
	r, in := newReport(), newReport()
	o := b.open
	rec := o.rec
	r.add("setup_s", medianFloat(b.setup), "s", fmt.Sprintf("median of %d spawns %.4f", len(b.setup), b.setup))
	r.add("recover_s", medianFloat(b.recover), "s", fmt.Sprintf("median of %d SIGKILL restarts after a %d-op tail %.4f", len(b.recover), tailOps, b.recover))
	r.add("accept_ratio", float64(rec.accepted)/float64(max(rec.admits, 1)), "1", fmt.Sprintf("%d of %d timed admissions", rec.accepted, rec.admits))
	cpu := o.procAfter.cpu - o.procBefore.cpu
	r.add("cpu_ms_per_op", ms(cpu)/float64(max(rec.timedOps, 1)), "ms", fmt.Sprintf("%v daemon CPU over %d ops", cpu, rec.timedOps))
	wb := o.procAfter.writeBytes - o.procBefore.writeBytes
	r.add("write_bytes_per_op", float64(wb)/float64(max(rec.timedMuts, 1)), "B", fmt.Sprintf("%d B over %d mutations", wb, rec.timedMuts))
	r.add("rss_peak_mb", float64(b.hwmKB)/1024, "MB", "VmHWM")

	latencies(in, "", o)
	in.add("peak_ops_s", b.peakOps, "ops/s", fmt.Sprintf("median per-second rate, closed loop, %d connections", rc.conns))
	in.add("error_ratio", float64(rec.failed)/float64(max(rec.attempted, 1)), "1", fmt.Sprintf("%d failed of %d attempted", rec.failed, rec.attempted))
	return r, in
}

// latencies adds each op's median latency — the median of its window
// medians — and its 99th percentile, under names with the given prefix.
func latencies(r *report, prefix string, o *openResult) {
	for _, op := range []opKind{opAdmit, opRelease, opQuery} {
		lat := o.rec.lat[op]
		med, wins := windowedMedian(lat, o.rec.due[op], o.windowStart, latencyWindow)
		r.add(prefix+op.String()+"_p50_ms", ms(med), "ms", fmt.Sprintf("median of %d %v-window medians, n=%d", wins, latencyWindow, len(lat)))
		v, _, note := lat.tail(99)
		r.add(prefix+op.String()+"_p99_ms", ms(v), "ms", note)
	}
}

// layerCounters derives the per-layer ratios from the status counters
// read around an open loop's timed window.
func layerCounters(w workload, o *openResult) *counterSet {
	cs := newCounterSet()
	b, a := o.before, o.after
	d := func(path ...string) (float64, bool) { return delta(b, a, path...) }
	admits := float64(o.rec.admits)
	fast, ok1 := d("admission", "fastPath")
	reval, ok2 := d("admission", "revalidated")
	fall, ok3 := d("admission", "fallbacks")
	locked, ok4 := d("admission", "locked")
	cs.ratio("core.fast_path_ratio", fast, ok1, fast+reval+fall+locked, ok1 && ok2 && ok3 && ok4)
	conf, ok := d("admission", "conflicts")
	cs.ratio("core.conflicts_per_admit", conf, ok, admits, true)
	retr, ok := d("admission", "retries")
	cs.ratio("core.retries_per_admit", retr, ok, admits, true)
	cs.ratio("core.fallbacks_per_admit", fall, ok3, admits, true)
	hits, okh := d("admission", "planCacheHits")
	miss, okm := d("admission", "planCacheMisses")
	cs.ratio("core.plan_hit_ratio", hits, okh, hits+miss, okh && okm)
	plans, okp := d("admission", "plans")
	inv, ok := d("admission", "planCacheInvalidations")
	cs.ratio("core.plan_invalidations_per_plan", inv, ok, plans, okp)
	ev, ok := d("admission", "planCacheEvictions")
	cs.ratio("core.plan_evictions_per_plan", ev, ok, plans, okp)
	// meanPlanMillis is a running mean; recover the window's mean from
	// the before and after totals.
	mb, okb := b.field("admission", "meanPlanMillis")
	ma, oka := a.field("admission", "meanPlanMillis")
	pb, _ := b.field("admission", "plans")
	pa, _ := a.field("admission", "plans")
	cs.ratio("core.mean_plan_ms", ma*pa-mb*pb, okb && oka, plans, okp)

	recs, okr := d("wal", "records")
	batches, okb2 := d("wal", "batches")
	cs.ratio("wal.records_per_fsync", recs, okr, batches, okb2)
	cs.ratio("wal.fsyncs_per_op", batches, okb2, float64(o.rec.timedOps), true)

	if w.shards == 0 {
		// No shard layer runs: its work is zero by definition.
		for _, n := range []string{"shard.cross_pod_ratio", "shard.pod_records_per_fsync", "shard.intent_bytes_per_op", "shard.pod_job_skew"} {
			cs.set(n, 0)
		}
		return cs
	}
	cs.ratio("shard.cross_pod_ratio", float64(o.crossPod), true, float64(o.admitted), true)
	cs.ratio("shard.pod_records_per_fsync", recs, okr, batches, okb2)
	cs.ratio("shard.intent_bytes_per_op", float64(o.intentBytes), true, float64(o.rec.timedOps), true)
	skew, ok := podJobSkew(a)
	cs.ratio("shard.pod_job_skew", skew, ok, 1, ok)
	return cs
}

// podJobSkew is the busiest pod's job count over the mean.
func podJobSkew(st statusDoc) (float64, bool) {
	sh, ok := st["sharding"].(map[string]any)
	if !ok {
		return 0, false
	}
	pods, ok := sh["pods"].([]any)
	if !ok || len(pods) == 0 {
		return 0, false
	}
	var sum, top float64
	for _, p := range pods {
		m, ok := p.(map[string]any)
		if !ok {
			return 0, false
		}
		j, ok := m["jobs"].(float64)
		if !ok {
			return 0, false
		}
		sum += j
		top = max(top, j)
	}
	if sum == 0 {
		return 0, false
	}
	return top / (sum / float64(len(pods))), true
}

// podsOf counts the pods a placement spans.
func podsOf(ps *topology.PodSet, entries []httpapi.PlacementEntry) int {
	seen := map[int]bool{}
	for _, e := range entries {
		seen[ps.Of(topology.NodeID(e.Machine))] = true
	}
	return len(seen)
}
