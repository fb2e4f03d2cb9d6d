package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// tracedResult is what the in-process traced run measured.
type tracedResult struct {
	open      *openResult
	led       *ledger
	spans     *spanStats
	recoverMs []float64
	tailBytes float64
}

// runTraced repeats the open loop, the checkpoint and the crash
// recoveries against svcd's stack built in-process with timing
// decorators at its seams.
func runTraced(rc runConfig) (*tracedResult, error) {
	dir := filepath.Join(rc.dir, "traced")
	res := &tracedResult{led: newLedger()}
	t := &stackTarget{dir: dir, w: rc.w, tr: newTracer()}
	var err error
	if t.s, _, err = openStack(dir, rc.w, t.tr); err != nil {
		return nil, err
	}
	defer t.close()

	c := newAPIClient(t.address(), rc.conns)
	defer c.close()
	c.onDone = t.tr.clientDone
	ctl := newAPIClient(t.address(), 1)
	defer ctl.close()
	drv := &sender{c: c, led: res.led, rec: &recorder{}, pods: rc.pods}
	if res.open, err = runOpen(rc, drv, ctl, 0, dir); err != nil {
		return nil, err
	}
	if err := checkDaemon(ctl, res.led, "after the open loop"); err != nil {
		return nil, err
	}
	var took []time.Duration
	if res.tailBytes, took, err = recoveryPhase(rc, t, drv, dir); err != nil {
		return nil, err
	}
	for _, d := range took {
		res.recoverMs = append(res.recoverMs, ms(d))
	}
	res.spans = t.tr.analyze(res.open.from, res.open.to)
	if res.spans.escapes > 0 {
		res.led.violate("%d child spans lie outside their parent", res.spans.escapes)
	}
	return res, nil
}

// stackTarget is the in-process stack on one state directory.
type stackTarget struct {
	dir string
	w   workload
	tr  *tracer
	s   *stack
}

func (t *stackTarget) address() string { return t.s.addr }

// restart stops the stack — gracefully as svcd's SIGTERM path does, or
// leaving the log tail as SIGKILL would — and reopens it; recovery is
// timed over the wal.Recover or shard.Open call.
func (t *stackTarget) restart(graceful bool) (time.Duration, error, error) {
	stopErr := t.s.stop(graceful)
	t.s = nil
	s, took, err := openStack(t.dir, t.w, t.tr)
	if err != nil {
		return 0, stopErr, err
	}
	t.s = s
	return took, stopErr, nil
}

func (t *stackTarget) close() {
	if t.s != nil {
		t.s.stop(false)
		t.s = nil
	}
}

// perLayer turns a traced run, and the untraced open loop run next to it,
// into the per-layer metrics.
func perLayer(rc runConfig, tr *tracedResult, untraced *binaryResult) (*report, []string) {
	r := newReport()
	sp := tr.spans
	u := untraced.open

	latencies(r, "e2e.", u)
	lag, _, lagNote := u.rec.lag.tail(99)
	r.add("loadgen.lag_ms_p99", ms(lag), "ms", "untraced run: "+lagNote)
	r.add("loadgen.cpu_ms_per_op", ms(u.genCPU)/float64(max(u.rec.timedOps, 1)), "ms", fmt.Sprintf("untraced run: %v over %d ops", u.genCPU, u.rec.timedOps))

	net := sp.netOverhead.sorted()
	r.add("net.overhead_us_p50", us(net.quantile(0.5)), "us", fmt.Sprintf("client-observed minus handler, n=%d", len(net)))

	selfMean := func(name string, l layer, op opKind) {
		d := sp.layerOps(sp.selfByOp, l, op)
		r.add(name, us(d.mean()), "us", fmt.Sprintf("n=%d", len(d)))
	}
	selfMean("httpapi.admit_self_us_mean", lHandler, opAdmit)
	selfMean("httpapi.release_self_us_mean", lHandler, opRelease)
	selfMean("httpapi.query_self_us_mean", lHandler, opQuery)
	h := sp.layerOps(sp.byLayerOp, lHandler, opAdmit, opRelease, opQuery).sorted()
	hv, _, hnote := h.tail(99)
	r.add("httpapi.handler_us_p99", us(hv), "us", hnote)

	r.latency("core.admit_us_p50", "core.admit_us_p99", sp.layerOps(sp.byLayerOp, lCtrl, opAdmit), "us", us)
	selfMean("core.admit_self_us_mean", lCtrl, opAdmit)
	selfMean("core.release_self_us_mean", lCtrl, opRelease)
	r.latency("core.query_us_p50", "core.query_us_p99", sp.layerOps(sp.byLayerOp, lCtrl, opQuery), "us", us)

	r.latency("wal.stage_us_p50", "wal.stage_us_p99", sp.layerOps(sp.byLayerOp, lStage, opOther), "us", us)
	r.latency("wal.sync_wait_us_p50", "wal.sync_wait_us_p99", sp.layerOps(sp.byLayerOp, lWait, opOther), "us", us)
	r.add("wal.record_bytes_mean", tr.tailBytes, "B", fmt.Sprintf("WAL growth per record over the %d-op tail", tailOps))
	ckpt := sp.layerOps(sp.byLayerOp, lCheckpoint, opOther)
	r.add("wal.checkpoints", float64(len(ckpt)), "count", "in the timed window")
	all := sp.checkpoints.sorted()
	r.add("wal.checkpoint_ms_p50", ms(all.quantile(0.5)), "ms", fmt.Sprintf("n=%d, the whole traced run", len(all)))
	recoverCall := "wal.Recover"
	if rc.w.shards > 0 {
		recoverCall = "shard.Open"
	}
	r.add("wal.recover_ms", medianFloat(tr.recoverMs), "ms", fmt.Sprintf("median %s of %d restarts", recoverCall, len(tr.recoverMs)))

	shardSelf := 0.0
	if rc.w.shards > 0 {
		// The controller seam of a sharded stack is the router, so its
		// self time is the shard layer's (shadow planning included).
		shardSelf = us(sp.layerOps(sp.selfByOp, lCtrl, opAdmit).mean())
	}
	r.add("shard.admit_self_us_mean", shardSelf, "us", "router self time; 0 when unsharded")

	cs := layerCounters(rc.w, tr.open)
	units := map[string]string{"core.mean_plan_ms": "ms", "shard.intent_bytes_per_op": "B"}
	for _, name := range counterNames {
		if v, ok := cs.values[name]; ok {
			unit := units[name]
			if unit == "" {
				unit = "1"
			}
			r.add(name, v, unit, "status counters over the timed window")
		}
	}

	traced := tr.open.rec.lat[opAdmit].sorted().quantile(0.5)
	plain := u.rec.lat[opAdmit].sorted().quantile(0.5)
	r.add("trace.admit_p50_ms", ms(traced), "ms", "traced in-process stack")
	r.add("trace.untraced_admit_p50_ms", ms(plain), "ms", "svcd binary, same seed")
	r.add("trace.overhead_ms", ms(traced-plain), "ms", "tracing plus in-process stack, at the admission median")
	return r, cs.absent
}

// counterNames are the per-layer metrics derived from status counters.
var counterNames = []string{
	"core.fast_path_ratio", "core.conflicts_per_admit", "core.retries_per_admit",
	"core.fallbacks_per_admit", "core.plan_hit_ratio", "core.plan_invalidations_per_plan",
	"core.plan_evictions_per_plan", "core.mean_plan_ms",
	"wal.records_per_fsync", "wal.fsyncs_per_op",
	"shard.cross_pod_ratio", "shard.pod_records_per_fsync", "shard.intent_bytes_per_op", "shard.pod_job_skew",
}
