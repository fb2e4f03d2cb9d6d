// Command svcdbench is the end-to-end benchmark of the svcd admission
// daemon. It runs the real svcd binary as a child process with default
// flags plus -state-dir (fsync on), drives it over loopback HTTP from a
// seeded open-loop tenant generator, checks every acknowledged outcome
// against the daemon's state (across a SIGKILL and restart too), and
// prints one JSON result line last.
//
//	svcdbench -svcd PATH -work DIR --workload paper-online --seed 1 --seconds 20 --trace 0
//
// With --trace 1 it instead reports per-layer metrics: an untraced open
// loop against the binary, then the same traffic against svcd's stack
// built in-process from the constructors svcd calls, with timing
// decorators at the HTTP handler, controller and journal seams.
//
// run.sh builds svcd and this command and is the entry point.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/topology"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run")
		seed    = flag.Int64("seed", 1, "seed of the generated traffic")
		seconds = flag.Int("seconds", 20, "measured seconds: the open loop plus the peak phase")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics from the svcd binary; 1: per-layer metrics from a traced run")
		svcd    = flag.String("svcd", "", "svcd binary")
		work    = flag.String("work", "", "directory for the run's state directories")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *svcd, *work); err != nil {
		fmt.Fprintln(os.Stderr, "svcdbench:", err)
		os.Exit(1)
	}
}

// result is the final output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(name string, seed int64, seconds, trace int, svcd, work string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	switch {
	case seconds < 1:
		return fmt.Errorf("--seconds %d: want at least 1", seconds)
	case trace != 0 && trace != 1:
		return fmt.Errorf("--trace %d: want 0 or 1", trace)
	case svcd == "" || work == "":
		return errors.New("-svcd and -work are required")
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(work, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	host, err := probeHost(dir)
	if err != nil {
		return err
	}
	hj, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hj)
	topo, err := topology.NewThreeTier(topology.PaperConfig())
	if err != nil {
		return err
	}
	rc := runConfig{
		w: w, seed: seed, svcd: svcd, dir: dir,
		conns: runtime.NumCPU(), pods: topology.NewPods(topo),
	}
	total := time.Duration(seconds) * time.Second
	rc.peakDur = max(total/5, time.Second)
	rc.openDur = max(total-rc.peakDur, time.Second)
	if trace == 1 {
		// The untraced and the traced open loop share the window.
		rc.openDur /= 2
	}
	fmt.Printf("workload %s seed %d seconds %d trace %d connections %d\n", w.name, seed, seconds, trace, rc.conns)

	var (
		rep        *report
		attempted  int
		failed     int
		violations []string
		absent     []string
	)
	if trace == 0 {
		b, err := runBinary(rc, true)
		if err != nil {
			return err
		}
		var info *report
		rep, info = endToEnd(rc, b)
		printReport("info", info)
		generatorHealth("svcd", b.open)
		cs := layerCounters(w, b.open)
		printCounters(cs)
		attempted, failed = b.open.rec.attempted, b.open.rec.failed
		violations, absent = b.led.violations, cs.absent
		fmt.Printf("wal bytes per record over the tail: %.1f\n", b.tailBytes)
	} else {
		b, err := runBinary(rc, false)
		if err != nil {
			return err
		}
		generatorHealth("svcd", b.open)
		t, err := runTraced(rc)
		if err != nil {
			return err
		}
		generatorHealth("traced", t.open)
		rep, absent = perLayer(rc, t, b)
		attempted = b.open.rec.attempted + t.open.rec.attempted
		failed = b.open.rec.failed + t.open.rec.failed
		for _, v := range b.led.violations {
			violations = append(violations, "svcd: "+v)
		}
		for _, v := range t.led.violations {
			violations = append(violations, "traced: "+v)
		}
	}

	printReport("metric", rep)
	for _, n := range absent {
		fmt.Printf("absent %s: a status counter it needs is missing\n", n)
	}
	for _, v := range violations {
		fmt.Printf("violation %s\n", v)
	}
	if len(violations) == 0 {
		fmt.Println("checks passed: placements, Eq. 4 bound, acknowledged state across restarts")
	}
	out, err := json.Marshal(result{
		Correct:   len(violations) == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   rep.vals,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// generatorHealth prints how late the generator dispatched ops and its
// own CPU per op, flags a generator that fell behind, and gives the
// share of the machine's CPU time the hypervisor stole in the window.
func generatorHealth(label string, o *openResult) {
	lag, _, note := o.rec.lag.tail(99)
	perOp := ms(o.genCPU) / float64(max(o.rec.timedOps, 1))
	fmt.Printf("generator %s: lag p99 %.3f ms (%s), cpu %.4f ms/op, behind schedule: %v; host cpu steal %.1f%%\n",
		label, ms(lag), note, perOp, lag > behindLag, 100*stealShare(o.hostBefore, o.hostAfter))
}

func printReport(label string, r *report) {
	for _, n := range r.names {
		v := r.vals[n]
		fmt.Printf("%s %-32s %14.4f %-6s %s\n", label, n, v.Value, v.Unit, r.notes[n])
	}
}

func printCounters(cs *counterSet) {
	names := make([]string, 0, len(cs.values))
	for n := range cs.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("counter %-32s %.4f\n", n, cs.values[n])
	}
}
