package main

import (
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestHighestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n      int
		want   float64
		beyond int
		ok     bool
	}{
		{n: 100000, want: 99.99, beyond: 10, ok: true},
		{n: 10000, want: 99.9, beyond: 10, ok: true},
		{n: 9999, want: 99, beyond: 99, ok: true},
		{n: 1000, want: 99, beyond: 10, ok: true},
		{n: 999, want: 95, beyond: 49, ok: true},
		{n: 200, want: 95, beyond: 10, ok: true},
		{n: 20, want: 50, beyond: 10, ok: true},
		{n: 19, ok: false},
	}
	for _, c := range cases {
		p, beyond, ok := highestPercentile(c.n)
		if ok != c.ok || (ok && (p != c.want || beyond != c.beyond)) {
			t.Errorf("n=%d: got p%g with %d beyond (ok %v), want p%g with %d beyond (ok %v)",
				c.n, p, beyond, ok, c.want, c.beyond, c.ok)
		}
	}
}

func TestTailReportsPercentileAndCount(t *testing.T) {
	var d durations
	for i := 1; i <= 1000; i++ {
		d = append(d, time.Duration(i)*time.Millisecond)
	}
	v, used, note := d.tail(99)
	if used != 99 || v != 990*time.Millisecond {
		t.Fatalf("tail(99) of 1..1000 ms = %v at p%g, want 990ms at p99", v, used)
	}
	if !strings.Contains(note, "1000 samples") || !strings.Contains(note, "10 beyond") {
		t.Errorf("note %q does not state the sample count and the samples beyond", note)
	}
	v, used, note = d[:500].tail(99)
	if used != 95 || v != 475*time.Millisecond || !strings.Contains(note, "500 samples") {
		t.Errorf("tail(99) of 500 samples = %v at p%g (%q), want p95 = 475ms with the count", v, used, note)
	}
}

// A server that stalls once must show the stall in the latency of every
// request queued behind it: the open loop times from the due time, not
// from when the request could be sent.
func TestOpenLoopCountsStalls(t *testing.T) {
	const (
		arrivals = 20
		gap      = 10 * time.Millisecond
		stall    = 300 * time.Millisecond
	)
	var seen atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if seen.Add(1) == 3 {
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusConflict) // rejected: no release follows
		w.Write([]byte(`{"error":"no capacity"}`))
	}))
	defer srv.Close()

	c := newAPIClient(strings.TrimPrefix(srv.URL, "http://"), 1)
	defer c.close()
	rec := &recorder{}
	o := &openLoop{d: &sender{c: c, led: newLedger(), rec: rec}, conns: 1, end: arrivals * gap}
	for i := 0; i < arrivals; i++ {
		tn := &tenant{vms: 2}
		tn.req.N, tn.req.Mu = 2, 100
		o.h = append(o.h, &event{due: time.Duration(i) * gap, tenant: tn})
	}
	o.runEvents(nil)

	lat := rec.lat[opAdmit]
	if len(lat) != arrivals {
		t.Fatalf("%d timed admissions, want %d", len(lat), arrivals)
	}
	// Request 3 (due at 20 ms) stalls until about 320 ms; request 4, due
	// at 30 ms, cannot start before then.
	if lat[3] < stall-20*time.Millisecond {
		t.Errorf("request queued behind the stall took %v from its due time, want at least %v", lat[3], stall-20*time.Millisecond)
	}
	delayed := 0
	for _, l := range lat[3:] {
		if l > 100*time.Millisecond {
			delayed++
		}
	}
	if delayed < 10 {
		t.Errorf("only %d of the requests due during the stall show it: %v", delayed, lat)
	}
}

func TestStatusDeltaReportsMissingFieldAsAbsent(t *testing.T) {
	before := statusDoc{"wal": map[string]any{"batches": 10.0, "records": 20.0}}
	after := statusDoc{"wal": map[string]any{"batches": 15.0, "records": 30.0}}
	if d, ok := delta(before, after, "wal", "records"); !ok || d != 10 {
		t.Fatalf("delta wal.records = %v, %v; want 10, true", d, ok)
	}
	noWAL := statusDoc{"admission": map[string]any{}}
	if _, ok := delta(before, noWAL, "wal", "records"); ok {
		t.Error("delta of a counter missing after the window reported present")
	}
	if _, ok := delta(noWAL, after, "wal", "records"); ok {
		t.Error("delta of a counter missing before the window reported present")
	}
	if _, ok := before.field("wal"); ok {
		t.Error("a section read as a number")
	}

	o := &openResult{rec: &recorder{admits: 10, timedOps: 40}, before: before, after: noWAL}
	cs := layerCounters(workload{name: "x"}, o)
	for _, name := range []string{"wal.records_per_fsync", "core.plan_hit_ratio"} {
		if v, ok := cs.values[name]; ok {
			t.Errorf("%s = %v from missing counters, want absent", name, v)
		}
		found := false
		for _, a := range cs.absent {
			found = found || a == name
		}
		if !found {
			t.Errorf("%s not listed as absent: %v", name, cs.absent)
		}
	}
}

func TestProcParsers(t *testing.T) {
	// A command name with spaces and parentheses must not shift fields.
	stat := "4242 (svc d) (x)) S 1 4242 4242 0 -1 4194560 3111 0 0 0 250 75 0 0 20 0 9 0 123 0 0"
	cpu, err := parseStatCPU(stat)
	if err != nil || cpu != 325*clockTick {
		t.Fatalf("parseStatCPU = %v, %v; want %v", cpu, err, 325*clockTick)
	}
	if _, err := parseStatCPU("4242 svcd S 1"); err == nil {
		t.Error("stat line without a command name parsed")
	}

	io := "rchar: 3980\nwchar: 120\nsyscr: 9\nsyscw: 3\nread_bytes: 0\nwrite_bytes: 1228800\ncancelled_write_bytes: 4096\n"
	if n, err := parseKeyed(io, "write_bytes"); err != nil || n != 1228800 {
		t.Errorf("write_bytes = %d, %v; want 1228800", n, err)
	}
	status := "Name:\tsvcd\nVmPeak:\t 1265560 kB\nVmHWM:\t   24688 kB\nVmRSS:\t   20012 kB\n"
	if n, err := parseKeyed(status, "VmHWM"); err != nil || n != 24688 {
		t.Errorf("VmHWM = %d, %v; want 24688", n, err)
	}
	if _, err := parseKeyed(status, "VmSwap"); err == nil {
		t.Error("missing key parsed")
	}

	h, err := parseHostCPU("cpu  262553 0 54695 1008758 24018 0 11978 43170 5 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n")
	if err != nil || h.steal != 43170 || h.total != 262553+54695+1008758+24018+11978+43170 {
		t.Errorf("parseHostCPU = %+v, %v", h, err)
	}
	if got := stealShare(hostCPU{total: 1000, steal: 10}, hostCPU{total: 3000, steal: 210}); got != 0.1 {
		t.Errorf("stealShare = %v, want 0.1", got)
	}

	live, err := readProc(os.Getpid())
	if err != nil {
		t.Fatalf("readProc(self): %v", err)
	}
	if live.hwmKB <= 0 {
		t.Errorf("own VmHWM = %d kB", live.hwmKB)
	}
}

// Self time is a span minus what its children cover, with children found
// through the goroutine they run on, including one spawned inside the
// parent call.
func TestSpanSelfTimeAddsUp(t *testing.T) {
	tr := newTracer()
	endHandler := tr.begin(lHandler, opAdmit, 7)
	endCtrl := tr.begin(lCtrl, opAdmit, 0)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		end := tr.begin(lWait, opOther, 0)
		time.Sleep(5 * time.Millisecond)
		end()
	}()
	wg.Wait()
	endStage := tr.begin(lStage, opOther, 0)
	time.Sleep(2 * time.Millisecond)
	endStage()
	endCtrl()
	time.Sleep(time.Millisecond)
	endHandler()

	st := tr.analyze(tr.base, time.Now())
	if st.escapes != 0 {
		t.Fatalf("%d children outside their parent", st.escapes)
	}
	byID := map[uint64]span{}
	for _, s := range tr.spans {
		byID[s.id] = s
	}
	for _, s := range tr.spans {
		if s.layer == lWait || s.layer == lStage {
			if p := byID[s.parent]; p.layer != lCtrl {
				t.Errorf("%v span parented to layer %v, want the controller", s.layer, p.layer)
			}
		}
	}
	for _, s := range tr.spans {
		var kids time.Duration
		for _, c := range tr.spans {
			if c.parent == s.id {
				kids += c.end - c.start // children here do not overlap
			}
		}
		if got := st.self[s.id] + kids; got != s.end-s.start {
			t.Errorf("span %d (layer %v): self %v + children %v != duration %v", s.id, s.layer, st.self[s.id], kids, s.end-s.start)
		}
	}
}

// A backlog confined to a few windows must not move the windowed
// median; a slowdown of every request must.
func TestWindowedMedianIgnoresShortBacklog(t *testing.T) {
	start := time.Now()
	var lat durations
	var due []time.Time
	for w := 0; w < 9; w++ {
		for i := 0; i < 20; i++ {
			l := time.Millisecond + time.Duration(i)*time.Microsecond
			if w == 4 || w == 5 {
				l *= 50 // a backlog in two of nine windows
			}
			lat = append(lat, l)
			due = append(due, start.Add(time.Duration(w)*time.Second+time.Duration(i)*time.Millisecond))
		}
	}
	med, wins := windowedMedian(lat, due, start, time.Second)
	if wins != 9 || med != time.Millisecond+9*time.Microsecond {
		t.Errorf("windowedMedian = %v over %d windows, want 1.009ms over 9", med, wins)
	}
	for i := range lat {
		lat[i] *= 2
	}
	if slow, _ := windowedMedian(lat, due, start, time.Second); slow != 2*med {
		t.Errorf("uniform 2x slowdown moved the windowed median from %v to %v", med, slow)
	}
}

func TestCoveredMergesOverlaps(t *testing.T) {
	iv := [][2]time.Duration{{0, 10}, {5, 15}, {20, 25}, {22, 23}, {30, 30}}
	if got := covered(iv); got != 20 {
		t.Errorf("covered = %v, want 20", got)
	}
}
