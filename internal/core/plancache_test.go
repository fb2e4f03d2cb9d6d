package core

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/stats"
	"repro/internal/topology"
)

// TestPlanCacheEquivalenceHomog fuzzes the memoized homogeneous DP
// against the cold one: across random topologies and random
// commit/rollback/background-demand/fault/slot interleavings, every
// cached plan must be bit-identical to a fresh DP run on the same
// ledger state — same feasibility, same placement entries, same link
// contributions. The shapes (demand x N x policy) outnumber the entry
// cap, so entries are evicted and their storage is offered to shapes
// with other row widths.
func TestPlanCacheEquivalenceHomog(t *testing.T) {
	r := stats.NewRand(4242)
	var hits, reclaims int64
	for trial := 0; trial < 40; trial++ {
		tp := randomTopology(r)
		led, err := NewLedger(tp, 0.05)
		if err != nil {
			t.Fatalf("trial %d: NewLedger: %v", trial, err)
		}
		cache := newPlanCache()
		// A small demand pool keyed repeatedly, so many plans hit warm
		// entries and exercise the incremental recompute path, while N
		// ranges widely enough that the shapes overflow the entry cap.
		demands := make([]stats.Normal, 4)
		for i := range demands {
			demands[i] = stats.Normal{Mu: r.UniformRange(1, 12), Sigma: r.UniformRange(0, 5)}
		}
		type liveJob struct {
			p        Placement
			contribs []linkDemand
		}
		var jobs []liveJob
		for step := 0; step < 40; step++ {
			policy := MinMaxOccupancy
			if step%5 == 4 {
				policy = FirstFeasible
			}
			req := Homogeneous{
				N:      r.UniformInt(1, min(10, tp.TotalSlots())),
				Demand: demands[r.IntN(len(demands))],
			}
			p, contribs, err := cache.allocateHomog(led, req, policy, nil)
			fp, fcontribs, ferr := AllocateHomogWorkers(led, req, policy, 1)
			if (err == nil) != (ferr == nil) {
				t.Fatalf("trial %d step %d: cached err = %v, cold err = %v", trial, step, err, ferr)
			}
			if err == nil {
				if !reflect.DeepEqual(p.Entries, fp.Entries) {
					t.Fatalf("trial %d step %d: cached placement %v != cold %v", trial, step, &p, &fp)
				}
				if !reflect.DeepEqual(contribs, fcontribs) {
					t.Fatalf("trial %d step %d: cached contribs differ from cold", trial, step)
				}
			}
			switch r.IntN(6) {
			case 0: // commit the plan: invalidates the placement's paths
				if err == nil {
					commit(led, &p, contribs)
					jobs = append(jobs, liveJob{p, contribs})
				}
			case 1: // roll a previous commit back
				if len(jobs) > 0 {
					idx := r.IntN(len(jobs))
					j := jobs[idx]
					rollback(led, &j.p, j.contribs)
					jobs = append(jobs[:idx], jobs[idx+1:]...)
				}
			case 2: // background deterministic demand on a random link
				links := tp.Links()
				link := links[r.IntN(len(links))]
				led.AddDet(link, r.UniformRange(0, 0.3*tp.LinkCap(link)))
			case 3: // fault churn: epoch bump must drop the whole table
				machines := tp.Machines()
				m := machines[r.IntN(len(machines))]
				led.Faults().FailMachine(m)
				if r.Float64() < 0.7 {
					led.Faults().RestoreMachine(m)
				}
			case 4: // raw slot churn on a random machine
				machines := tp.Machines()
				m := machines[r.IntN(len(machines))]
				if led.FreeSlots(m) > 0 {
					led.UseSlots(m, 1)
				}
			default:
				// No mutation: the next plan for this shape is a pure hit.
			}
		}
		st := cache.snapshot()
		hits += st.Hits
		reclaims += st.Reclaims
		if st.Hits+st.Misses == 0 {
			t.Fatalf("trial %d: no plans counted", trial)
		}
	}
	if hits == 0 {
		t.Fatal("the interleavings never produced a cache hit; the test is not exercising reuse")
	}
	if reclaims == 0 {
		t.Fatal("no evicted entry's storage was reclaimed; the test is not exercising table reuse")
	}
}

// TestPlanCacheEquivalenceHetero is the heterogeneous-substring twin of
// the homogeneous equivalence fuzz, with more request shapes (and VM
// counts) than the hetero entry cap.
func TestPlanCacheEquivalenceHetero(t *testing.T) {
	r := stats.NewRand(5353)
	var hits, reclaims int64
	for trial := 0; trial < 30; trial++ {
		tp := randomTopology(r)
		led, err := NewLedger(tp, 0.05)
		if err != nil {
			t.Fatalf("trial %d: NewLedger: %v", trial, err)
		}
		cache := newPlanCache()
		// A fixed request pool: repeats share percentile-sorted tables.
		reqs := make([]Heterogeneous, 6)
		for i := range reqs {
			reqs[i] = randHetero(r, r.UniformInt(1, min(7, tp.TotalSlots())), 1, 10)
		}
		type liveJob struct {
			p        Placement
			contribs []linkDemand
		}
		var jobs []liveJob
		for step := 0; step < 30; step++ {
			policy := MinMaxOccupancy
			if step%5 == 4 {
				policy = FirstFeasible
			}
			req := reqs[r.IntN(len(reqs))]
			p, contribs, err := cache.allocateHeteroSubstring(led, req, policy, nil)
			fp, fcontribs, ferr := AllocateHeteroSubstringWorkers(led, req, policy, 1)
			if (err == nil) != (ferr == nil) {
				t.Fatalf("trial %d step %d: cached err = %v, cold err = %v", trial, step, err, ferr)
			}
			if err == nil {
				if !reflect.DeepEqual(p.Entries, fp.Entries) {
					t.Fatalf("trial %d step %d: cached placement %v != cold %v", trial, step, &p, &fp)
				}
				if !reflect.DeepEqual(contribs, fcontribs) {
					t.Fatalf("trial %d step %d: cached contribs differ from cold", trial, step)
				}
			}
			switch r.IntN(5) {
			case 0:
				if err == nil {
					commit(led, &p, contribs)
					jobs = append(jobs, liveJob{p, contribs})
				}
			case 1:
				if len(jobs) > 0 {
					idx := r.IntN(len(jobs))
					j := jobs[idx]
					rollback(led, &j.p, j.contribs)
					jobs = append(jobs[:idx], jobs[idx+1:]...)
				}
			case 2:
				links := tp.Links()
				link := links[r.IntN(len(links))]
				led.AddStochastic(link, stats.Normal{Mu: r.UniformRange(0, 6), Sigma: r.UniformRange(0, 3)})
			case 3:
				machines := tp.Machines()
				m := machines[r.IntN(len(machines))]
				led.Faults().FailMachine(m)
				if r.Float64() < 0.7 {
					led.Faults().RestoreMachine(m)
				}
			default:
			}
		}
		st := cache.snapshot()
		hits += st.Hits
		reclaims += st.Reclaims
	}
	if hits == 0 {
		t.Fatal("the interleavings never produced a cache hit")
	}
	if reclaims == 0 {
		t.Fatal("no evicted entry's storage was reclaimed; the test is not exercising table reuse")
	}
}

// TestPlanCacheCounters pins the counter semantics: first plan of a
// shape is a miss, an unchanged replan is a hit with no invalidations,
// a commit makes the next hit recompute (invalidations move), and
// overflowing the FIFO bound evicts.
func TestPlanCacheCounters(t *testing.T) {
	led, err := NewLedger(mustTopo(smallThreeTier()), 0.05)
	if err != nil {
		t.Fatalf("NewLedger: %v", err)
	}
	c := newPlanCache()
	req := Homogeneous{N: 2, Demand: stats.Normal{Mu: 5, Sigma: 2}}

	p1, contribs, err := c.allocateHomog(led, req, MinMaxOccupancy, nil)
	if err != nil {
		t.Fatalf("first plan: %v", err)
	}
	if st := c.snapshot(); st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("after first plan: %+v, want 1 miss 0 hits", st)
	}

	p2, _, err := c.allocateHomog(led, req, MinMaxOccupancy, nil)
	if err != nil {
		t.Fatalf("replan: %v", err)
	}
	if !reflect.DeepEqual(p1.Entries, p2.Entries) {
		t.Fatalf("unchanged replan differs: %v vs %v", &p1, &p2)
	}
	if st := c.snapshot(); st.Hits != 1 || st.Invalidations != 0 {
		t.Fatalf("after unchanged replan: %+v, want 1 hit 0 invalidations", st)
	}

	commit(led, &p1, contribs)
	if _, _, err := c.allocateHomog(led, req, MinMaxOccupancy, nil); err != nil {
		t.Fatalf("post-commit plan: %v", err)
	}
	st := c.snapshot()
	if st.Hits != 2 || st.Invalidations == 0 {
		t.Fatalf("after post-commit replan: %+v, want 2 hits and >0 invalidations", st)
	}
	// The commit touched two machines' root paths at most; with 4
	// machines + 2 racks + 1 root, an incremental replan must recompute
	// strictly fewer records than the 7-vertex full fill.
	if st.Invalidations >= int64(led.Topology().Len()) {
		t.Fatalf("post-commit replan recomputed %d records, want < %d (incremental)",
			st.Invalidations, led.Topology().Len())
	}

	for i := 0; i <= maxHomogPlanEntries; i++ {
		r := Homogeneous{N: 1, Demand: stats.Normal{Mu: 1 + float64(i), Sigma: 1}}
		if _, _, err := c.allocateHomog(led, r, MinMaxOccupancy, nil); err != nil {
			t.Fatalf("fill plan %d: %v", i, err)
		}
	}
	if st := c.snapshot(); st.Evictions == 0 {
		t.Fatalf("after overflowing the homog FIFO: %+v, want evictions", st)
	}

	for i := 0; i <= maxHeteroPlanEntries; i++ {
		r := Heterogeneous{Demands: []stats.Normal{{Mu: 1 + float64(i), Sigma: 1}}}
		if _, _, err := c.allocateHeteroSubstring(led, r, MinMaxOccupancy, nil); err != nil {
			t.Fatalf("hetero fill plan %d: %v", i, err)
		}
	}
	if st := c.snapshot(); st.Evictions < 2 {
		t.Fatalf("after overflowing both FIFOs: %+v, want >= 2 evictions", st)
	}
}

// TestCanonDemand pins the memo-key canonicalization: negative moments
// clamp to zero (matching the contribution-time clamp of the
// moment-matched hetero min path) and NaNs collapse to the zero demand,
// so equal effective demands always share cache entries.
func TestCanonDemand(t *testing.T) {
	cases := []struct{ in, want stats.Normal }{
		{stats.Normal{Mu: 5, Sigma: 2}, stats.Normal{Mu: 5, Sigma: 2}},
		{stats.Normal{Mu: -3, Sigma: 2}, stats.Normal{Mu: 0, Sigma: 2}},
		{stats.Normal{Mu: 4, Sigma: -1}, stats.Normal{Mu: 4, Sigma: 0}},
		{stats.Normal{Mu: math.NaN(), Sigma: 2}, stats.Normal{}},
		{stats.Normal{Mu: 1, Sigma: math.NaN()}, stats.Normal{}},
	}
	for _, tc := range cases {
		if got := canonDemand(tc.in); got != tc.want {
			t.Errorf("canonDemand(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestPlanCacheEquivalenceScoped runs the cache under a plan scope — as
// a WithPlanSubtree pod manager does — against the scoped cold DPs, with
// commits and background demand moving subtree versions between plans.
// A scoped cache must lay out rows for the scope's vertices only.
func TestPlanCacheEquivalenceScoped(t *testing.T) {
	r := stats.NewRand(6464)
	var hits int64
	for trial := 0; trial < 30; trial++ {
		tp := randomTopology(r)
		led, err := NewLedger(tp, 0.05)
		if err != nil {
			t.Fatalf("trial %d: NewLedger: %v", trial, err)
		}
		var switches []topology.NodeID
		for level := 1; level <= tp.Height(); level++ {
			switches = append(switches, tp.AtLevel(level)...)
		}
		root := switches[r.IntN(len(switches))]
		scope, err := newPlanScope(tp, root)
		if err != nil {
			t.Fatalf("trial %d: newPlanScope: %v", trial, err)
		}
		slots := tp.SubtreeSlots(root)
		cache := newPlanCache()
		demands := make([]stats.Normal, 3)
		for i := range demands {
			demands[i] = stats.Normal{Mu: r.UniformRange(1, 12), Sigma: r.UniformRange(0, 5)}
		}
		hreqs := make([]Heterogeneous, 3)
		for i := range hreqs {
			hreqs[i] = randHetero(r, r.UniformInt(1, min(6, slots)), 1, 10)
		}
		for step := 0; step < 30; step++ {
			var (
				p, fp               Placement
				contribs, fcontribs []linkDemand
				err, ferr           error
			)
			if step%3 == 2 {
				req := hreqs[r.IntN(len(hreqs))]
				p, contribs, err = cache.allocateHeteroSubstring(led, req, MinMaxOccupancy, scope)
				fp, fcontribs, ferr = allocateHeteroSubstringScoped(led, req, MinMaxOccupancy, 1, scope)
			} else {
				req := Homogeneous{N: r.UniformInt(1, min(8, slots)), Demand: demands[r.IntN(len(demands))]}
				p, contribs, err = cache.allocateHomog(led, req, MinMaxOccupancy, scope)
				fp, fcontribs, ferr = allocateHomogScoped(led, req, MinMaxOccupancy, 1, scope)
			}
			if (err == nil) != (ferr == nil) {
				t.Fatalf("trial %d step %d: cached err = %v, cold err = %v", trial, step, err, ferr)
			}
			if err == nil && (!reflect.DeepEqual(p.Entries, fp.Entries) || !reflect.DeepEqual(contribs, fcontribs)) {
				t.Fatalf("trial %d step %d: cached plan %v != cold %v", trial, step, &p, &fp)
			}
			switch r.IntN(3) {
			case 0:
				if err == nil {
					commit(led, &p, contribs)
				}
			case 1:
				links := tp.Links()
				link := links[r.IntN(len(links))]
				led.AddDet(link, r.UniformRange(0, 0.2*tp.LinkCap(link)))
			}
		}
		inScope := 0
		for level := 0; level <= scope.height; level++ {
			inScope += len(scope.atLevel(level))
		}
		if got := len(cache.frame.slots); got != inScope {
			t.Fatalf("trial %d: scoped cache laid out %d vertices, want the scope's %d", trial, got, inScope)
		}
		hits += cache.snapshot().Hits
	}
	if hits == 0 {
		t.Fatal("the scoped interleavings never produced a cache hit")
	}
}

// TestPlanCacheConcurrentEviction plans more distinct shapes than the
// entry caps allow from several goroutines at once, so evictions — and
// the storage reclaims they attempt — race planners still holding the
// evicted entries. Every plan must equal the cold DP on the same
// (read-only) ledger. Meant for -race.
func TestPlanCacheConcurrentEviction(t *testing.T) {
	tp, err := topology.NewThreeTier(topology.ThreeTierConfig{
		Aggs: 2, ToRsPerAgg: 3, MachinesPerRack: 4, SlotsPerMachine: 4, HostCap: 1000, Oversub: 2,
	})
	if err != nil {
		t.Fatalf("NewThreeTier: %v", err)
	}
	led, err := NewLedger(tp, 0.05)
	if err != nil {
		t.Fatalf("NewLedger: %v", err)
	}
	r := stats.NewRand(777)
	for _, link := range tp.Links() {
		if r.Float64() < 0.5 {
			led.AddStochastic(link, stats.Normal{Mu: r.UniformRange(0, 0.3*tp.LinkCap(link)), Sigma: r.UniformRange(0, 50)})
		}
	}
	for _, m := range tp.Machines() {
		led.UseSlots(m, r.IntN(3))
	}
	// Settle the lazily rebuilt reachability cache: from here on the
	// ledger is only read.
	led.Faults().AliveSlots()

	type shape struct {
		homog    Homogeneous
		hetero   Heterogeneous
		want     Placement
		contribs []linkDemand
		wantErr  bool
	}
	plan := func(c *planCache, sh *shape) (Placement, []linkDemand, error) {
		if sh.hetero.Demands != nil {
			if c == nil {
				return AllocateHeteroSubstringWorkers(led, sh.hetero, MinMaxOccupancy, 1)
			}
			return c.allocateHeteroSubstring(led, sh.hetero, MinMaxOccupancy, nil)
		}
		if c == nil {
			return AllocateHomogWorkers(led, sh.homog, MinMaxOccupancy, 1)
		}
		return c.allocateHomog(led, sh.homog, MinMaxOccupancy, nil)
	}
	// Each goroutine owns 4 homog and 2 hetero shapes: 16 homog shapes
	// against a cap of 12, 8 hetero against 4.
	const workers = 4
	shapes := make([][]shape, workers)
	feasible := 0
	for g := range shapes {
		for i := 0; i < 6; i++ {
			var sh shape
			if i < 4 {
				sh.homog = Homogeneous{N: r.UniformInt(1, 24), Demand: stats.Normal{Mu: r.UniformRange(10, 200), Sigma: r.UniformRange(0, 80)}}
			} else {
				sh.hetero = randHetero(r, r.UniformInt(2, 8), 10, 200)
			}
			p, contribs, err := plan(nil, &sh)
			sh.want, sh.contribs, sh.wantErr = p, contribs, err != nil
			if !sh.wantErr {
				feasible++
			}
			shapes[g] = append(shapes[g], sh)
		}
	}
	if feasible == 0 {
		t.Fatal("no shape is feasible on the loaded ledger; the comparison would be vacuous")
	}

	cache := newPlanCache()
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(own []shape) {
			defer wg.Done()
			for iter := 0; iter < 15; iter++ {
				for i := range own {
					sh := &own[i]
					p, contribs, err := plan(cache, sh)
					if (err != nil) != sh.wantErr {
						errs <- fmt.Errorf("shape %d: cached err = %v, cold wanted err = %v", i, err, sh.wantErr)
						return
					}
					if err == nil && (!reflect.DeepEqual(p.Entries, sh.want.Entries) || !reflect.DeepEqual(contribs, sh.contribs)) {
						errs <- fmt.Errorf("shape %d: cached plan %v != cold %v", i, &p, &sh.want)
						return
					}
				}
			}
		}(shapes[g])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := cache.snapshot(); st.Evictions == 0 || st.Reclaims == 0 {
		t.Fatalf("counters %+v: want evictions and reclaims under concurrent planning", st)
	}
}

// TestPlanCacheReclaimLeavesVictimEmpty pins the reclaim handoff: a
// planner that fetched an entry just before it was evicted must not
// share storage with the entry that adopted it. The victim is left with
// no tables, and planning through the stale reference lays out fresh
// ones and still matches the cold DP.
func TestPlanCacheReclaimLeavesVictimEmpty(t *testing.T) {
	led, err := NewLedger(mustTopo(smallThreeTier()), 0.05)
	if err != nil {
		t.Fatalf("NewLedger: %v", err)
	}
	c := newPlanCache()

	req := Homogeneous{N: 3, Demand: stats.Normal{Mu: 5, Sigma: 2}}
	stale, _ := c.homogEntryFor(led, req, MinMaxOccupancy, nil)
	stale.mu.Lock()
	stale.plan(led)
	stale.mu.Unlock()
	// Same N, so every replacement's rows fit the victim's storage.
	for i := 0; i < maxHomogPlanEntries; i++ {
		other := Homogeneous{N: 3, Demand: stats.Normal{Mu: 6 + float64(i), Sigma: 1}}
		if _, _, err := c.allocateHomog(led, other, MinMaxOccupancy, nil); err != nil {
			t.Fatalf("fill plan %d: %v", i, err)
		}
	}
	if st := c.snapshot(); st.Reclaims == 0 {
		t.Fatalf("counters %+v: the victim's storage was not reclaimed", st)
	}
	stale.mu.Lock()
	emptied := stale.tab.recs == nil && stale.tab.optIn == nil && stale.spare.recs == nil
	p, contribs, _, err := stale.plan(led)
	stale.mu.Unlock()
	if !emptied {
		t.Fatal("an evicted entry kept tables after its storage was reclaimed")
	}
	fp, fcontribs, ferr := AllocateHomogWorkers(led, req, MinMaxOccupancy, 1)
	if err != nil || ferr != nil {
		t.Fatalf("stale plan err = %v, cold err = %v", err, ferr)
	}
	if !reflect.DeepEqual(p.Entries, fp.Entries) || !reflect.DeepEqual(contribs, fcontribs) {
		t.Fatalf("plan through the evicted entry %v != cold %v", &p, &fp)
	}

	hreq := Heterogeneous{Demands: []stats.Normal{{Mu: 3, Sigma: 1}, {Mu: 4, Sigma: 2}}}
	order, sorted := orderByPercentile(hreq)
	hstale, _ := c.substrEntryFor(led, sorted, MinMaxOccupancy, nil)
	hstale.mu.Lock()
	hstale.plan(led, hreq, order)
	hstale.mu.Unlock()
	for i := 0; i < maxHeteroPlanEntries; i++ {
		other := Heterogeneous{Demands: []stats.Normal{{Mu: 5 + float64(i), Sigma: 1}, {Mu: 6, Sigma: 1}}}
		if _, _, err := c.allocateHeteroSubstring(led, other, MinMaxOccupancy, nil); err != nil {
			t.Fatalf("hetero fill plan %d: %v", i, err)
		}
	}
	hstale.mu.Lock()
	emptied = hstale.tab.recs == nil && hstale.tab.optIn == nil && hstale.spare.recs == nil
	hp, _, _, herr := hstale.plan(led, hreq, order)
	hstale.mu.Unlock()
	if !emptied {
		t.Fatal("an evicted substring entry kept tables after its storage was reclaimed")
	}
	hfp, _, hferr := AllocateHeteroSubstringWorkers(led, hreq, MinMaxOccupancy, 1)
	if herr != nil || hferr != nil || !reflect.DeepEqual(hp.Entries, hfp.Entries) {
		t.Fatalf("plan through the evicted substring entry %v (err %v) != cold %v (err %v)", &hp, herr, &hfp, hferr)
	}
}
