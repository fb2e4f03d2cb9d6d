package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/stats"
)

// TestPlanCacheEquivalenceHomog fuzzes the memoized homogeneous DP
// against the cold one: across random topologies and random
// commit/rollback/background-demand/fault/slot interleavings, every
// cached plan must be bit-identical to a fresh DP run on the same
// ledger state — same feasibility, same placement entries, same link
// contributions.
func TestPlanCacheEquivalenceHomog(t *testing.T) {
	r := stats.NewRand(4242)
	hits := 0
	for trial := 0; trial < 40; trial++ {
		tp := randomTopology(r)
		led, err := NewLedger(tp, 0.05)
		if err != nil {
			t.Fatalf("trial %d: NewLedger: %v", trial, err)
		}
		cache := newPlanCache()
		// A small demand pool keyed repeatedly, so most plans hit warm
		// entries and exercise the incremental recompute path.
		demands := make([]stats.Normal, 3)
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
				N:      r.UniformInt(1, min(6, tp.TotalSlots())),
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
		hits += int(st.Hits)
		if st.Hits+st.Misses == 0 {
			t.Fatalf("trial %d: no plans counted", trial)
		}
	}
	if hits == 0 {
		t.Fatal("the interleavings never produced a cache hit; the test is not exercising reuse")
	}
}

// TestPlanCacheEquivalenceHetero is the heterogeneous-substring twin of
// the homogeneous equivalence fuzz.
func TestPlanCacheEquivalenceHetero(t *testing.T) {
	r := stats.NewRand(5353)
	hits := 0
	for trial := 0; trial < 30; trial++ {
		tp := randomTopology(r)
		led, err := NewLedger(tp, 0.05)
		if err != nil {
			t.Fatalf("trial %d: NewLedger: %v", trial, err)
		}
		cache := newPlanCache()
		// A fixed request pool: repeats share percentile-sorted tables.
		reqs := make([]Heterogeneous, 3)
		for i := range reqs {
			reqs[i] = randHetero(r, r.UniformInt(1, min(5, tp.TotalSlots())), 1, 10)
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
		hits += int(cache.snapshot().Hits)
	}
	if hits == 0 {
		t.Fatal("the interleavings never produced a cache hit")
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
