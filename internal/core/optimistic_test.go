package core

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/stats"
	"repro/internal/topology"
)

// mediumThreeTier: 2 aggregates x 3 racks x 3 machines x 4 slots (72 slots
// total); host links 25, rack uplinks 60, aggregate uplinks 120. Big
// enough that placements span subtrees and faults displace real work.
func mediumThreeTier() topology.Spec {
	rack := func() topology.Spec {
		return topology.Spec{UpCap: 60, Children: []topology.Spec{
			{UpCap: 25, Slots: 4},
			{UpCap: 25, Slots: 4},
			{UpCap: 25, Slots: 4},
		}}
	}
	agg := func() topology.Spec {
		return topology.Spec{UpCap: 120, Children: []topology.Spec{rack(), rack(), rack()}}
	}
	return topology.Spec{Children: []topology.Spec{agg(), agg()}}
}

// traceOp is one step of a deterministic admission trace: an allocation
// request (homog or hetero) or a release of the idx-th oldest live job.
type traceOp struct {
	homog  *Homogeneous
	hetero *Heterogeneous
	relIdx int // release when neither request is set
}

// genTrace builds a deterministic mixed trace. The trace is generated once
// and then applied to each manager so both see byte-identical requests.
func genTrace(seed uint64, n int) []traceOp {
	r := stats.NewRand(seed)
	ops := make([]traceOp, 0, n)
	live := 0 // tracked optimistically; release ops mod by the real count
	for i := 0; i < n; i++ {
		switch k := r.IntN(10); {
		case k < 4:
			req, err := NewHomogeneous(2+r.IntN(6), stats.Normal{
				Mu:    r.UniformRange(3, 12),
				Sigma: r.UniformRange(0.5, 4),
			})
			if err != nil {
				panic(err)
			}
			ops = append(ops, traceOp{homog: &req})
			live++
		case k < 7:
			req := randHetero(r, 2+r.IntN(4), 3, 12)
			ops = append(ops, traceOp{hetero: &req})
			live++
		default:
			ops = append(ops, traceOp{relIdx: r.IntN(live + 1)})
			if live > 0 {
				live--
			}
		}
	}
	return ops
}

// traceResult captures everything observable about one op's outcome.
type traceResult struct {
	accepted   bool
	noCapacity bool
	errText    string
	job        JobID
	placement  string
}

// runTrace applies the trace to m, journaling into j, and returns the
// per-op outcomes. Releases address the idx-th oldest live job so two
// managers making identical decisions release identical jobs.
func runTrace(t *testing.T, m *Manager, ops []traceOp) []traceResult {
	t.Helper()
	var live []JobID
	results := make([]traceResult, 0, len(ops))
	for i, op := range ops {
		var res traceResult
		switch {
		case op.homog != nil:
			a, err := m.AllocateHomog(*op.homog)
			res = admissionResult(t, i, a, err)
			if a != nil {
				live = append(live, a.ID)
			}
		case op.hetero != nil:
			a, err := m.AllocateHetero(*op.hetero)
			res = admissionResult(t, i, a, err)
			if a != nil {
				live = append(live, a.ID)
			}
		default:
			if len(live) == 0 {
				res = traceResult{errText: "skip: no live jobs"}
				break
			}
			idx := op.relIdx % len(live)
			id := live[idx]
			if err := m.Release(id); err != nil {
				t.Fatalf("op %d: Release(%d): %v", i, id, err)
			}
			live = append(live[:idx], live[idx+1:]...)
			res = traceResult{accepted: true, job: id}
		}
		results = append(results, res)
	}
	return results
}

func admissionResult(t *testing.T, i int, a *Allocation, err error) traceResult {
	t.Helper()
	if err != nil {
		if !errors.Is(err, ErrNoCapacity) {
			t.Fatalf("op %d: unexpected admission error: %v", i, err)
		}
		return traceResult{noCapacity: true, errText: err.Error()}
	}
	return traceResult{accepted: true, job: a.ID, placement: a.Placement.String()}
}

// TestOptimisticMatchesLockedDifferential drives the same deterministic
// mixed trace through a default (optimistic) manager and a
// WithLockedAdmission manager. Decisions, placements, job IDs, journal
// streams, and final exported state must all match exactly — and replaying
// the optimistic journal into a fresh manager must land on that state too.
func TestOptimisticMatchesLockedDifferential(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		ops := genTrace(seed, 120)

		opt := newTestManager(t, mediumThreeTier(), 0.05)
		jOpt := &fakeJournal{}
		opt.SetJournal(jOpt)

		lck := newTestManager(t, mediumThreeTier(), 0.05, WithLockedAdmission())
		jLck := &fakeJournal{}
		lck.SetJournal(jLck)

		resOpt := runTrace(t, opt, ops)
		resLck := runTrace(t, lck, ops)

		for i := range ops {
			if !reflect.DeepEqual(resOpt[i], resLck[i]) {
				t.Fatalf("seed %d op %d diverged:\noptimistic %+v\nlocked     %+v",
					seed, i, resOpt[i], resLck[i])
			}
		}
		if !reflect.DeepEqual(jOpt.muts, jLck.muts) {
			for i := range jOpt.muts {
				if !reflect.DeepEqual(jOpt.muts[i], jLck.muts[i]) {
					t.Fatalf("seed %d: journal record %d differs:\noptimistic %+v\nlocked     %+v",
						seed, i, jOpt.muts[i], jLck.muts[i])
				}
			}
			t.Fatalf("seed %d: journal streams differ (%d vs %d records)",
				seed, len(jOpt.muts), len(jLck.muts))
		}
		if got, want := opt.ExportState(), lck.ExportState(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: final states differ:\noptimistic %+v\nlocked     %+v", seed, got, want)
		}

		// Replaying the optimistic journal must rebuild the same state.
		replayed := newTestManager(t, mediumThreeTier(), 0.05)
		for i, mut := range jOpt.muts {
			if err := replayed.Replay(mut); err != nil {
				t.Fatalf("seed %d: Replay(record %d, op %v): %v", seed, i, mut.Op, err)
			}
		}
		if got, want := replayed.ExportState(), lck.ExportState(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: replayed state differs from locked state", seed)
		}

		// The sequential trace never races, so no plan should have needed
		// the fallback; the locked manager must never take the fast path.
		if s := opt.AdmissionStats(); s.Fallbacks != 0 || s.Locked != 0 {
			t.Errorf("seed %d: optimistic manager used locked path: %+v", seed, s)
		}
		if s := lck.AdmissionStats(); s.FastPath != 0 || s.Revalidated != 0 {
			t.Errorf("seed %d: locked manager used optimistic path: %+v", seed, s)
		}
	}
}

// TestOptimisticStormInvariants hammers one manager with concurrent
// optimistic admissions, releases, fault injection/restore, and repairs
// (run under -race by scripts/check.sh), then checks ledger invariants:
// the exported state revalidates, occupancy stays bounded when no repair
// ran degraded, and releasing everything returns the ledger to empty.
func TestOptimisticStormInvariants(t *testing.T) {
	m := newTestManager(t, mediumThreeTier(), 0.05)
	topo := m.Topology()

	// live tracks admitted jobs not yet released. A repair that cannot
	// re-place a displaced job removes it (RepairFailed), so the repairer
	// records those jobs in gone and drops them from live; pushJob skips
	// a job whose repair failed before its admission was recorded.
	var (
		mu       sync.Mutex
		live     []JobID
		gone     = map[JobID]bool{}
		admitted int64
	)
	pushJob := func(id JobID) {
		mu.Lock()
		if !gone[id] {
			live = append(live, id)
		}
		admitted++
		mu.Unlock()
	}
	dropFailed := func(results []RepairResult) {
		mu.Lock()
		defer mu.Unlock()
		for _, res := range results {
			if res.Outcome != RepairFailed {
				continue
			}
			gone[res.Job] = true
			for i, id := range live {
				if id == res.Job {
					live = append(live[:i], live[i+1:]...)
					break
				}
			}
		}
	}
	popJob := func(r *rand.Rand) (JobID, bool) {
		mu.Lock()
		defer mu.Unlock()
		if len(live) == 0 {
			return 0, false
		}
		idx := r.Intn(len(live))
		id := live[idx]
		live = append(live[:idx], live[idx+1:]...)
		return id, true
	}

	const (
		allocators   = 4
		grouped      = 2
		releasers    = 2
		opsPerWorker = 60
	)
	var wg sync.WaitGroup

	for g := 0; g < allocators; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := stats.NewRand(uint64(1000 + g))
			for i := 0; i < opsPerWorker; i++ {
				var (
					a   *Allocation
					err error
				)
				if i%2 == 0 {
					var req Homogeneous
					req, err = NewHomogeneous(2+r.IntN(5), stats.Normal{
						Mu: r.UniformRange(3, 10), Sigma: r.UniformRange(0.5, 3)})
					if err == nil {
						a, err = m.AllocateHomog(req)
					}
				} else {
					a, err = m.AllocateHetero(randHetero(r, 2+r.IntN(3), 3, 10))
				}
				if err != nil {
					if !errors.Is(err, ErrNoCapacity) {
						t.Errorf("allocator %d: %v", g, err)
						return
					}
					continue
				}
				pushJob(a.ID)
			}
		}(g)
	}

	// Grouped allocators: the same request mix in bursts of three
	// back-to-back admissions, so bursts race single admissions,
	// releases, faults, and repairs — every commit path invalidates
	// plan-cache entries mid-plan.
	for g := 0; g < grouped; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := stats.NewRand(uint64(3000 + g))
			for i := 0; i < opsPerWorker/4; i++ {
				for k := 0; k < 3; k++ {
					var (
						a   *Allocation
						err error
					)
					if (i+k)%2 == 0 {
						var req Homogeneous
						req, err = NewHomogeneous(2+r.IntN(5), stats.Normal{
							Mu: r.UniformRange(3, 10), Sigma: r.UniformRange(0.5, 3)})
						if err != nil {
							t.Errorf("grouped allocator %d: %v", g, err)
							return
						}
						a, err = m.AllocateHomog(req)
					} else {
						a, err = m.AllocateHetero(randHetero(r, 2+r.IntN(3), 3, 10))
					}
					if err != nil {
						if !errors.Is(err, ErrNoCapacity) {
							t.Errorf("grouped allocator %d: %v", g, err)
							return
						}
						continue
					}
					pushJob(a.ID)
				}
			}
		}(g)
	}

	for g := 0; g < releasers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(2000 + g)))
			for i := 0; i < opsPerWorker; i++ {
				id, ok := popJob(r)
				if !ok {
					continue
				}
				if err := m.Release(id); err != nil && !errors.Is(err, ErrUnknownJob) {
					t.Errorf("releaser %d: Release(%d): %v", g, id, err)
					return
				}
			}
		}(g)
	}

	// Fault injector: fail and restore machines and rack uplinks in
	// matched pairs so the storm ends with every element healthy.
	wg.Add(1)
	go func() {
		defer wg.Done()
		machines := topo.Machines()
		for i := 0; i < 20; i++ {
			mach := machines[i%len(machines)]
			if _, err := m.FailMachine(mach); err != nil {
				t.Errorf("FailMachine(%d): %v", mach, err)
				return
			}
			if err := m.RestoreMachine(mach); err != nil {
				t.Errorf("RestoreMachine(%d): %v", mach, err)
				return
			}
			link := topology.LinkID(topo.Node(mach).Parent)
			if _, err := m.FailLink(link); err != nil {
				t.Errorf("FailLink(%d): %v", link, err)
				return
			}
			if err := m.RestoreLink(link); err != nil {
				t.Errorf("RestoreLink(%d): %v", link, err)
				return
			}
		}
	}()

	// Repairer: keep re-placing displaced jobs while faults churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 15; i++ {
			results, err := m.RepairAll()
			if err != nil {
				t.Errorf("RepairAll: %v", err)
				return
			}
			dropFailed(results)
		}
	}()

	wg.Wait()
	if t.Failed() {
		return
	}

	// All faults were restored in matched pairs; one final repair pass
	// re-places anything still displaced from the last fault window.
	results, err := m.RepairAll()
	if err != nil {
		t.Fatalf("final RepairAll: %v", err)
	}
	dropFailed(results)
	fs := m.FailureStats()
	if fs.MachinesDown != 0 || fs.LinksDown != 0 {
		t.Fatalf("faults not restored after storm: %+v", fs)
	}

	// Invariant: the exported state must pass full construction-time
	// validation (slot accounting, placement consistency) round-trip.
	st := m.ExportState()
	if _, err := NewManagerFromState(topo, m.Epsilon(), st); err != nil {
		t.Fatalf("exported state failed revalidation: %v", err)
	}

	// Invariant: the admission guarantee O_L < 1 holds on every link —
	// unless a degraded repair (which relaxes the bound by design) ran.
	if fs.DegradedRepairs == 0 {
		if occ := m.MaxOccupancy(); occ >= 1 {
			t.Fatalf("max occupancy %v >= 1 with no degraded repairs", occ)
		}
	}

	// Every successful admission went through exactly one pipeline arm.
	adm := m.AdmissionStats()
	mu.Lock()
	t.Logf("storm: admitted=%d live=%d stats=%+v degraded=%d",
		admitted, len(live), adm, fs.DegradedRepairs)
	mu.Unlock()
	if got := adm.FastPath + adm.Revalidated + adm.Locked; got != admitted {
		t.Errorf("pipeline counters sum to %d, want %d admissions", got, admitted)
	}

	// Releasing every remaining job must return the ledger to empty:
	// all slots free, zero occupancy everywhere.
	mu.Lock()
	rest := append([]JobID(nil), live...)
	mu.Unlock()
	for _, id := range rest {
		if err := m.Release(id); err != nil {
			t.Fatalf("final Release(%d): %v", id, err)
		}
	}
	if got := m.Running(); got != 0 {
		t.Fatalf("Running after full release = %d, want 0", got)
	}
	if got, want := m.FreeSlots(), topo.TotalSlots(); got != want {
		t.Fatalf("FreeSlots after full release = %d, want %d", got, want)
	}
	// Tolerance is looser than the single-job tests': hundreds of add/
	// release rounds accumulate float error on the per-link aggregates.
	if occ := m.MaxOccupancy(); occ > 1e-6 {
		t.Fatalf("MaxOccupancy after full release = %v, want ~0", occ)
	}
}
