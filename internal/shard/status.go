package shard

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/topology"
)

// MergedState reassembles the unsharded manager state from the pod-local
// shards. The pods partition every link and machine, so per-node fields
// are copied verbatim from the owner pod, never summed; cross-pod jobs —
// whose per-pod records are sub-frames, not the original request — are
// reconstructed from the router's intent-journaled original mutations.
// In strict mode the result is bit-identical to the shadow's ExportState
// (asserted after every mutating op under -tags invariants).
func (r *Router) MergedState() *core.ManagerState {
	states := make([]*core.ManagerState, len(r.mgrs))
	for i, m := range r.mgrs {
		states[i] = m.ExportState()
	}
	r.tabMu.Lock()
	cross := make(map[core.JobID]core.Mutation, len(r.crossMut))
	for id, mut := range r.crossMut {
		cross[id] = mut
	}
	idem := r.idem
	var idemCopy map[string]core.IdemState
	if len(idem) > 0 {
		idemCopy = make(map[string]core.IdemState, len(idem))
		for k, v := range idem {
			idemCopy[k] = v
		}
	}
	r.tabMu.Unlock()

	n := r.topo.Len()
	st := &core.ManagerState{
		Links: make([]core.LinkRecord, n),
		Used:  make([]int, n),
		Idem:  idemCopy,
	}
	machinesDown := make(map[int]bool)
	linksDown := make(map[int]bool)
	for i, ps := range states {
		if ps.NextID > st.NextID {
			st.NextID = ps.NextID
		}
		for v := 0; v < n; v++ {
			if r.pods.Of(topology.NodeID(v)) == i {
				st.Links[v] = ps.Links[v]
				st.Used[v] = ps.Used[v]
			}
		}
		for _, js := range ps.Jobs {
			if _, isCross := cross[core.JobID(js.ID)]; isCross {
				continue // sub-frame; the original mutation rebuilds it below
			}
			st.Jobs = append(st.Jobs, js)
		}
		for _, mc := range ps.MachinesDown {
			machinesDown[mc] = true
		}
		for _, l := range ps.LinksDown {
			linksDown[l] = true
		}
		st.Counters.MachineFailures += ps.Counters.MachineFailures
		st.Counters.MachineRestores += ps.Counters.MachineRestores
		st.Counters.LinkFailures += ps.Counters.LinkFailures
		st.Counters.LinkRestores += ps.Counters.LinkRestores
		st.Counters.NoopRepairs += ps.Counters.NoopRepairs
		st.Counters.MovedRepairs += ps.Counters.MovedRepairs
		st.Counters.DegradedRepairs += ps.Counters.DegradedRepairs
		st.Counters.FailedRepairs += ps.Counters.FailedRepairs
	}

	for _, mut := range cross {
		js := core.JobState{
			ID:        int64(mut.Job),
			Placement: core.ExportPlacement(mut.Placement),
			Contribs:  append([]core.Contribution(nil), mut.Contribs...),
		}
		sort.Slice(js.Contribs, func(a, b int) bool { return js.Contribs[a].Link < js.Contribs[b].Link })
		if mut.Homog != nil {
			h := core.HomogSpecOf(*mut.Homog)
			js.Homog = &h
		}
		if mut.Hetero != nil {
			js.Hetero = core.HeteroSpecOf(*mut.Hetero)
		}
		// Cross-pod jobs are never degraded: degradation only comes from
		// repairs, and repairs are pod-scoped (ErrCrossPodRepair).
		st.Jobs = append(st.Jobs, js)
	}
	sort.Slice(st.Jobs, func(a, b int) bool { return st.Jobs[a].ID < st.Jobs[b].ID })

	// Down-lists keep the export convention: topology iteration order.
	for _, mc := range r.topo.Machines() {
		if machinesDown[int(mc)] {
			st.MachinesDown = append(st.MachinesDown, int(mc))
		}
	}
	for _, l := range r.topo.Links() {
		if linksDown[int(l)] {
			st.LinksDown = append(st.LinksDown, int(l))
		}
	}
	return st
}

// CheckCoreLinks verifies the cross-pod reservation accounting: every
// core link's ledger record (held by its owner pod) must equal the sum
// of the cross-pod jobs' contributions on it — single-pod jobs never
// touch core links (their crossing demand on the enclosing uplink is
// zero, and zero-demand links are omitted from contributions), so any
// residue is a two-phase leak: an aborted admission that left a
// sub-frame behind, or a release that missed a pod. Float sums tolerate
// reassociation noise (1e-6); the stochastic count must match exactly.
func (r *Router) CheckCoreLinks() error {
	want := make(map[topology.LinkID]core.LinkRecord)
	r.tabMu.Lock()
	for _, mut := range r.crossMut {
		for _, c := range mut.Contribs {
			rec := want[c.Link]
			if c.Det {
				rec.Det += c.Mu
			} else {
				rec.SumMu += c.Mu
				rec.SumVar += c.Sigma * c.Sigma
				rec.Stochastic++
			}
			want[c.Link] = rec
		}
	}
	r.tabMu.Unlock()

	const tol = 1e-6
	for i, l := range r.pods.CoreLinks() {
		got := r.mgrs[i].ExportState().Links[l]
		w := want[l]
		if got.Stochastic != w.Stochastic ||
			math.Abs(got.Det-w.Det) > tol ||
			math.Abs(got.SumMu-w.SumMu) > tol ||
			math.Abs(got.SumVar-w.SumVar) > tol {
			return fmt.Errorf("shard: core link %d leaked: ledger %+v, cross-pod contributions %+v", l, got, w)
		}
	}
	return nil
}

// Running returns the number of admitted, unreleased jobs (cross-pod
// jobs counted once).
func (r *Router) Running() int {
	r.tabMu.Lock()
	defer r.tabMu.Unlock()
	return len(r.jobPods)
}

// CrossPodJobs returns the number of live jobs spanning pods.
func (r *Router) CrossPodJobs() int {
	r.tabMu.Lock()
	defer r.tabMu.Unlock()
	return len(r.crossMut)
}

// FreeSlots returns the unoccupied VM slots across all pods.
func (r *Router) FreeSlots() int {
	total := 0
	for i, m := range r.mgrs {
		total += m.FreeSlotsSubtree(r.pods.Root(i))
	}
	return total
}

// MaxOccupancy returns the paper's Eq. 6 max link occupancy over the
// whole tree. Every link is owned by exactly one pod and foreign links
// sit at zero in a pod's ledger, so the global max is the max over pods.
func (r *Router) MaxOccupancy() float64 {
	max := 0.0
	for _, m := range r.mgrs {
		if o := m.MaxOccupancy(); o > max {
			max = o
		}
	}
	return max
}

// LinkLoads returns every link's load in link order, each taken from its
// owner pod's ledger.
func (r *Router) LinkLoads() []core.LinkLoad {
	perPod := make([][]core.LinkLoad, len(r.mgrs))
	for i, m := range r.mgrs {
		perPod[i] = m.LinkLoads()
	}
	links := r.topo.Links()
	out := make([]core.LinkLoad, len(links))
	for idx, l := range links {
		out[idx] = perPod[maxInt(r.pods.OfLink(l), 0)][idx]
	}
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// mergeLatency folds b into a (Last is best-effort: the later-merged
// non-empty summary wins; summaries carry no timestamps).
func mergeLatency(a, b metrics.LatencySummary) metrics.LatencySummary {
	if b.Count == 0 {
		return a
	}
	if a.Count == 0 {
		return b
	}
	a.Total += b.Total
	a.Count += b.Count
	if b.Min < a.Min {
		a.Min = b.Min
	}
	if b.Max > a.Max {
		a.Max = b.Max
	}
	a.Last = b.Last
	return a
}

// AdmissionStats returns the merged admission pipeline counters. In
// strict mode planning happens on the shadow, so its stats are the
// truth, with Locked counting the router's serialized commits; in fast
// mode the pods plan independently and their counters sum.
func (r *Router) AdmissionStats() core.AdmissionStats {
	if r.mode == Strict {
		st := r.shadow.AdmissionStats()
		st.Locked = r.strict.Load()
		return st
	}
	var out core.AdmissionStats
	for _, m := range r.mgrs {
		st := m.AdmissionStats()
		out.FastPath += st.FastPath
		out.Revalidated += st.Revalidated
		out.Conflicts += st.Conflicts
		out.Retries += st.Retries
		out.Fallbacks += st.Fallbacks
		out.Locked += st.Locked
		out.Plan = mergeLatency(out.Plan, st.Plan)
		out.PlanCacheHits += st.PlanCacheHits
		out.PlanCacheMisses += st.PlanCacheMisses
		out.PlanCacheInvalidations += st.PlanCacheInvalidations
		out.PlanCacheEvictions += st.PlanCacheEvictions
	}
	return out
}

// FailureStats returns the merged fault and repair counters. Pods own
// disjoint machine and link sets, so the sums are exact.
func (r *Router) FailureStats() core.FailureStats {
	var out core.FailureStats
	for _, m := range r.mgrs {
		st := m.FailureStats()
		out.MachineFailures += st.MachineFailures
		out.MachineRestores += st.MachineRestores
		out.LinkFailures += st.LinkFailures
		out.LinkRestores += st.LinkRestores
		out.NoopRepairs += st.NoopRepairs
		out.MovedRepairs += st.MovedRepairs
		out.DegradedRepairs += st.DegradedRepairs
		out.FailedRepairs += st.FailedRepairs
		out.MachinesDown += st.MachinesDown
		out.LinksDown += st.LinksDown
		out.DegradedJobs += st.DegradedJobs
		out.RepairLatency = mergeLatency(out.RepairLatency, st.RepairLatency)
	}
	return out
}

// ShardStatus is one pod's slice of the /v1/status surface.
type ShardStatus struct {
	Shard        int                 `json:"shard"`
	Root         int                 `json:"root"`
	Jobs         int                 `json:"jobs"`
	FreeSlots    int                 `json:"free_slots"`
	MaxOccupancy float64             `json:"max_occupancy"`
	Admission    core.AdmissionStats `json:"admission"`
}

// ShardStatuses returns the per-pod status sections.
func (r *Router) ShardStatuses() []ShardStatus {
	out := make([]ShardStatus, len(r.mgrs))
	for i, m := range r.mgrs {
		out[i] = ShardStatus{
			Shard:        i,
			Root:         int(r.pods.Root(i)),
			Jobs:         m.Running(),
			FreeSlots:    m.FreeSlotsSubtree(r.pods.Root(i)),
			MaxOccupancy: m.MaxOccupancy(),
			Admission:    m.AdmissionStats(),
		}
	}
	return out
}
