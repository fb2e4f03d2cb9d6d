package core

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"repro/internal/stats"
	"repro/internal/topology"
)

// MaxExactHeteroVMs bounds the exact heterogeneous allocator: beyond this
// the O(2^N) allocable VM sets make it infeasible (paper Section V-B), and
// AllocateHeteroExact returns an error directing callers to the heuristic.
const MaxExactHeteroVMs = 14

// orderByPercentile returns the request's VM indices sorted ascending by
// the 95th percentile of their demand, the ordering the paper prescribes
// for the substring heuristic and first fit, together with the demands in
// that order.
func orderByPercentile(req Heterogeneous) (order []int, sorted []stats.Normal) {
	order = make([]int, req.N())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return req.Demands[order[a]].Quantile(Percentile95) < req.Demands[order[b]].Quantile(Percentile95)
	})
	sorted = make([]stats.Normal, len(order))
	for pos, idx := range order {
		sorted[pos] = req.Demands[idx]
	}
	return order, sorted
}

// substrRecord is the per-vertex state of the substring heuristic (paper
// Section V-B): the allocable VM set restricted to contiguous substrings
// [a, b) of the percentile-sorted VM sequence, indexed by (length, a).
// All slices are arena-backed and only valid for one allocation call.
type substrRecord struct {
	maxLen int
	n      int
	optIn  []float64 // min over placements of max in-subtree occupancy
	upOcc  []float64 // uplink occupancy per substring (non-root only)
	alloc  []bool
	choice [][]int32 // choice[i][idx]: split point k — child i received [k, b)
}

func (r *substrRecord) idx(length, a int) int { return length*(r.n+1) + a }

// AllocateHeteroSubstring runs the paper's polynomial-time heterogeneous
// heuristic: VMs are sorted by 95th-percentile demand and allocable VM sets
// are restricted to contiguous substrings of the sorted sequence, searched
// bottom-up with the same lowest-subtree, min-max-occupancy dynamic program
// as the homogeneous algorithm. It returns the placement and contributions
// without committing them.
func AllocateHeteroSubstring(led *Ledger, req Heterogeneous, policy Policy) (Placement, []linkDemand, error) {
	return AllocateHeteroSubstringWorkers(led, req, policy, 0)
}

// AllocateHeteroSubstringWorkers is AllocateHeteroSubstring with explicit
// control over DP parallelism, with the same semantics as
// AllocateHomogWorkers: 1 forces sequential, > 1 forces that many level
// workers, <= 0 picks automatically. Both paths produce bit-identical
// placements.
func AllocateHeteroSubstringWorkers(led *Ledger, req Heterogeneous, policy Policy, workers int) (Placement, []linkDemand, error) {
	return allocateHeteroSubstringScoped(led, req, policy, workers, nil)
}

// allocateHeteroSubstringScoped is the scope-aware driver behind
// AllocateHeteroSubstringWorkers; see allocateHomogScoped.
func allocateHeteroSubstringScoped(led *Ledger, req Heterogeneous, policy Policy, workers int, scope *planScope) (Placement, []linkDemand, error) {
	if err := req.Validate(); err != nil {
		return Placement{}, nil, err
	}
	topo := led.Topology()
	order, sorted := orderByPercentile(req)
	prefix := newDemandPrefix(sorted)
	n := req.N()

	w := resolveWorkers(workers, topo.Len(), n)
	scr := getSubstrScratch(w, topo.Len())
	defer putSubstrScratch(scr)
	records := scr.records

	for level := 0; level <= scopeHeight(topo, scope); level++ {
		verts := scopeAtLevel(topo, scope, level)
		forEachVertex(verts, w, func(slot int, v topology.NodeID) {
			substrCompute(led, topo, v, n, prefix, records, policy, scr.arenas[slot])
		})
		var (
			best    topology.NodeID = topology.None
			bestVal                 = infeasible
		)
		for _, v := range verts {
			rec := &records[v]
			if rec.maxLen < n {
				continue
			}
			full := rec.idx(n, 0)
			if rec.optIn[full] == infeasible {
				continue
			}
			val := rec.optIn[full]
			if policy == FirstFeasible && best != topology.None {
				continue
			}
			if val < bestVal || best == topology.None {
				best, bestVal = v, val
			}
		}
		if best != topology.None {
			var p Placement
			substrBuild(topo, records, order, best, 0, n, &p)
			p.normalize()
			return p, heteroContributions(topo, req, &p), nil
		}
	}
	return Placement{}, nil, fmt.Errorf("%w: %v", ErrNoCapacity, req)
}

// substrCompute fills the substring DP record for vertex v. Like
// homogCompute it only reads the ledger and the children's finalized
// records, so one level's vertices can run concurrently.
func substrCompute(led *Ledger, topo *topology.Topology, v topology.NodeID, n int,
	prefix *demandPrefix, records []substrRecord, policy Policy, ar *arena) {

	node := topo.Node(v)
	rec := &records[v]
	*rec = substrRecord{n: n}
	if node.IsMachine() {
		rec.maxLen = min(n, led.FreeSlots(v))
		rec.optIn = ar.f64.alloc((rec.maxLen + 1) * (n + 1))
		// A machine can hold any substring short enough to fit its free
		// slots; VMs sharing a machine use no links.
	} else {
		capV := 0
		for _, c := range node.Children {
			capV += records[c].maxLen
		}
		rec.maxLen = min(n, capV)
		size := (rec.maxLen + 1) * (n + 1)
		acc := ar.f64.alloc(size)
		next := ar.f64.alloc(size)
		for i := range acc {
			acc[i] = infeasible
		}
		for a := 0; a <= n; a++ {
			acc[rec.idx(0, a)] = 0 // empty substring anchored anywhere
		}
		rec.choice = ar.s32.alloc(len(node.Children))
		reach := 0
		for i, c := range node.Children {
			child := &records[c]
			pick := ar.i32.alloc(size)
			for j := range next {
				next[j] = infeasible
				pick[j] = -1
			}
			for aLen := 0; aLen <= reach; aLen++ {
				for a := 0; a+aLen <= n; a++ {
					cur := acc[rec.idx(aLen, a)]
					if cur == infeasible {
						continue
					}
					k := a + aLen // child i continues the substring at k
					maxChildLen := min(child.maxLen, min(rec.maxLen-aLen, n-k))
					for cl := 0; cl <= maxChildLen; cl++ {
						cIdx := child.idx(cl, k)
						if !child.alloc[cIdx] {
							continue
						}
						tIdx := rec.idx(aLen+cl, a)
						val := 0.0
						if policy == MinMaxOccupancy {
							val = max(cur, max(child.optIn[cIdx], child.upOcc[cIdx]))
						} else if next[tIdx] != infeasible {
							continue
						}
						if val < next[tIdx] {
							next[tIdx] = val
							pick[tIdx] = int32(k)
						}
					}
				}
			}
			acc, next = next, acc
			rec.choice[i] = pick
			reach = min(rec.maxLen, reach+child.maxLen)
		}
		rec.optIn = acc
	}

	rec.alloc = ar.bl.alloc(len(rec.optIn))
	isRoot := node.Parent == topology.None
	if !isRoot {
		rec.upOcc = ar.f64.alloc(len(rec.optIn))
	}
	for length := 0; length <= rec.maxLen; length++ {
		for a := 0; a+length <= n; a++ {
			i := rec.idx(length, a)
			if rec.optIn[i] == infeasible {
				continue
			}
			if isRoot {
				rec.alloc[i] = true
				continue
			}
			rec.upOcc[i] = led.OccupancyWith(v, prefix.crossing(a, a+length))
			rec.alloc[i] = rec.upOcc[i] < 1
		}
	}
}

// substrBuild reconstructs the substring assignment [a, b) at vertex v.
func substrBuild(topo *topology.Topology, records []substrRecord, order []int,
	v topology.NodeID, a, b int, p *Placement) {
	if a == b {
		return
	}
	node := topo.Node(v)
	if node.IsMachine() {
		vms := make([]int, 0, b-a)
		for pos := a; pos < b; pos++ {
			vms = append(vms, order[pos])
		}
		p.Entries = append(p.Entries, PlacementEntry{Machine: v, Count: b - a, VMs: vms})
		return
	}
	rec := &records[v]
	for i := len(node.Children) - 1; i >= 0; i-- {
		k := int(rec.choice[i][rec.idx(b-a, a)])
		if k < 0 {
			panic(fmt.Sprintf("core: no recorded split for child %d of node %d over [%d,%d)", i, v, a, b))
		}
		substrBuild(topo, records, order, node.Children[i], k, b, p)
		b = k
	}
	if b != a {
		panic(fmt.Sprintf("core: reconstruction at node %d left [%d,%d) unassigned", v, a, b))
	}
}

// heteroMaskState is the exact DP's per-vertex state: for each subset of
// the request's VMs that can be placed in the subtree, the optimal max
// in-subtree occupancy and the per-child submask split.
type heteroMaskState struct {
	opt   float64
	split []uint32 // per-child submask (internal vertices only)
}

// AllocateHeteroExact runs the paper's exact (exponential) heterogeneous
// dynamic program, which maintains every allocable VM subset per subtree.
// It is only practical for small requests (N <= MaxExactHeteroVMs) and
// exists as the optimality reference for the substring heuristic.
func AllocateHeteroExact(led *Ledger, req Heterogeneous) (Placement, []linkDemand, error) {
	if err := req.Validate(); err != nil {
		return Placement{}, nil, err
	}
	n := req.N()
	if n > MaxExactHeteroVMs {
		return Placement{}, nil, fmt.Errorf("%w: exact allocator supports at most %d VMs, got %d",
			ErrBadRequest, MaxExactHeteroVMs, n)
	}
	topo := led.Topology()

	// Aggregate demand of every subset, built by peeling the lowest bit.
	size := 1 << n
	aggMu := make([]float64, size)
	aggVar := make([]float64, size)
	for mask := 1; mask < size; mask++ {
		low := mask & -mask
		rest := mask ^ low
		d := req.Demands[bits.TrailingZeros32(uint32(mask))]
		aggMu[mask] = aggMu[rest] + d.Mu
		aggVar[mask] = aggVar[rest] + d.Var()
	}
	fullMask := uint32(size - 1)
	crossing := func(mask uint32) stats.Normal {
		inside := stats.Normal{Mu: aggMu[mask], Sigma: sqrtNonNeg(aggVar[mask])}
		out := fullMask &^ mask
		outside := stats.Normal{Mu: aggMu[out], Sigma: sqrtNonNeg(aggVar[out])}
		return CrossingSets(inside, outside)
	}

	records := make([]map[uint32]heteroMaskState, topo.Len())
	for level := 0; level <= topo.Height(); level++ {
		var (
			best    topology.NodeID = topology.None
			bestVal                 = infeasible
		)
		for _, v := range topo.AtLevel(level) {
			rec := heteroExactCompute(led, topo, v, n, crossing, records)
			records[v] = rec
			if st, ok := rec[fullMask]; ok {
				if st.opt < bestVal || best == topology.None {
					best, bestVal = v, st.opt
				}
			}
		}
		if best != topology.None {
			var p Placement
			heteroExactBuild(topo, records, best, fullMask, &p)
			p.normalize()
			return p, heteroContributions(topo, req, &p), nil
		}
	}
	return Placement{}, nil, fmt.Errorf("%w: %v", ErrNoCapacity, req)
}

// heteroExactCompute fills the exact-DP record for vertex v: the map from
// allocable subsets (including the uplink constraint) to their state.
func heteroExactCompute(led *Ledger, topo *topology.Topology, v topology.NodeID, n int,
	crossing func(uint32) stats.Normal, records []map[uint32]heteroMaskState) map[uint32]heteroMaskState {

	node := topo.Node(v)
	inSubtree := make(map[uint32]heteroMaskState)
	if node.IsMachine() {
		free := led.FreeSlots(v)
		for mask := uint32(0); mask < 1<<n; mask++ {
			if bits.OnesCount32(mask) <= free {
				inSubtree[mask] = heteroMaskState{}
			}
		}
	} else {
		acc := map[uint32]heteroMaskState{0: {split: nil}}
		for _, c := range node.Children {
			// The child's record is already filtered to its allocable set
			// (its uplink constraint applied); the uplink occupancy is
			// recomputed here only because it participates in the min-max
			// objective.
			child := records[c]
			childUp := make(map[uint32]float64, len(child))
			for mask, st := range child {
				childUp[mask] = math.Max(st.opt, led.OccupancyWith(c, crossing(mask)))
			}
			next := make(map[uint32]heteroMaskState)
			for accMask, accSt := range acc {
				for childMask, up := range childUp {
					if accMask&childMask != 0 {
						continue
					}
					union := accMask | childMask
					val := math.Max(accSt.opt, up)
					if cur, ok := next[union]; !ok || val < cur.opt {
						split := make([]uint32, len(accSt.split)+1)
						copy(split, accSt.split)
						split[len(accSt.split)] = childMask
						next[union] = heteroMaskState{opt: val, split: split}
					}
				}
			}
			acc = next
		}
		inSubtree = acc
	}

	// Apply this vertex's own uplink constraint to form the allocable set.
	// (The root keeps every placeable subset.)
	if node.Parent == topology.None {
		return inSubtree
	}
	allocable := make(map[uint32]heteroMaskState, len(inSubtree))
	for mask, st := range inSubtree {
		if mask == 0 || led.OccupancyWith(v, crossing(mask)) < 1 {
			allocable[mask] = st
		}
	}
	return allocable
}

// heteroExactBuild reconstructs the exact DP's placement.
func heteroExactBuild(topo *topology.Topology, records []map[uint32]heteroMaskState,
	v topology.NodeID, mask uint32, p *Placement) {
	if mask == 0 {
		return
	}
	node := topo.Node(v)
	if node.IsMachine() {
		var vms []int
		for m := mask; m != 0; m &= m - 1 {
			vms = append(vms, bits.TrailingZeros32(m))
		}
		p.Entries = append(p.Entries, PlacementEntry{Machine: v, Count: len(vms), VMs: vms})
		return
	}
	st := records[v][mask]
	for i, childMask := range st.split {
		heteroExactBuild(topo, records, node.Children[i], childMask, p)
	}
}
