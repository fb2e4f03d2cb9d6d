package core

import (
	"fmt"
	"math"

	"repro/internal/stats"
	"repro/internal/topology"
)

// Policy selects how the allocators break ties between multiple valid
// placements inside the chosen subtree.
type Policy int

const (
	// MinMaxOccupancy is the paper's SVC algorithm: among all valid
	// placements in the lowest feasible subtree, pick the one minimizing
	// the maximum bandwidth occupancy ratio of the subtree's links
	// (Algorithm 1, recurrences Eq. 11-12).
	MinMaxOccupancy Policy = iota + 1
	// FirstFeasible is the adapted TIVC baseline (paper Section VI-B3):
	// the same validity condition and lowest-subtree search, but no
	// occupancy optimization — the first valid VM split found is kept.
	FirstFeasible
	// GreedyPack mimics Oktopus's greedy allocation: within the lowest
	// feasible subtree, pack as many VMs as possible into each child in
	// turn (maximum locality), again without occupancy optimization.
	GreedyPack
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case MinMaxOccupancy:
		return "min-max-occupancy"
	case FirstFeasible:
		return "first-feasible"
	case GreedyPack:
		return "greedy-pack"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// infeasible marks unreachable DP states.
var infeasible = math.Inf(1)

// homogRecord is the per-vertex state of Algorithm 1: the allocable VM set
// (paper Definition 1) with, for each allocable count, the optimal max
// occupancy of the links strictly inside the subtree and the per-child
// split choices needed to reconstruct the allocation. All slices are
// arena-backed and only valid for the duration of one allocation call.
type homogRecord struct {
	cap    int       // largest VM count worth considering in this subtree
	optIn  []float64 // optIn[e]: min over placements of max in-subtree occupancy; infeasible if e not placeable
	upOcc  []float64 // upOcc[e]: occupancy of this vertex's uplink with e VMs inside (unused for the root)
	alloc  []bool    // alloc[e]: e is in the allocable VM set (subtree + uplink constraints)
	choice [][]int32 // choice[i][s]: VMs given to child i when the first i+1 children hold s (internal vertices only)
}

// AllocateHomog runs the paper's homogeneous VM allocation over the current
// ledger state and returns the placement and its per-link crossing-demand
// contributions without committing them. It returns ErrNoCapacity when no
// subtree can host the request. Worker count is chosen automatically; see
// AllocateHomogWorkers.
func AllocateHomog(led *Ledger, req Homogeneous, policy Policy) (Placement, []linkDemand, error) {
	return AllocateHomogWorkers(led, req, policy, 0)
}

// AllocateHomogWorkers is AllocateHomog with explicit control over DP
// parallelism: workers == 1 forces the sequential path, workers > 1 runs
// each tree level's vertex records on that many goroutines, and
// workers <= 0 picks automatically (GOMAXPROCS when the topology and
// request are large enough to amortize the fan-out). Both paths produce
// bit-identical placements.
func AllocateHomogWorkers(led *Ledger, req Homogeneous, policy Policy, workers int) (Placement, []linkDemand, error) {
	return allocateHomogScoped(led, req, policy, workers, nil)
}

// allocateHomogScoped is the scope-aware driver behind AllocateHomogWorkers:
// with a non-nil scope the level loop, vertex records and selection scan are
// confined to the scope's subtree (see planScope), so a pod-local manager
// never places VMs outside its pod.
func allocateHomogScoped(led *Ledger, req Homogeneous, policy Policy, workers int, scope *planScope) (Placement, []linkDemand, error) {
	if err := req.Validate(); err != nil {
		return Placement{}, nil, err
	}
	topo := led.Topology()

	// Crossing-demand table: crossing[m] is the demand the request places
	// on a link with m of its N VMs below (symmetric in m <-> N-m).
	// Memoized across calls — Headroom and repeated identical requests
	// skip recomputing Clark's formulas entirely.
	crossing := crossingTableHomog(req.Demand, req.N)

	w := resolveWorkers(workers, topo.Len(), req.N)
	scr := getHomogScratch(w, topo.Len())
	defer putHomogScratch(scr)
	records := scr.records

	for level := 0; level <= scopeHeight(topo, scope); level++ {
		verts := scopeAtLevel(topo, scope, level)
		// Fan a level out only when its records carry enough DP work to
		// amortize the goroutine handoff; small levels (and whole small
		// trees) run sequentially regardless of the worker count.
		lw := w
		if lw > 1 && homogLevelWork(topo, verts, records, req.N) < parallelMinLevelWork {
			lw = 1
		}
		forEachVertex(verts, lw, func(slot int, v topology.NodeID) {
			homogCompute(led, topo, v, req.N, crossing, records, policy, scr.arenas[slot])
		})
		// The selection scan stays sequential in topology order so
		// tie-breaking matches the sequential path exactly.
		var (
			best    topology.NodeID = topology.None
			bestVal                 = infeasible
		)
		for _, v := range verts {
			rec := &records[v]
			if rec.cap < req.N || rec.optIn[req.N] == infeasible {
				continue
			}
			val := rec.optIn[req.N]
			if policy == FirstFeasible && best != topology.None {
				continue // keep the first feasible subtree at this level
			}
			if val < bestVal || best == topology.None {
				best, bestVal = v, val
			}
		}
		if best != topology.None {
			var p Placement
			homogBuild(topo, records, best, req.N, &p)
			p.normalize()
			return p, homogContributions(topo, req, &p), nil
		}
	}
	return Placement{}, nil, fmt.Errorf("%w: %v", ErrNoCapacity, req)
}

// homogLevelWork estimates the inner DP iterations homogCompute will
// spend on one level's vertices: the machine base cases cost their slot
// scan, and an internal vertex costs the (h, e) pair loops of its child
// combine — Σ over children of (child cap + 1) × (vertex cap + 1). The
// children's records are already finalized when a level is visited, so
// the estimate uses the exact caps the loops will see. The walk itself is
// O(edges at this level), negligible against the DP it gates.
func homogLevelWork(topo *topology.Topology, verts []topology.NodeID, records []homogRecord, n int) int {
	work := 0
	for _, v := range verts {
		node := topo.Node(v)
		if node.IsMachine() {
			work += min(n, node.Slots) + 1
			continue
		}
		capV := 0
		for _, c := range node.Children {
			capV += records[c].cap
		}
		capV = min(n, capV)
		for _, c := range node.Children {
			work += (min(records[c].cap, capV) + 1) * (capV + 1)
		}
	}
	return work
}

// homogCompute fills the DP record for vertex v from its children's
// records (which the level-order traversal has already computed). It only
// reads the ledger and the children's finalized records, so vertices of
// one level can be computed concurrently, each worker with its own arena.
func homogCompute(led *Ledger, topo *topology.Topology, v topology.NodeID, n int,
	crossing []stats.Normal, records []homogRecord, policy Policy, ar *arena) {

	node := topo.Node(v)
	rec := &records[v]
	*rec = homogRecord{}
	if node.IsMachine() {
		// Leaf base case: any count up to the free slots fits, and VMs on
		// the same machine use no links, so the in-subtree occupancy is 0.
		rec.cap = min(n, led.FreeSlots(v))
		rec.optIn = ar.f64.alloc(rec.cap + 1)
	} else {
		// Combine children left to right: acc[s] is the optimal value of
		// placing s VMs in the first i child subtrees, where a child
		// taking e VMs costs max(child in-subtree optimum, child uplink
		// occupancy) — Eq. 11 specialized to the incremental tree T_v[i].
		// acc and next ping-pong between two arena buffers; only the
		// final one survives as rec.optIn.
		capV := 0
		for _, c := range node.Children {
			capV += records[c].cap
		}
		rec.cap = min(n, capV)
		acc := ar.f64.alloc(rec.cap + 1)
		next := ar.f64.alloc(rec.cap + 1)
		for s := 1; s <= rec.cap; s++ {
			acc[s] = infeasible
		}
		rec.choice = ar.s32.alloc(len(node.Children))
		reach := 0 // largest sum reachable with the children combined so far
		for i, c := range node.Children {
			child := &records[c]
			pick := ar.i32.alloc(rec.cap + 1)
			for s := range next {
				next[s] = infeasible
				pick[s] = -1
			}
			for h := 0; h <= reach; h++ {
				if acc[h] == infeasible {
					continue
				}
				for e := 0; e <= child.cap && h+e <= rec.cap; e++ {
					if !child.alloc[e] {
						continue
					}
					switch policy {
					case MinMaxOccupancy:
						val := max(acc[h], max(child.optIn[e], child.upOcc[e]))
						if val < next[h+e] {
							next[h+e] = val
							pick[h+e] = int32(e)
						}
					case GreedyPack:
						// e iterates ascending, so overwriting keeps the
						// largest feasible share in this child.
						next[h+e] = 0
						pick[h+e] = int32(e)
					default: // FirstFeasible keeps the split found first
						if next[h+e] == infeasible {
							next[h+e] = 0
							pick[h+e] = int32(e)
						}
					}
				}
			}
			acc, next = next, acc
			rec.choice[i] = pick
			reach = min(rec.cap, reach+child.cap)
		}
		rec.optIn = acc
	}

	// Uplink occupancy and the allocable VM set (Definition 1). The root
	// has no uplink; every other vertex must keep its uplink admissible.
	rec.alloc = ar.bl.alloc(rec.cap + 1)
	isRoot := node.Parent == topology.None
	if !isRoot {
		rec.upOcc = ar.f64.alloc(rec.cap + 1)
	}
	for e := 0; e <= rec.cap; e++ {
		if rec.optIn[e] == infeasible {
			continue
		}
		if isRoot {
			rec.alloc[e] = true
			continue
		}
		rec.upOcc[e] = led.OccupancyWith(v, crossing[e])
		rec.alloc[e] = rec.upOcc[e] < 1
	}
}

// homogBuild reconstructs the chosen placement by replaying the recorded
// per-child split choices top-down.
func homogBuild(topo *topology.Topology, records []homogRecord, v topology.NodeID, s int, p *Placement) {
	if s == 0 {
		return
	}
	node := topo.Node(v)
	if node.IsMachine() {
		p.Entries = append(p.Entries, PlacementEntry{Machine: v, Count: s})
		return
	}
	rec := &records[v]
	for i := len(node.Children) - 1; i >= 0; i-- {
		e := int(rec.choice[i][s])
		if e < 0 {
			panic(fmt.Sprintf("core: no recorded choice for child %d of node %d at sum %d", i, v, s))
		}
		homogBuild(topo, records, node.Children[i], e, p)
		s -= e
	}
	if s != 0 {
		panic(fmt.Sprintf("core: reconstruction at node %d left %d VMs unassigned", v, s))
	}
}
