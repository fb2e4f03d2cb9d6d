package core

import (
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"sync"

	"repro/internal/stats"
	"repro/internal/topology"
)

// This file implements the incremental planning cache: per-subtree DP
// tables memoized across admission requests.
//
// The key observation is that a vertex's DP record — the allocable VM
// set, per-count optimal in-subtree occupancy and split choices — is a
// pure function of (request demand params, N, policy) and the ledger
// state inside the vertex's subtree plus its own uplink. The ledger
// stamps a subtree version on every node (Ledger.SubtreeVersion): a
// mutation at link or machine x bumps x and all its ancestors with one
// globally unique tick, so a matching version certifies the whole
// subtree — including every descendant's record — is unchanged. A
// steady-state commit therefore invalidates only the O(depth) vertices
// on its touched paths, and the next plan for the same demand shape
// recomputes just those records instead of the whole tree.
//
// Fault state is the one input that is NOT subtree-local: FreeSlots
// depends on reachability through links above the vertex. Entries
// stamp Faults().Epoch() and drop all records when it moves. This is
// sound for every ledger the manager plans on (live ledger, shared
// snapshots) because only the live ledger's fault overlay is ever
// mutated; clones never diverge on fault state, so an epoch value
// identifies one fault configuration.
//
// The compute paths below mirror homogCompute/substrCompute and the
// build/selection code operation for operation, so cached plans are
// bit-identical to cold ones — the equivalence suite in
// plancache_test.go and a sampled -tags invariants cross-check hold
// them to that.
//
// Storage is flat and pointer-free (dpTable): an entry keeps one scalar
// header per vertex and four backing slices the headers index into,
// with each vertex's row sized by its subtree's static slot capacity.
// A miss therefore allocates a handful of slices — none, when it adopts
// the storage of the entry it evicts — instead of several per vertex,
// and the garbage collector never scans the tables.

const (
	// maxHomogPlanEntries / maxHeteroPlanEntries bound the number of
	// distinct (demand, N, policy) shapes kept warm. Hetero tables are
	// O(n^2) per vertex and so get a tighter cap. Eviction is FIFO over
	// an insertion-order slice — never a map iteration, which would leak
	// nondeterministic order into eviction choices.
	maxHomogPlanEntries  = 12
	maxHeteroPlanEntries = 4

	// planCacheSampleEvery is the sampling period of the -tags invariants
	// cross-check: every Nth cached plan is recomputed cold and compared.
	planCacheSampleEvery = 32
)

// planCacheStats is a snapshot of the cache counters.
type planCacheStats struct {
	Hits          int64 // plans served from an existing entry
	Misses        int64 // plans that had to build a new entry
	Invalidations int64 // stale vertex records recomputed on existing entries
	Evictions     int64 // entries dropped by the FIFO bound
	Reclaims      int64 // evicted entries whose storage passed to their replacement
}

// planCache memoizes per-subtree DP tables across admissions. One per
// Manager; safe for concurrent use. Plans for the same key serialize on
// the entry's mutex (they would recompute identical records anyway);
// plans for different keys run concurrently. Lock order: mu, then an
// entry's mu — eviction only TryLocks the victim, so it never waits.
type planCache struct {
	mu         sync.Mutex
	frame      *planFrame // vertex numbering every entry's tables use
	homog      map[homogKey]*homogEntry
	hetero     map[string]*substrEntry
	homogFIFO  []homogKey
	heteroFIFO []string
	stats      planCacheStats
	sampleTick int64
}

func newPlanCache() *planCache {
	return &planCache{
		homog:  make(map[homogKey]*homogEntry),
		hetero: make(map[string]*substrEntry),
	}
}

// planFrame numbers the vertices the cache's DPs visit — the whole tree,
// or a plan scope's subtree — densely, so entries lay out rows for those
// vertices only. Slots are assigned level by level, bottom-up, so the
// frame root is the last slot.
type planFrame struct {
	topo   *topology.Topology
	scope  *planScope
	slot   []int32 // NodeID -> frame slot; -1 outside the frame
	slots  []int   // per frame slot: VM slots in the vertex's subtree
	parent []int   // per frame slot: the parent's frame slot; -1 for the frame root
}

func newPlanFrame(topo *topology.Topology, scope *planScope) *planFrame {
	f := &planFrame{topo: topo, scope: scope, slot: make([]int32, topo.Len())}
	for i := range f.slot {
		f.slot[i] = -1
	}
	var ids []topology.NodeID
	for level := 0; level <= scopeHeight(topo, scope); level++ {
		for _, v := range scopeAtLevel(topo, scope, level) {
			node := topo.Node(v)
			slots := node.Slots
			for _, c := range node.Children {
				slots += f.slots[f.slot[c]]
			}
			f.slot[v] = int32(len(f.slots))
			f.slots = append(f.slots, slots)
			ids = append(ids, v)
		}
	}
	f.parent = make([]int, len(ids))
	for i, v := range ids {
		f.parent[i] = -1
		if p := topo.Node(v).Parent; p != topology.None {
			f.parent[i] = int(f.slot[p])
		}
	}
	return f
}

// width is the row width of frame slot i for a request of n VMs: one
// group of unit cells per count 0..min(n, subtree slots). FreeSlots
// never exceeds a machine's Slots, so a record's cap always fits.
func (f *planFrame) width(i, n, unit int) int { return (min(n, f.slots[i]) + 1) * unit }

// frameLocked returns the cache's frame, building it on first use. A
// cache serves one manager, whose topology and scope are immutable.
func (c *planCache) frameLocked(topo *topology.Topology, scope *planScope) *planFrame {
	if c.frame == nil {
		c.frame = newPlanFrame(topo, scope)
	}
	if c.frame.topo != topo || c.frame.scope != scope {
		panic("core: plan cache used with a second topology or plan scope")
	}
	return c.frame
}

// cachedRec is the scalar header of one vertex's persistent DP record:
// the subtree version it was computed under and where its rows live in
// the entry's dpTable.
type cachedRec struct {
	ver    uint64
	filled bool
	cap    int // largest VM count (homog) or substring length (hetero) in the subtree
	off    int // row start in optIn, upOcc and alloc
	coff   int // start of this vertex's split column in choice; -1 for the frame root
}

// dpTable is one entry's DP storage. Row i of optIn/upOcc/alloc starts
// at recs[i].off and is frame.width(i) cells wide; choice holds, for
// every non-root vertex, the split its parent gave it, indexed like the
// parent's row (a vertex is exactly one parent's child). The layout is
// fixed for the entry's life. No cell is zeroed between fills: every
// cell a fill reads was written earlier in the same fill.
type dpTable struct {
	recs   []cachedRec // per frame slot
	optIn  []float64
	upOcc  []float64
	alloc  []bool
	choice []int32
	acc    []float64 // child-combine scratch, the frame root's row width
	next   []float64
}

// layout sizes t for frame f and n VMs (unit cells per count), taking
// each slice from spare when its capacity is within 2x of the need and
// allocating it otherwise: the bound keeps storage from ratcheting up to
// the largest request ever seen. spare is emptied.
func (t *dpTable) layout(f *planFrame, n, unit int, spare *dpTable) {
	t.recs = fitOrMake(spare.recs, len(f.slots))
	cells, choiceCells := 0, 0
	for i := range t.recs {
		rec := cachedRec{off: cells, coff: -1}
		cells += f.width(i, n, unit)
		if p := f.parent[i]; p >= 0 {
			rec.coff = choiceCells
			choiceCells += f.width(p, n, unit)
		}
		t.recs[i] = rec
	}
	rootWidth := f.width(len(f.slots)-1, n, unit)
	t.optIn = fitOrMake(spare.optIn, cells)
	t.upOcc = fitOrMake(spare.upOcc, cells)
	t.alloc = fitOrMake(spare.alloc, cells)
	t.choice = fitOrMake(spare.choice, choiceCells)
	t.acc = fitOrMake(spare.acc, rootWidth)
	t.next = fitOrMake(spare.next, rootWidth)
	*spare = dpTable{}
}

// fitOrMake returns s resliced to n when its capacity is within [n, 2n],
// and a fresh slice otherwise.
func fitOrMake[T any](s []T, n int) []T {
	if cap(s) >= n && cap(s) <= 2*n {
		return s[:n]
	}
	return make([]T, n)
}

// homogKey identifies one homogeneous DP table shape. The demand is
// canonicalized (canonDemand) so equal effective demands share entries.
type homogKey struct {
	demand stats.Normal
	n      int
	policy Policy
}

// homogEntry holds one memoized homogeneous DP table. mu guards the
// epoch and table fields (the rest is fixed at creation); the fill path
// writes tab in place, readers go through cachedTable.
type homogEntry struct {
	mu       sync.Mutex
	n        int
	policy   Policy
	demand   stats.Normal   // canonical
	crossing []stats.Normal // crossing[m]: demand on a link with m of n VMs below
	frame    *planFrame
	epoch    uint64 // Faults().Epoch() the records were computed under
	epochSet bool
	tab      dpTable // tab.recs == nil until the first plan lays it out
	spare    dpTable // an evicted entry's storage, offered to that layout
}

// cachedTable returns the entry's DP table for read-only use by the
// selection scan and placement reconstruction. The table is
// snapshot-derived shared state (the snapshotro analyzer tracks this
// accessor): all writes go through the fill path, never through the
// returned view.
func (e *homogEntry) cachedTable() *dpTable { return &e.tab }

// reclaim takes an evicted entry's storage for its replacement, unless a
// planner holds the entry. The entry is left with no tables, so a
// planner that still references it lays out fresh storage.
func (e *homogEntry) reclaim() (dpTable, bool) {
	if !e.mu.TryLock() {
		return dpTable{}, false
	}
	defer e.mu.Unlock()
	t := e.tab
	if t.recs == nil {
		t = e.spare
	}
	e.tab, e.spare = dpTable{}, dpTable{}
	return t, true
}

// homogEntryFor returns the entry for the request's table shape,
// creating (and possibly evicting) under the cache lock.
func (c *planCache) homogEntryFor(led *Ledger, req Homogeneous, policy Policy, scope *planScope) (*homogEntry, bool) {
	key := homogKey{demand: canonDemand(req.Demand), n: req.N, policy: policy}
	// Built outside the cache-wide lock; a hit discards it.
	crossing := crossingTableHomog(key.demand, key.n)
	c.mu.Lock()
	defer c.mu.Unlock()
	f := c.frameLocked(led.Topology(), scope)
	if e := c.homog[key]; e != nil {
		c.stats.Hits++
		return e, true
	}
	c.stats.Misses++
	e := &homogEntry{
		n:        key.n,
		policy:   policy,
		demand:   key.demand,
		crossing: crossing,
		frame:    f,
	}
	c.homog[key] = e
	c.homogFIFO = append(c.homogFIFO, key)
	if len(c.homogFIFO) > maxHomogPlanEntries {
		oldest := c.homogFIFO[0]
		c.homogFIFO = c.homogFIFO[1:]
		victim := c.homog[oldest]
		delete(c.homog, oldest)
		c.stats.Evictions++
		if t, ok := victim.reclaim(); ok {
			e.spare = t
			c.stats.Reclaims++
		}
	}
	return e, false
}

// AllocateHomog plans a homogeneous request against led using the cache.
// Bit-identical to core's AllocateHomog on the same ledger state. A
// non-nil scope confines planning to its subtree; entries are per-manager
// and a manager's scope is immutable, so cached records never mix scopes.
func (c *planCache) allocateHomog(led *Ledger, req Homogeneous, policy Policy, scope *planScope) (Placement, []linkDemand, error) {
	if err := req.Validate(); err != nil {
		return Placement{}, nil, err
	}
	e, hit := c.homogEntryFor(led, req, policy, scope)
	e.mu.Lock()
	p, contribs, recomputed, err := e.plan(led)
	e.mu.Unlock()
	c.notePlan(hit, recomputed)
	if invariantsEnabled && c.shouldSample() {
		fp, _, ferr := allocateHomogScoped(led, req, policy, 1, scope)
		checkCachedPlan("homog", p, err, fp, ferr)
	}
	return p, contribs, err
}

// plan runs the level-order DP reusing every record whose subtree
// version still matches. Callers hold e.mu. Returns the number of
// vertex records recomputed.
func (e *homogEntry) plan(led *Ledger) (Placement, []linkDemand, int, error) {
	topo, f := led.Topology(), e.frame
	if e.tab.recs == nil {
		e.tab.layout(f, e.n, 1, &e.spare)
	}
	if ep := led.Faults().Epoch(); !e.epochSet || e.epoch != ep {
		// Fault state changed: reachability is not subtree-local, so the
		// whole table is suspect.
		for i := range e.tab.recs {
			e.tab.recs[i].filled = false
		}
		e.epoch = ep
		e.epochSet = true
	}
	recomputed := 0
	for level := 0; level <= scopeHeight(topo, f.scope); level++ {
		verts := scopeAtLevel(topo, f.scope, level)
		for _, v := range verts {
			r := &e.tab.recs[f.slot[v]]
			if r.filled && r.ver == led.SubtreeVersion(v) {
				continue // children are current too: any bump below v bumps v
			}
			e.computeVertex(led, topo, v)
			r.ver = led.SubtreeVersion(v)
			r.filled = true
			recomputed++
		}
		// Selection mirrors AllocateHomogWorkers: sequential, in topology
		// order, so tie-breaking matches the cold path exactly.
		tab := e.cachedTable()
		var (
			best    topology.NodeID = topology.None
			bestVal                 = infeasible
		)
		for _, v := range verts {
			rec := &tab.recs[f.slot[v]]
			if rec.cap < e.n || tab.optIn[rec.off+e.n] == infeasible {
				continue
			}
			val := tab.optIn[rec.off+e.n]
			if e.policy == FirstFeasible && best != topology.None {
				continue
			}
			if val < bestVal || best == topology.None {
				best, bestVal = v, val
			}
		}
		if best != topology.None {
			var p Placement
			e.build(topo, tab, best, e.n, &p)
			p.normalize()
			req := Homogeneous{N: e.n, Demand: e.demand}
			return p, homogContributions(topo, req, &p), recomputed, nil
		}
	}
	return Placement{}, nil, recomputed, fmt.Errorf("%w: %v", ErrNoCapacity, Homogeneous{N: e.n, Demand: e.demand})
}

// computeVertex fills v's record from the ledger and the children's
// (already current) records — the same arithmetic as homogCompute, but
// into the entry's rows. Every cell in [0, cap] is written before it
// can be read, so stale values from a previous fill never leak.
func (e *homogEntry) computeVertex(led *Ledger, topo *topology.Topology, v topology.NodeID) {
	node := topo.Node(v)
	t, slot := &e.tab, e.frame.slot
	r := &t.recs[slot[v]]
	n := e.n
	optIn := t.optIn[r.off:]
	if node.IsMachine() {
		r.cap = min(n, led.FreeSlots(v))
		for s := 0; s <= r.cap; s++ {
			optIn[s] = 0
		}
	} else {
		capV := 0
		for _, c := range node.Children {
			capV += t.recs[slot[c]].cap
		}
		r.cap = min(n, capV)
		acc, next := t.acc, t.next
		acc[0] = 0
		for s := 1; s <= r.cap; s++ {
			acc[s] = infeasible
		}
		reach := 0
		for _, c := range node.Children {
			child := &t.recs[slot[c]]
			cOpt, cUp, cAlloc := t.optIn[child.off:], t.upOcc[child.off:], t.alloc[child.off:]
			pick := t.choice[child.coff:]
			for s := 0; s <= r.cap; s++ {
				next[s] = infeasible
				pick[s] = -1
			}
			for h := 0; h <= reach; h++ {
				if acc[h] == infeasible {
					continue
				}
				for s := 0; s <= child.cap && h+s <= r.cap; s++ {
					if !cAlloc[s] {
						continue
					}
					switch e.policy {
					case MinMaxOccupancy:
						val := max(acc[h], max(cOpt[s], cUp[s]))
						if val < next[h+s] {
							next[h+s] = val
							pick[h+s] = int32(s)
						}
					case GreedyPack:
						next[h+s] = 0
						pick[h+s] = int32(s)
					default: // FirstFeasible keeps the split found first
						if next[h+s] == infeasible {
							next[h+s] = 0
							pick[h+s] = int32(s)
						}
					}
				}
			}
			acc, next = next, acc
			reach = min(r.cap, reach+child.cap)
		}
		copy(optIn[:r.cap+1], acc[:r.cap+1])
	}

	isRoot := node.Parent == topology.None
	upOcc, alloc := t.upOcc[r.off:], t.alloc[r.off:]
	for s := 0; s <= r.cap; s++ {
		alloc[s] = false
		if optIn[s] == infeasible {
			continue
		}
		if isRoot {
			alloc[s] = true
			continue
		}
		upOcc[s] = led.OccupancyWith(v, e.crossing[s])
		alloc[s] = upOcc[s] < 1
	}
}

// build is homogBuild over the cached table.
func (e *homogEntry) build(topo *topology.Topology, tab *dpTable, v topology.NodeID, s int, p *Placement) {
	if s == 0 {
		return
	}
	node := topo.Node(v)
	if node.IsMachine() {
		p.Entries = append(p.Entries, PlacementEntry{Machine: v, Count: s})
		return
	}
	for i := len(node.Children) - 1; i >= 0; i-- {
		c := node.Children[i]
		k := int(tab.choice[tab.recs[e.frame.slot[c]].coff+s])
		if k < 0 {
			panic(fmt.Sprintf("core: no cached choice for child %d of node %d at sum %d", i, v, s))
		}
		e.build(topo, tab, c, k, p)
		s -= k
	}
	if s != 0 {
		panic(fmt.Sprintf("core: cached reconstruction at node %d left %d VMs unassigned", v, s))
	}
}

// --- heterogeneous substring tables ---

// substrEntry holds one memoized substring-DP table, keyed by the
// percentile-sorted canonical demand sequence — permutations of the
// same demand multiset share it; the caller's order slice maps substring
// positions back to its request's VM indices. A record's rows are
// indexed by (length, a) at length*(n+1)+a, for length up to the
// vertex's cap.
type substrEntry struct {
	mu       sync.Mutex
	n        int
	policy   Policy
	sorted   []stats.Normal // canonical, percentile-sorted
	prefix   *demandPrefix
	frame    *planFrame
	epoch    uint64
	epochSet bool
	tab      dpTable
	spare    dpTable
}

// cachedTable is the read-only view of the substring table; see
// homogEntry.cachedTable.
func (e *substrEntry) cachedTable() *dpTable { return &e.tab }

// reclaim is homogEntry.reclaim for substring entries.
func (e *substrEntry) reclaim() (dpTable, bool) {
	if !e.mu.TryLock() {
		return dpTable{}, false
	}
	defer e.mu.Unlock()
	t := e.tab
	if t.recs == nil {
		t = e.spare
	}
	e.tab, e.spare = dpTable{}, dpTable{}
	return t, true
}

// substrCacheKey renders the sorted canonical demand sequence and policy
// as an exact-value key (float bits, not formatted decimals).
func substrCacheKey(sorted []stats.Normal, policy Policy) string {
	var b strings.Builder
	b.Grow(2 + 34*len(sorted))
	b.WriteString(strconv.Itoa(int(policy)))
	for _, d := range sorted {
		b.WriteByte(':')
		b.WriteString(strconv.FormatUint(math.Float64bits(d.Mu), 16))
		b.WriteByte(',')
		b.WriteString(strconv.FormatUint(math.Float64bits(d.Sigma), 16))
	}
	return b.String()
}

func (c *planCache) substrEntryFor(led *Ledger, sorted []stats.Normal, policy Policy, scope *planScope) (*substrEntry, bool) {
	key := substrCacheKey(sorted, policy)
	// Built outside the cache-wide lock; a hit discards it.
	prefix := newDemandPrefix(sorted)
	c.mu.Lock()
	defer c.mu.Unlock()
	f := c.frameLocked(led.Topology(), scope)
	if e := c.hetero[key]; e != nil {
		c.stats.Hits++
		return e, true
	}
	c.stats.Misses++
	e := &substrEntry{
		n:      len(sorted),
		policy: policy,
		sorted: sorted,
		prefix: prefix,
		frame:  f,
	}
	c.hetero[key] = e
	c.heteroFIFO = append(c.heteroFIFO, key)
	if len(c.heteroFIFO) > maxHeteroPlanEntries {
		oldest := c.heteroFIFO[0]
		c.heteroFIFO = c.heteroFIFO[1:]
		victim := c.hetero[oldest]
		delete(c.hetero, oldest)
		c.stats.Evictions++
		if t, ok := victim.reclaim(); ok {
			e.spare = t
			c.stats.Reclaims++
		}
	}
	return e, false
}

// allocateHeteroSubstring plans a heterogeneous request with the cached
// substring DP. Bit-identical to AllocateHeteroSubstring.
func (c *planCache) allocateHeteroSubstring(led *Ledger, req Heterogeneous, policy Policy, scope *planScope) (Placement, []linkDemand, error) {
	if err := req.Validate(); err != nil {
		return Placement{}, nil, err
	}
	order, sorted := orderByPercentile(req)
	for i := range sorted {
		sorted[i] = canonDemand(sorted[i])
	}
	e, hit := c.substrEntryFor(led, sorted, policy, scope)
	e.mu.Lock()
	p, contribs, recomputed, err := e.plan(led, req, order)
	e.mu.Unlock()
	c.notePlan(hit, recomputed)
	if invariantsEnabled && c.shouldSample() {
		fp, _, ferr := allocateHeteroSubstringScoped(led, req, policy, 1, scope)
		checkCachedPlan("hetero", p, err, fp, ferr)
	}
	return p, contribs, err
}

// plan runs the substring DP reusing current records; callers hold e.mu.
// order maps substring positions to the caller's VM indices.
func (e *substrEntry) plan(led *Ledger, req Heterogeneous, order []int) (Placement, []linkDemand, int, error) {
	topo, f := led.Topology(), e.frame
	n := e.n
	if e.tab.recs == nil {
		e.tab.layout(f, n, n+1, &e.spare)
	}
	if ep := led.Faults().Epoch(); !e.epochSet || e.epoch != ep {
		for i := range e.tab.recs {
			e.tab.recs[i].filled = false
		}
		e.epoch = ep
		e.epochSet = true
	}
	recomputed := 0
	for level := 0; level <= scopeHeight(topo, f.scope); level++ {
		verts := scopeAtLevel(topo, f.scope, level)
		for _, v := range verts {
			r := &e.tab.recs[f.slot[v]]
			if r.filled && r.ver == led.SubtreeVersion(v) {
				continue
			}
			e.computeVertex(led, topo, v)
			r.ver = led.SubtreeVersion(v)
			r.filled = true
			recomputed++
		}
		tab := e.cachedTable()
		var (
			best    topology.NodeID = topology.None
			bestVal                 = infeasible
		)
		for _, v := range verts {
			rec := &tab.recs[f.slot[v]]
			if rec.cap < n {
				continue
			}
			full := rec.off + n*(n+1) // (length n, a 0)
			if tab.optIn[full] == infeasible {
				continue
			}
			val := tab.optIn[full]
			if e.policy == FirstFeasible && best != topology.None {
				continue
			}
			if val < bestVal || best == topology.None {
				best, bestVal = v, val
			}
		}
		if best != topology.None {
			var p Placement
			e.build(topo, tab, order, best, 0, n, &p)
			p.normalize()
			return p, heteroContributions(topo, req, &p), recomputed, nil
		}
	}
	return Placement{}, nil, recomputed, fmt.Errorf("%w: %v", ErrNoCapacity, req)
}

// computeVertex fills v's substring record — the same arithmetic as
// substrCompute, into the entry's rows. Cells outside the current
// (cap, n) ranges may hold stale values; every consumer loop is bounded
// by the current caps, so they are never read.
func (e *substrEntry) computeVertex(led *Ledger, topo *topology.Topology, v topology.NodeID) {
	node := topo.Node(v)
	t, slot := &e.tab, e.frame.slot
	r := &t.recs[slot[v]]
	n := e.n
	stride := n + 1
	optIn := t.optIn[r.off:]
	if node.IsMachine() {
		r.cap = min(n, led.FreeSlots(v))
		size := (r.cap + 1) * stride
		for i := 0; i < size; i++ {
			optIn[i] = 0
		}
	} else {
		capV := 0
		for _, c := range node.Children {
			capV += t.recs[slot[c]].cap
		}
		r.cap = min(n, capV)
		size := (r.cap + 1) * stride
		acc, next := t.acc[:size], t.next[:size]
		for i := range acc {
			acc[i] = infeasible
		}
		for a := 0; a <= n; a++ {
			acc[a] = 0 // (length 0, a): the empty substring anchored anywhere
		}
		reach := 0
		for _, c := range node.Children {
			child := &t.recs[slot[c]]
			cOpt, cUp, cAlloc := t.optIn[child.off:], t.upOcc[child.off:], t.alloc[child.off:]
			pick := t.choice[child.coff:]
			for j := range next {
				next[j] = infeasible
				pick[j] = -1
			}
			for aLen := 0; aLen <= reach; aLen++ {
				for a := 0; a+aLen <= n; a++ {
					cur := acc[aLen*stride+a]
					if cur == infeasible {
						continue
					}
					k := a + aLen
					maxChildLen := min(child.cap, min(r.cap-aLen, n-k))
					for cl := 0; cl <= maxChildLen; cl++ {
						cIdx := cl*stride + k
						if !cAlloc[cIdx] {
							continue
						}
						tIdx := (aLen+cl)*stride + a
						val := 0.0
						if e.policy == MinMaxOccupancy {
							val = max(cur, max(cOpt[cIdx], cUp[cIdx]))
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
			reach = min(r.cap, reach+child.cap)
		}
		copy(optIn[:size], acc[:size])
	}

	isRoot := node.Parent == topology.None
	upOcc, alloc := t.upOcc[r.off:], t.alloc[r.off:]
	for length := 0; length <= r.cap; length++ {
		for a := 0; a+length <= n; a++ {
			i := length*stride + a
			alloc[i] = false
			if optIn[i] == infeasible {
				continue
			}
			if isRoot {
				alloc[i] = true
				continue
			}
			upOcc[i] = led.OccupancyWith(v, e.prefix.crossing(a, a+length))
			alloc[i] = upOcc[i] < 1
		}
	}
}

// build is substrBuild over the cached table.
func (e *substrEntry) build(topo *topology.Topology, tab *dpTable, order []int,
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
	for i := len(node.Children) - 1; i >= 0; i-- {
		c := node.Children[i]
		k := int(tab.choice[tab.recs[e.frame.slot[c]].coff+(b-a)*(e.n+1)+a])
		if k < 0 {
			panic(fmt.Sprintf("core: no cached split for child %d of node %d over [%d,%d)", i, v, a, b))
		}
		e.build(topo, tab, order, c, k, b, p)
		b = k
	}
	if b != a {
		panic(fmt.Sprintf("core: cached reconstruction at node %d left [%d,%d) unassigned", v, a, b))
	}
}

// --- counters and the sampled equivalence check ---

// notePlan folds one plan's cache effects into the counters: recomputes
// on a pre-existing entry are invalidations (a commit or fault moved the
// versions); a fresh entry's full fill is already accounted as a miss.
func (c *planCache) notePlan(hit bool, recomputed int) {
	if !hit || recomputed == 0 {
		return
	}
	c.mu.Lock()
	c.stats.Invalidations += int64(recomputed)
	c.mu.Unlock()
}

// snapshot returns the current counters.
func (c *planCache) snapshot() planCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// shouldSample gates the invariants-build cross-check to every
// planCacheSampleEvery-th cached plan. Counter-based, so sampling stays
// deterministic for a deterministic call sequence.
func (c *planCache) shouldSample() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sampleTick++
	return c.sampleTick%planCacheSampleEvery == 1
}

// checkCachedPlan panics unless the cached plan matches a cold DP run on
// the same ledger state — the bit-identical contract, spot-checked at
// runtime under -tags invariants.
func checkCachedPlan(kind string, cached Placement, cachedErr error, cold Placement, coldErr error) {
	if (cachedErr == nil) != (coldErr == nil) {
		panic(fmt.Sprintf("core: invariant violation: cached %s plan feasibility (err=%v) differs from cold DP (err=%v)", kind, cachedErr, coldErr))
	}
	if cachedErr != nil {
		return
	}
	if !reflect.DeepEqual(cached.Entries, cold.Entries) {
		panic(fmt.Sprintf("core: invariant violation: cached %s plan differs from cold DP:\ncached: %v\ncold:   %v", kind, &cached, &cold))
	}
}
