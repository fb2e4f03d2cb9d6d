// Package snapshotro fixtures: Clone completeness and read-only
// snapshot discipline.
package snapshotro

// --- Clone completeness ---

type Faults struct {
	topo   int
	down   map[int]bool
	epoch  uint64
	cached []bool
	aliveN int
}

// negative: every field handled (copies or reads both count).

func (f *Faults) Clone() *Faults {
	c := &Faults{topo: f.topo, epoch: f.epoch, aliveN: f.aliveN}
	c.down = make(map[int]bool, len(f.down))
	for k, v := range f.down {
		c.down[k] = v
	}
	c.cached = append([]bool(nil), f.cached...)
	return c
}

type Broken struct {
	topo   int
	down   map[int]bool
	cached []bool
	aliveN int
}

// positive: the PR-4 bug class — Clone silently drops the warm caches,
// so every user of the copy pays a full rebuild (or worse, aliases).

func (b *Broken) Clone() *Broken { // want `Clone of Broken does not copy field "cached"` `Clone of Broken does not copy field "aliveN"`
	c := &Broken{topo: b.topo}
	c.down = make(map[int]bool, len(b.down))
	for k, v := range b.down {
		c.down[k] = v
	}
	return c
}

type Cached struct {
	vals []int
	memo map[int]int
}

// negative: declared, justified omission.

//lint:clone-skip memo: memo is a pure function of vals and is rebuilt lazily
func (c *Cached) Clone() *Cached {
	return &Cached{vals: append([]int(nil), c.vals...)}
}

// negative: Clone not returning the receiver type is not a state clone.

type Wrapper struct{ inner *Faults }

func (w *Wrapper) Clone() *Faults { return w.inner.Clone() }

// --- read-only snapshots ---

type Ledger struct {
	used map[int]int
}

func (l *Ledger) Clone() *Ledger {
	c := &Ledger{used: make(map[int]int, len(l.used))}
	for k, v := range l.used {
		c.used[k] = v
	}
	return c
}

func (l *Ledger) UseSlots(m, n int) bool { l.used[m] += n; return true }
func (l *Ledger) Used(m int) int         { return l.used[m] }

type Mutation struct{}

func commit(l *Ledger, mut *Mutation) error { return nil }

type Manager struct {
	snap *Ledger
}

func (m *Manager) snapshot() *Ledger              { return m.snap }
func (m *Manager) snapshotVer() (*Ledger, uint64) { return m.snap, 1 }

// negative: reading a snapshot is the whole point.

func (m *Manager) Occupied(machine int) int {
	snap := m.snapshot()
	return snap.Used(machine)
}

// negative: Clone() first, then mutate freely.

func (m *Manager) Headroom() bool {
	scratch := m.snapshot().Clone()
	return scratch.UseSlots(0, 1)
}

// negative: clone taken from a tracked snapshot is private.

func (m *Manager) Plan(mut *Mutation) error {
	snap, _ := m.snapshotVer()
	scratch := snap.Clone()
	scratch.used[0] = 9
	return commit(scratch, mut)
}

// positive: writing through the shared snapshot.

func (m *Manager) BadWrite() {
	snap := m.snapshot()
	snap.used[0] = 1 // want `write through shared snapshot snap`
}

// positive: calling a mutator on the shared snapshot.

func (m *Manager) BadUse() {
	snap, _ := m.snapshotVer()
	snap.UseSlots(0, 1) // want `mutator UseSlots called on shared snapshot snap`
}

// positive: committing onto the shared snapshot.

func (m *Manager) BadCommit(mut *Mutation) error {
	snap := m.snapshot()
	return commit(snap, mut) // want `shared snapshot snap passed to commit`
}

// --- read-only cached DP tables (plan cache) ---

type rec struct {
	ver    uint64
	filled bool
	off    int
}

type table struct {
	recs  []rec
	optIn []float64
}

type entry struct {
	tab table
}

func (e *entry) cachedTable() *table { return &e.tab }

// negative: the selection scan only reads the cached table.

func (e *entry) Best(n int) int {
	tab := e.cachedTable()
	for i := range tab.recs {
		if tab.recs[i].filled && tab.optIn[tab.recs[i].off+n] < 1 {
			return i
		}
	}
	return -1
}

// negative: the fill path writes the entry's own table, not the view.

func (e *entry) Fill(v int) {
	e.tab.recs[v].filled = true
}

// positive: writing a header through the cached view bypasses the fill
// path.

func (e *entry) BadFill(v int) {
	tab := e.cachedTable()
	tab.recs[v].filled = true // want `write through shared snapshot tab`
}

// positive: so does writing a row cell.

func (e *entry) BadCell(v, n int) {
	tab := e.cachedTable()
	tab.optIn[tab.recs[v].off+n] = 0 // want `write through shared snapshot tab`
}
