package core

import (
	"errors"
	"fmt"

	"repro/internal/metrics"
)

// Optimistic admission: plan → validate → commit. The min-max DP — the
// admission hot path, O(tree) — runs on a lock-free ledger snapshot; the
// write lock is then taken only to revalidate the links and machines the
// chosen placement actually touches (the Eq. 4 recheck, O(links in the
// placement)) and to commit. A plan invalidated by concurrent commits is
// retried against a fresh snapshot a bounded number of times and then
// falls back to planning under the lock, so admission never livelocks and
// rejection semantics match the planned-under-lock path: every rejection
// is issued against a ledger state no older than the call.

// maxPlanRetries bounds how many optimistic planning rounds one admission
// may burn before falling back to planning under the write lock.
const maxPlanRetries = 3

// AdmissionStats counts how admissions traveled through the optimistic
// pipeline. Fast-path commits validated against the very version they
// planned on; revalidated commits passed the per-link Eq. 4 recheck after
// concurrent commits moved the ledger; conflicts are plans the recheck
// (or a capacity rejection against a stale version) invalidated, each
// followed by a retry; fallbacks and locked count plans run under the
// write lock (retry exhaustion, or WithLockedAdmission mode).
type AdmissionStats struct {
	FastPath    int64                  `json:"fastPath"`
	Revalidated int64                  `json:"revalidated"`
	Conflicts   int64                  `json:"conflicts"`
	Retries     int64                  `json:"retries"`
	Fallbacks   int64                  `json:"fallbacks"`
	Locked      int64                  `json:"locked"`
	Plan        metrics.LatencySummary `json:"plan"`

	// Plan-cache counters (see plancache.go): hits and misses count
	// plans that found / had to build a DP table entry; invalidations
	// count stale vertex records recomputed on existing entries (the
	// commit-path touched set plus fault-epoch drops); evictions count
	// entries dropped by the FIFO bound.
	PlanCacheHits          int64 `json:"planCacheHits"`
	PlanCacheMisses        int64 `json:"planCacheMisses"`
	PlanCacheInvalidations int64 `json:"planCacheInvalidations"`
	PlanCacheEvictions     int64 `json:"planCacheEvictions"`
}

// admissionCounters is the manager's mutable form of AdmissionStats
// (guarded by m.mu).
type admissionCounters struct {
	fastPath    int64
	revalidated int64
	conflicts   int64
	retries     int64
	fallbacks   int64
	locked      int64
	plan        metrics.LatencySummary
}

// AdmissionStats returns a snapshot of the admission pipeline counters.
func (m *Manager) AdmissionStats() AdmissionStats {
	m.mu.Lock()
	out := AdmissionStats{
		FastPath:    m.adm.fastPath,
		Revalidated: m.adm.revalidated,
		Conflicts:   m.adm.conflicts,
		Retries:     m.adm.retries,
		Fallbacks:   m.adm.fallbacks,
		Locked:      m.adm.locked,
		Plan:        m.adm.plan,
	}
	m.mu.Unlock()
	pc := m.plans.snapshot()
	out.PlanCacheHits = pc.Hits
	out.PlanCacheMisses = pc.Misses
	out.PlanCacheInvalidations = pc.Invalidations
	out.PlanCacheEvictions = pc.Evictions
	return out
}

// planFunc runs one allocation algorithm against a ledger — live or
// snapshot — returning the placement and contributions uncommitted.
type planFunc func(led *Ledger) (Placement, []linkDemand, error)

// allocate is the shared admission driver behind AllocateHomog and
// AllocateHetero. mut carries the request (Homog or Hetero set, IdemKey
// evaluated); the placement and contributions are filled in from the
// winning plan.
func (m *Manager) allocate(co callOpts, plan planFunc, mut Mutation, wantVMs int) (*Allocation, error) {
	if m.lockedAdmission {
		return m.allocateUnderLock(co, plan, mut, false)
	}
	if co.idemKey != "" {
		// Resolve a replayed key before paying for a plan. The re-check
		// under the lock below still guards the race where a concurrent
		// call commits the same key while this one is planning.
		m.mu.Lock()
		a, done, err := m.idemAllocLocked(co.idemKey)
		m.mu.Unlock()
		if done {
			return a, err
		}
	}
	for attempt := 0; attempt < maxPlanRetries; attempt++ {
		snap, ver := m.snapshotVer()
		start := now()
		p, contribs, err := plan(snap)
		planDur := since(start)

		m.mu.Lock()
		m.adm.plan.Observe(planDur)
		if a, done, ierr := m.idemAllocLocked(co.idemKey); done {
			m.mu.Unlock()
			return a, ierr
		}
		if err != nil {
			// A rejection planned on the current version is authoritative;
			// one planned on a stale snapshot might be cured by a release
			// that landed meanwhile, so it conflicts and retries. Non-
			// capacity errors (a bad request) never depend on the ledger.
			if m.version == ver || !errors.Is(err, ErrNoCapacity) {
				m.mu.Unlock()
				return nil, err
			}
			m.adm.conflicts++
			m.adm.retries++
			m.mu.Unlock()
			continue
		}
		if m.version == ver {
			m.adm.fastPath++
		} else {
			// The ledger moved under the plan: recheck only what the
			// placement touches — free slots on its machines and Eq. 4
			// (O_L < 1) on its contributing links — against live state.
			// The contributions themselves depend only on the topology and
			// the request, never on ledger state, so they remain exact.
			if verr := ValidatePlacement(m.led, contribs, &p, wantVMs); verr != nil {
				m.adm.conflicts++
				m.adm.retries++
				m.mu.Unlock()
				continue
			}
			m.adm.revalidated++
		}
		mut.Placement = &p
		mut.Contribs = exportContribs(contribs)
		a, wait, err := m.admitStagedLocked(mut)
		m.mu.Unlock()
		if err != nil {
			return nil, err
		}
		if err := wait(); err != nil {
			return nil, err
		}
		return a, nil
	}
	return m.allocateUnderLock(co, plan, mut, true)
}

// allocateUnderLock plans on the live ledger with the write lock held —
// the pre-optimistic admission path, kept as the WithLockedAdmission mode
// and as the bounded-retry fallback. Planning and the in-memory apply are
// serialized under the lock, but the journal record is only STAGED there;
// the durability wait runs after the unlock so concurrent locked
// admissions still share one group-commit fsync. (Committing
// synchronously under m.mu — the original behavior — made every
// locked/fsync admission pay a full private fsync while blocking all
// other commits behind it.)
func (m *Manager) allocateUnderLock(co callOpts, plan planFunc, mut Mutation, fallback bool) (*Allocation, error) {
	m.mu.Lock()
	if a, done, err := m.idemAllocLocked(co.idemKey); done {
		m.mu.Unlock()
		return a, err
	}
	start := now()
	p, contribs, err := plan(m.led)
	m.adm.plan.Observe(since(start))
	if err != nil {
		m.mu.Unlock()
		return nil, err
	}
	if fallback {
		m.adm.fallbacks++
	}
	m.adm.locked++
	mut.Placement = &p
	mut.Contribs = exportContribs(contribs)
	a, wait, err := m.admitStagedLocked(mut)
	m.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if err := wait(); err != nil {
		return nil, err
	}
	return a, nil
}

// admitStagedLocked assigns the job ID, stages the journal record, and
// applies the admission. The returned wait must be invoked after m.mu is
// released; it reports durability. A mutation arriving with a preset Job
// (WithJobID — the sharded router's externally allocated IDs) keeps it;
// applyLocked max-merges external IDs into nextID, so sequential and
// external assignment never collide on a manager that sees both.
func (m *Manager) admitStagedLocked(mut Mutation) (*Allocation, func() error, error) {
	if mut.Job == 0 {
		mut.Job = m.nextID + 1
	} else if _, ok := m.jobs[mut.Job]; ok {
		return nil, nil, fmt.Errorf("%w: duplicate job id %d", ErrBadRequest, mut.Job)
	}
	wait, err := m.stageLocked(mut)
	if err != nil {
		return nil, nil, err
	}
	if err := m.applyLocked(mut); err != nil {
		return nil, nil, err
	}
	return m.jobs[mut.Job], wait, nil
}
