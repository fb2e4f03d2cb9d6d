package wal

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
)

// TestFencedErrorPenetratesAdmissionWrap pins the error chain through
// the admission and release paths: when a fenced journal vetoes a staged
// mutation, the core.ErrJournal wrapper must keep the wal.ErrFenced
// sentinel reachable via errors.Is (the wrap uses %w, not %v). Routers
// and failover logic key off ErrFenced to tell a deposed primary apart
// from an ordinary planner rejection.
func TestFencedErrorPenetratesAdmissionWrap(t *testing.T) {
	dir := t.TempDir()
	m, j := mustRecover(t, dir)
	defer j.Close()

	a, err := m.AllocateHomog(homog(1, 2, 1))
	if err != nil {
		t.Fatalf("allocate before fence: %v", err)
	}
	if err := j.Fence(2); err != nil {
		t.Fatalf("fence: %v", err)
	}

	hetero, err := core.NewHeterogeneous([]stats.Normal{{Mu: 2, Sigma: 1}, {Mu: 3, Sigma: 1}})
	if err != nil {
		t.Fatalf("NewHeterogeneous: %v", err)
	}
	_, homogErr := m.AllocateHomog(homog(1, 3, 1))
	_, heteroErr := m.AllocateHetero(hetero)
	for _, tc := range []struct {
		op  string
		err error
	}{
		{"AllocateHomog", homogErr},
		{"AllocateHetero", heteroErr},
		{"Release", m.Release(a.ID)},
	} {
		if tc.err == nil {
			t.Fatalf("%s succeeded on a fenced journal", tc.op)
		}
		if !errors.Is(tc.err, core.ErrJournal) {
			t.Errorf("%s error %v does not unwrap to core.ErrJournal", tc.op, tc.err)
		}
		if !errors.Is(tc.err, ErrFenced) {
			t.Errorf("%s error %v does not unwrap to wal.ErrFenced", tc.op, tc.err)
		}
	}
}
