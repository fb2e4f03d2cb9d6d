package scenario

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/core"
	"repro/internal/httpapi"
	"repro/internal/topology"
)

// Backend is the runner seam: the engine drives exactly the same call
// sequence against an offline in-process manager (SimBackend) and a live
// svcd daemon over HTTP (LiveBackend), so the two must agree on every
// admission outcome — the differential test asserts precisely that.
type Backend interface {
	Name() string
	// Allocate submits one admission request; a capacity rejection is
	// reported via AdmitResult.Admitted, not an error.
	Allocate(req core.Homogeneous) (AdmitResult, error)
	Release(id int64) error
	// Apply injects one fault-schedule event. The engine pre-filters
	// no-op events, so every call changes fault state.
	Apply(ev Event) error
	// RepairAll re-places every displaced job, in job-ID order.
	RepairAll() ([]Repair, error)
	Stats() (Stats, error)
	// State exports the manager's full serializable state.
	State() (*core.ManagerState, error)
	Close() error
}

// Failoverer is the optional backend capability behind chaos.failovers:
// crash the controller's primary and promote its hot standby. The
// datacenter state (jobs, placements, reservations, idempotency table)
// must survive the switch bit-identically; a backend whose failover
// loses or doubles state will trip the engine's conservation mirror at
// the next sample.
type Failoverer interface {
	Failover() error
}

// AdmitResult is one admission outcome.
type AdmitResult struct {
	Admitted  bool
	ID        int64
	Placement []Entry
}

// Entry is one machine's share of a placement.
type Entry struct {
	Machine topology.NodeID
	Count   int
}

// Repair is one repair outcome ("noop" | "moved" | "degraded" |
// "failed"; failed jobs are evicted server-side).
type Repair struct {
	ID        int64
	Outcome   string
	Placement []Entry
}

// Stats is the backend state the engine samples.
type Stats struct {
	Running      int
	FreeSlots    int
	MaxOccupancy float64
}

// SimBackend drives a core.Manager in-process: the fast, deterministic
// offline runner.
type SimBackend struct {
	mgr  *core.Manager
	topo *topology.Topology
	eps  float64
}

// NewSimBackend builds the offline backend over a fresh manager with
// svcd's admission pipeline.
func NewSimBackend(topo *topology.Topology, eps float64) (*SimBackend, error) {
	mgr, err := core.NewManager(topo, eps)
	if err != nil {
		return nil, err
	}
	return &SimBackend{mgr: mgr, topo: topo, eps: eps}, nil
}

// Failover models a controller switch offline: the successor is rebuilt
// from the predecessor's exported state, exactly as a promoted standby
// reconstructs it from the replicated WAL. Job IDs, reservations, and
// the idempotency table all carry over, so admissions after the switch
// are indistinguishable from a run without one.
func (b *SimBackend) Failover() error {
	mgr, err := core.NewManagerFromState(b.topo, b.eps, b.mgr.ExportState())
	if err != nil {
		return fmt.Errorf("scenario: sim failover: %w", err)
	}
	b.mgr = mgr
	return nil
}

// Manager exposes the backing manager (differential tests compare it to
// the live daemon's exported state).
func (b *SimBackend) Manager() *core.Manager { return b.mgr }

func (b *SimBackend) Name() string { return "sim" }

func (b *SimBackend) Allocate(req core.Homogeneous) (AdmitResult, error) {
	alloc, err := b.mgr.AllocateHomog(req)
	if errors.Is(err, core.ErrNoCapacity) {
		return AdmitResult{}, nil
	}
	if err != nil {
		return AdmitResult{}, err
	}
	out := AdmitResult{Admitted: true, ID: int64(alloc.ID)}
	for _, e := range alloc.Placement.Entries {
		out.Placement = append(out.Placement, Entry{Machine: e.Machine, Count: e.Count})
	}
	return out, nil
}

func (b *SimBackend) Release(id int64) error {
	return b.mgr.Release(core.JobID(id))
}

func (b *SimBackend) Apply(ev Event) error {
	var err error
	switch ev.Kind {
	case EvFailMachine:
		_, err = b.mgr.FailMachine(ev.Node)
	case EvRestoreMachine:
		err = b.mgr.RestoreMachine(ev.Node)
	case EvFailLink:
		_, err = b.mgr.FailLink(ev.Node)
	case EvRestoreLink:
		err = b.mgr.RestoreLink(ev.Node)
	default:
		err = fmt.Errorf("scenario: unknown event kind %v", ev.Kind)
	}
	return err
}

func (b *SimBackend) RepairAll() ([]Repair, error) {
	results, err := b.mgr.RepairAll()
	if err != nil {
		return nil, err
	}
	out := make([]Repair, len(results))
	for i, r := range results {
		out[i] = Repair{ID: int64(r.Job), Outcome: r.Outcome.String()}
		for _, e := range r.Placement.Entries {
			out[i].Placement = append(out[i].Placement, Entry{Machine: e.Machine, Count: e.Count})
		}
	}
	return out, nil
}

func (b *SimBackend) Stats() (Stats, error) {
	return Stats{
		Running:      b.mgr.Running(),
		FreeSlots:    b.mgr.FreeSlots(),
		MaxOccupancy: b.mgr.MaxOccupancy(),
	}, nil
}

func (b *SimBackend) State() (*core.ManagerState, error) {
	return b.mgr.ExportState(), nil
}

func (b *SimBackend) Close() error { return nil }

// LiveBackend drives a running svcd daemon through the HTTP client,
// exercising the wire protocol, the admission pipeline, the faults and
// repair endpoints, and (when the daemon journals) the WAL.
type LiveBackend struct {
	client *httpapi.Client
	ctx    context.Context

	// failover crashes the current primary, promotes its standby, and
	// returns the new primary's base URL (see LocalPair.Failover).
	failover func() (string, error)
}

// NewLiveBackend wraps an svcd base URL ("http://host:port").
func NewLiveBackend(base string) *LiveBackend {
	return &LiveBackend{
		client: httpapi.NewClient(base, &http.Client{}),
		ctx:    context.Background(),
	}
}

// SetFailover arms the failover seam. The callback must complete the
// switch — drain, promote, crash — and return the successor's URL; the
// backend re-points its client there for every subsequent call.
func (b *LiveBackend) SetFailover(fn func() (string, error)) { b.failover = fn }

func (b *LiveBackend) Failover() error {
	if b.failover == nil {
		return errors.New("scenario: live backend has no standby to fail over to")
	}
	url, err := b.failover()
	if err != nil {
		return err
	}
	b.client = httpapi.NewClient(url, &http.Client{})
	return nil
}

func (b *LiveBackend) Name() string { return "live" }

func (b *LiveBackend) Allocate(req core.Homogeneous) (AdmitResult, error) {
	wire := httpapi.AllocationRequest{N: req.N}
	if req.Deterministic() {
		wire.Bandwidth = req.Demand.Mu
	} else {
		wire.Mu = req.Demand.Mu
		wire.Sigma = req.Demand.Sigma
	}
	resp, err := b.client.Allocate(b.ctx, wire)
	if httpapi.IsNoCapacity(err) {
		return AdmitResult{}, nil
	}
	if err != nil {
		return AdmitResult{}, err
	}
	out := AdmitResult{Admitted: true, ID: resp.ID}
	for _, e := range resp.Placement {
		out.Placement = append(out.Placement, Entry{Machine: topology.NodeID(e.Machine), Count: e.Count})
	}
	return out, nil
}

func (b *LiveBackend) Release(id int64) error {
	return b.client.Release(b.ctx, id)
}

func (b *LiveBackend) Apply(ev Event) error {
	node := int(ev.Node)
	req := httpapi.FaultRequest{}
	switch ev.Kind {
	case EvFailMachine:
		req.Machine = &node
	case EvRestoreMachine:
		req.Machine = &node
		req.Restore = true
	case EvFailLink:
		req.Link = &node
	case EvRestoreLink:
		req.Link = &node
		req.Restore = true
	default:
		return fmt.Errorf("scenario: unknown event kind %v", ev.Kind)
	}
	_, err := b.client.Fault(b.ctx, req)
	return err
}

func (b *LiveBackend) RepairAll() ([]Repair, error) {
	results, err := b.client.RepairAll(b.ctx)
	if err != nil {
		return nil, err
	}
	out := make([]Repair, len(results))
	for i, r := range results {
		out[i] = Repair{ID: r.Job, Outcome: r.Outcome}
		for _, e := range r.Placement {
			out[i].Placement = append(out[i].Placement, Entry{Machine: topology.NodeID(e.Machine), Count: e.Count})
		}
	}
	return out, nil
}

func (b *LiveBackend) Stats() (Stats, error) {
	st, err := b.client.Status(b.ctx)
	if err != nil {
		return Stats{}, err
	}
	return Stats{
		Running:      st.RunningJobs,
		FreeSlots:    st.FreeSlots,
		MaxOccupancy: st.MaxOccupancy,
	}, nil
}

func (b *LiveBackend) State() (*core.ManagerState, error) {
	st, err := b.client.State(b.ctx)
	if err != nil {
		return nil, err
	}
	return &st, nil
}

func (b *LiveBackend) Close() error { return nil }
