// Package httpapi exposes the SVC network manager as a JSON-over-HTTP
// service — the deployable form of the paper's "network manager" component
// that receives tenant requests, performs admission control and VM
// allocation, and releases reservations when jobs finish.
//
// Endpoints (all JSON):
//
//	POST   /v1/allocations        admit a request; 201 with the placement,
//	                              409 when rejected for capacity
//	DELETE /v1/allocations/{id}   release an admitted job; 204 on success
//	POST   /v1/dryrun             report feasibility without committing
//	POST   /v1/headroom           how many copies of a request would fit
//	GET    /v1/status             datacenter-wide counters
//	GET    /v1/links              per-link reservation state, most loaded first
//	POST   /v1/faults             fail or restore a machine or link
//	POST   /v1/repairs            re-place displaced jobs (one or all)
//	GET    /v1/failures           fault and repair counters
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/topology"
)

// maxBodyBytes caps request bodies; every endpoint's JSON fits well
// within it, and anything larger is a client bug or abuse.
const maxBodyBytes = 1 << 20

// IdempotencyHeader carries the client's idempotency key. Mutating
// requests (allocate, release, fault) that repeat a key replay the
// original outcome instead of re-executing; the binding is journaled with
// the mutation, so it survives a controller restart.
const IdempotencyHeader = "Idempotency-Key"

// AllocationRequest is the wire form of a tenant request; exactly one of
// the three shapes must be set:
//
//   - homogeneous SVC:      n, mu, sigma
//   - deterministic VC:     n, bandwidth
//   - heterogeneous SVC:    demands
type AllocationRequest struct {
	N         int          `json:"n,omitempty"`
	Mu        float64      `json:"mu,omitempty"`
	Sigma     float64      `json:"sigma,omitempty"`
	Bandwidth float64      `json:"bandwidth,omitempty"`
	Demands   []DemandSpec `json:"demands,omitempty"`
}

// DemandSpec is one VM's demand distribution on the wire.
type DemandSpec struct {
	Mu    float64 `json:"mu"`
	Sigma float64 `json:"sigma,omitempty"`
}

// AllocationResponse reports an admitted placement.
type AllocationResponse struct {
	ID        int64            `json:"id"`
	VMs       int              `json:"vms"`
	Placement []PlacementEntry `json:"placement"`
}

// PlacementEntry is one machine's share of a placement.
type PlacementEntry struct {
	Machine int   `json:"machine"`
	Count   int   `json:"count"`
	VMs     []int `json:"vmIndices,omitempty"`
}

// Status reports datacenter-wide state.
type Status struct {
	Machines     int                `json:"machines"`
	TotalSlots   int                `json:"totalSlots"`
	FreeSlots    int                `json:"freeSlots"`
	RunningJobs  int                `json:"runningJobs"`
	MaxOccupancy float64            `json:"maxOccupancy"`
	Epsilon      float64            `json:"epsilon"`
	MachinesDown int                `json:"machinesDown,omitempty"`
	LinksDown    int                `json:"linksDown,omitempty"`
	DegradedJobs int                `json:"degradedJobs,omitempty"`
	Admission    *AdmissionStatus   `json:"admission,omitempty"`
	WAL          *WALStatus         `json:"wal,omitempty"`
	Replication  *ReplicationStatus `json:"replication,omitempty"`
	Sharding     *ShardingStatus    `json:"sharding,omitempty"`
}

// ShardingStatus reports the sharded control plane's layout and load.
// The daemon injects it via SetSharding when running with -shards.
type ShardingStatus struct {
	Mode         string      `json:"mode"`
	Shards       int         `json:"shards"`
	CrossPodJobs int         `json:"crossPodJobs"`
	Pods         []PodStatus `json:"pods"`
}

// PodStatus is one shard's slice of the status surface.
type PodStatus struct {
	Shard        int     `json:"shard"`
	Root         int     `json:"root"`
	Jobs         int     `json:"jobs"`
	FreeSlots    int     `json:"freeSlots"`
	MaxOccupancy float64 `json:"maxOccupancy"`
}

// AdmissionStatus reports how admissions traveled through the optimistic
// plan/validate/commit pipeline (see core.AdmissionStats).
type AdmissionStatus struct {
	FastPath    int64   `json:"fastPath"`
	Revalidated int64   `json:"revalidated"`
	Conflicts   int64   `json:"conflicts"`
	Retries     int64   `json:"retries"`
	Fallbacks   int64   `json:"fallbacks"`
	Locked      int64   `json:"locked"`
	Plans       int64   `json:"plans"`
	MeanPlanMs  float64 `json:"meanPlanMillis"`

	// Plan-cache counters: how admission planning reused memoized DP
	// tables (see core.AdmissionStats).
	PlanCacheHits          int64 `json:"planCacheHits"`
	PlanCacheMisses        int64 `json:"planCacheMisses"`
	PlanCacheInvalidations int64 `json:"planCacheInvalidations"`
	PlanCacheEvictions     int64 `json:"planCacheEvictions"`
}

// WALStatus reports write-ahead-log activity, including group-commit
// batching. The daemon injects it via SetWALStatus when journaling is on.
type WALStatus struct {
	Gen       uint64  `json:"gen"`
	Appended  int     `json:"appended"`
	Batches   int64   `json:"batches"`
	Records   int64   `json:"records"`
	MaxBatch  int64   `json:"maxBatch"`
	MeanBatch float64 `json:"meanBatch"`
}

// FaultRequest fails or restores one machine or one link; exactly one of
// Machine and Link must be set.
type FaultRequest struct {
	Machine *int `json:"machine,omitempty"`
	Link    *int `json:"link,omitempty"`
	Restore bool `json:"restore,omitempty"`
}

// FaultResponse lists the jobs displaced by the current fault set.
type FaultResponse struct {
	AffectedJobs []int64 `json:"affectedJobs"`
}

// RepairRequest names the job to repair; a null or absent job repairs
// every displaced job.
type RepairRequest struct {
	Job *int64 `json:"job,omitempty"`
}

// RepairResult reports one repair attempt on the wire.
type RepairResult struct {
	Job          int64            `json:"job"`
	Outcome      string           `json:"outcome"`
	MovedVMs     int              `json:"movedVMs"`
	EffectiveEps float64          `json:"effectiveEps"`
	ElapsedMs    float64          `json:"elapsedMillis"`
	Placement    []PlacementEntry `json:"placement,omitempty"`
}

// LinkStatus reports one link's reservation state.
type LinkStatus struct {
	Link              int     `json:"link"`
	Capacity          float64 `json:"capacityMbps"`
	Occupancy         float64 `json:"occupancy"`
	DetReserved       float64 `json:"detReservedMbps"`
	StochasticDemands int     `json:"stochasticDemands"`
}

// DryRunResponse reports feasibility without commitment.
type DryRunResponse struct {
	Feasible bool `json:"feasible"`
}

// HeadroomRequest asks how many copies of a homogeneous request fit.
type HeadroomRequest struct {
	N     int     `json:"n"`
	Mu    float64 `json:"mu,omitempty"`
	Sigma float64 `json:"sigma,omitempty"`
	Limit int     `json:"limit,omitempty"`
}

// HeadroomResponse reports the capacity-planning count.
type HeadroomResponse struct {
	Fits int `json:"fits"`
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// Controller is the admission-control surface the HTTP layer serves.
// Both the unsharded *core.Manager and the sharded shard.Router satisfy
// it, so one server binary fronts either control plane; the handlers
// never reach past this interface.
type Controller interface {
	AllocateHomog(req core.Homogeneous, opts ...core.CallOption) (*core.Allocation, error)
	AllocateHetero(req core.Heterogeneous, opts ...core.CallOption) (*core.Allocation, error)
	Release(id core.JobID, opts ...core.CallOption) error
	CanAllocateHomog(req core.Homogeneous) bool
	CanAllocateHetero(req core.Heterogeneous) bool
	Headroom(req core.Homogeneous, limit int) (int, error)

	Topology() *topology.Topology
	Epsilon() float64
	FreeSlots() int
	Running() int
	MaxOccupancy() float64
	AdmissionStats() core.AdmissionStats
	FailureStats() core.FailureStats
	LinkLoads() []core.LinkLoad
	ExportState() *core.ManagerState

	FailMachine(id topology.NodeID, opts ...core.CallOption) ([]core.JobID, error)
	RestoreMachine(id topology.NodeID, opts ...core.CallOption) error
	FailLink(id topology.LinkID, opts ...core.CallOption) ([]core.JobID, error)
	RestoreLink(id topology.LinkID, opts ...core.CallOption) error
	AffectedJobs() []core.JobID
	RepairJob(id core.JobID) (core.RepairResult, error)
	RepairAll() ([]core.RepairResult, error)
}

// ctrlBox wraps the interface so it fits an atomic.Pointer (which needs
// one concrete type).
type ctrlBox struct{ c Controller }

// Server wraps a network manager with the HTTP interface.
type Server struct {
	ctrl      atomic.Pointer[ctrlBox]
	mux       *http.ServeMux
	draining  atomic.Bool
	standby   atomic.Bool
	walStatus atomic.Pointer[func() WALStatus]
	sharding  atomic.Pointer[func() *ShardingStatus]

	// Replication seams, injected by the daemon (closures keep this
	// package free of wal/replica dependencies). All four are atomics:
	// promotion installs a journal's seams on a server that is already
	// taking requests.
	tail        atomic.Pointer[func(ctx context.Context, q WALTailQuery) (WALChunk, error)]
	promote     atomic.Pointer[func(ctx context.Context) (PromoteResponse, error)]
	fence       atomic.Pointer[func(epoch uint64) error]
	replication atomic.Pointer[func() *ReplicationStatus]
}

// NewServer returns a server over the unsharded manager.
func NewServer(mgr *core.Manager) *Server { return NewControllerServer(mgr) }

// NewControllerServer returns a server over any Controller — an
// unsharded manager or a sharded router.
func NewControllerServer(c Controller) *Server {
	s := &Server{mux: http.NewServeMux()}
	s.ctrl.Store(&ctrlBox{c: c})
	s.mux.HandleFunc("POST /v1/allocations", s.handleAllocate)
	s.mux.HandleFunc("DELETE /v1/allocations/{id}", s.handleRelease)
	s.mux.HandleFunc("POST /v1/dryrun", s.handleDryRun)
	s.mux.HandleFunc("POST /v1/headroom", s.handleHeadroom)
	s.mux.HandleFunc("GET /v1/status", s.handleStatus)
	s.mux.HandleFunc("GET /v1/links", s.handleLinks)
	s.mux.HandleFunc("POST /v1/faults", s.handleFault)
	s.mux.HandleFunc("POST /v1/repairs", s.handleRepair)
	s.mux.HandleFunc("GET /v1/failures", s.handleFailures)
	s.mux.HandleFunc("GET /v1/state", s.handleState)
	s.mux.HandleFunc("GET /v1/wal", s.handleWALTail)
	s.mux.HandleFunc("POST /v1/promote", s.handlePromote)
	s.mux.HandleFunc("POST /v1/fence", s.handleFence)
	return s
}

// manager returns the controller serving requests right now. One load
// per handler: a request observes either the pre- or post-promotion
// controller, never a mix.
func (s *Server) manager() Controller { return s.ctrl.Load().c }

// SetManager swaps the manager serving requests — promotion replaces a
// standby's follower manager with the recovered, journaled primary one.
// In-flight requests finish against the manager they loaded.
func (s *Server) SetManager(mgr *core.Manager) { s.SetController(mgr) }

// SetController swaps the controller serving requests; see SetManager.
func (s *Server) SetController(c Controller) { s.ctrl.Store(&ctrlBox{c: c}) }

// SetSharding installs the shard-status provider surfaced under the
// "sharding" key of /v1/status. A closure keeps this package free of a
// shard dependency (mirroring SetWALStatus).
func (s *Server) SetSharding(fn func() *ShardingStatus) {
	if fn == nil {
		s.sharding.Store(nil)
		return
	}
	s.sharding.Store(&fn)
}

// SetWALStatus installs the journal-state provider surfaced under the
// "wal" key of /v1/status. A closure keeps this package free of a wal
// dependency.
func (s *Server) SetWALStatus(fn func() WALStatus) {
	if fn == nil {
		s.walStatus.Store(nil)
		return
	}
	s.walStatus.Store(&fn)
}

// SetDraining switches the server in or out of drain mode. While
// draining, every non-GET request is refused with 503 and a Retry-After
// hint so clients fail over; reads keep working until shutdown.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// SetStandby switches the server in or out of standby mode: writes are
// refused with 503 (clients rotate to the primary), reads serve from
// the follower manager, and the promote/fence endpoints stay reachable
// so an operator can effect the failover.
func (s *Server) SetStandby(v bool) { s.standby.Store(v) }

// Handler returns the http.Handler serving the API.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && !controlPath(r.URL.Path) {
			if s.draining.Load() {
				w.Header().Set("Retry-After", "1")
				writeError(w, http.StatusServiceUnavailable, errors.New("server is draining"))
				return
			}
			if s.standby.Load() {
				w.Header().Set("Retry-After", "1")
				writeError(w, http.StatusServiceUnavailable, errors.New("standby: this node is not the primary"))
				return
			}
		}
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		s.mux.ServeHTTP(w, r)
	})
}

// controlPath lists the failover-control endpoints that bypass the
// drain and standby gates: promotion targets a standby by design, and
// fencing targets a primary that may already be draining.
func controlPath(path string) bool {
	return path == "/v1/promote" || path == "/v1/fence"
}

// buildRequests converts the wire request into a core request, returning
// exactly one of the two supported kinds.
func (r *AllocationRequest) build() (homog *core.Homogeneous, hetero *core.Heterogeneous, err error) {
	switch {
	case len(r.Demands) > 0:
		demands := make([]stats.Normal, len(r.Demands))
		for i, d := range r.Demands {
			demands[i] = stats.Normal{Mu: d.Mu, Sigma: d.Sigma}
		}
		req, err := core.NewHeterogeneous(demands)
		if err != nil {
			return nil, nil, err
		}
		return nil, &req, nil
	case r.Bandwidth > 0:
		req, err := core.NewDeterministic(r.N, r.Bandwidth)
		if err != nil {
			return nil, nil, err
		}
		return &req, nil, nil
	default:
		req, err := core.NewHomogeneous(r.N, stats.Normal{Mu: r.Mu, Sigma: r.Sigma})
		if err != nil {
			return nil, nil, err
		}
		return &req, nil, nil
	}
}

func (s *Server) handleAllocate(w http.ResponseWriter, req *http.Request) {
	mgr := s.manager()
	var wire AllocationRequest
	if err := decodeJSON(req, &wire); err != nil {
		writeError(w, decodeStatus(err), err)
		return
	}
	homog, hetero, err := wire.build()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	key := req.Header.Get(IdempotencyHeader)
	var alloc *core.Allocation
	if homog != nil {
		alloc, err = mgr.AllocateHomog(*homog, core.WithIdemKey(key))
	} else {
		alloc, err = mgr.AllocateHetero(*hetero, core.WithIdemKey(key))
	}
	switch {
	case errors.Is(err, core.ErrNoCapacity):
		writeError(w, http.StatusConflict, err)
		return
	case errors.Is(err, core.ErrBadRequest):
		writeError(w, http.StatusBadRequest, err)
		return
	case errors.Is(err, core.ErrIdemConflict):
		writeError(w, http.StatusConflict, err)
		return
	case errors.Is(err, core.ErrJournal):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	resp := AllocationResponse{ID: int64(alloc.ID), VMs: alloc.Placement.TotalVMs()}
	for _, e := range alloc.Placement.Entries {
		resp.Placement = append(resp.Placement, PlacementEntry{
			Machine: int(e.Machine), Count: e.Count, VMs: e.VMs,
		})
	}
	writeJSON(w, http.StatusCreated, resp)
}

func (s *Server) handleRelease(w http.ResponseWriter, req *http.Request) {
	mgr := s.manager()
	id, err := strconv.ParseInt(req.PathValue("id"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad allocation id: %w", err))
		return
	}
	key := req.Header.Get(IdempotencyHeader)
	if err := mgr.Release(core.JobID(id), core.WithIdemKey(key)); err != nil {
		switch {
		case errors.Is(err, core.ErrUnknownJob):
			writeError(w, http.StatusNotFound, err)
		case errors.Is(err, core.ErrIdemConflict):
			writeError(w, http.StatusConflict, err)
		case errors.Is(err, core.ErrJournal):
			writeError(w, http.StatusServiceUnavailable, err)
		default:
			writeError(w, http.StatusInternalServerError, err)
		}
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleDryRun(w http.ResponseWriter, req *http.Request) {
	mgr := s.manager()
	var wire AllocationRequest
	if err := decodeJSON(req, &wire); err != nil {
		writeError(w, decodeStatus(err), err)
		return
	}
	homog, hetero, err := wire.build()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	feasible := false
	if homog != nil {
		feasible = mgr.CanAllocateHomog(*homog)
	} else {
		feasible = mgr.CanAllocateHetero(*hetero)
	}
	writeJSON(w, http.StatusOK, DryRunResponse{Feasible: feasible})
}

func (s *Server) handleHeadroom(w http.ResponseWriter, req *http.Request) {
	mgr := s.manager()
	var wire HeadroomRequest
	if err := decodeJSON(req, &wire); err != nil {
		writeError(w, decodeStatus(err), err)
		return
	}
	hreq, err := core.NewHomogeneous(wire.N, stats.Normal{Mu: wire.Mu, Sigma: wire.Sigma})
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	fits, err := mgr.Headroom(hreq, wire.Limit)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, HeadroomResponse{Fits: fits})
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	mgr := s.manager()
	topo := mgr.Topology()
	fstats := mgr.FailureStats()
	adm := mgr.AdmissionStats()
	st := Status{
		Machines:     len(topo.Machines()),
		TotalSlots:   topo.TotalSlots(),
		FreeSlots:    mgr.FreeSlots(),
		RunningJobs:  mgr.Running(),
		MaxOccupancy: mgr.MaxOccupancy(),
		Epsilon:      mgr.Epsilon(),
		MachinesDown: fstats.MachinesDown,
		LinksDown:    fstats.LinksDown,
		DegradedJobs: fstats.DegradedJobs,
		Admission: &AdmissionStatus{
			FastPath:    adm.FastPath,
			Revalidated: adm.Revalidated,
			Conflicts:   adm.Conflicts,
			Retries:     adm.Retries,
			Fallbacks:   adm.Fallbacks,
			Locked:      adm.Locked,
			Plans:       adm.Plan.Count,
			MeanPlanMs:  float64(adm.Plan.Mean()) / 1e6,

			PlanCacheHits:          adm.PlanCacheHits,
			PlanCacheMisses:        adm.PlanCacheMisses,
			PlanCacheInvalidations: adm.PlanCacheInvalidations,
			PlanCacheEvictions:     adm.PlanCacheEvictions,
		},
	}
	if fn := s.walStatus.Load(); fn != nil {
		ws := (*fn)()
		st.WAL = &ws
	}
	if fn := s.replication.Load(); fn != nil {
		st.Replication = (*fn)()
	}
	if fn := s.sharding.Load(); fn != nil {
		st.Sharding = (*fn)()
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleFault(w http.ResponseWriter, req *http.Request) {
	mgr := s.manager()
	var wire FaultRequest
	if err := decodeJSON(req, &wire); err != nil {
		writeError(w, decodeStatus(err), err)
		return
	}
	if (wire.Machine == nil) == (wire.Link == nil) {
		writeError(w, http.StatusBadRequest, errors.New("set exactly one of machine and link"))
		return
	}
	topo := mgr.Topology()
	key := core.WithIdemKey(req.Header.Get(IdempotencyHeader))
	var (
		affected []core.JobID
		err      error
	)
	switch {
	case wire.Machine != nil:
		id := topology.NodeID(*wire.Machine)
		if id < 0 || int(id) >= topo.Len() || !topo.Node(id).IsMachine() {
			writeError(w, http.StatusBadRequest, fmt.Errorf("node %d is not a machine", id))
			return
		}
		if wire.Restore {
			err = mgr.RestoreMachine(id, key)
		} else {
			affected, err = mgr.FailMachine(id, key)
		}
	default:
		id := topology.LinkID(*wire.Link)
		if id < 0 || int(id) >= topo.Len() || topo.Node(topology.NodeID(id)).Parent == topology.None {
			writeError(w, http.StatusBadRequest, fmt.Errorf("node %d has no uplink", id))
			return
		}
		if wire.Restore {
			err = mgr.RestoreLink(id, key)
		} else {
			affected, err = mgr.FailLink(id, key)
		}
	}
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, core.ErrJournal) {
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, err)
		return
	}
	if wire.Restore {
		affected = mgr.AffectedJobs()
	}
	resp := FaultResponse{AffectedJobs: make([]int64, 0, len(affected))}
	for _, id := range affected {
		resp.AffectedJobs = append(resp.AffectedJobs, int64(id))
	}
	writeJSON(w, http.StatusOK, resp)
}

// wireRepair converts one repair outcome to its wire form.
func wireRepair(res core.RepairResult) RepairResult {
	out := RepairResult{
		Job:          int64(res.Job),
		Outcome:      res.Outcome.String(),
		MovedVMs:     res.MovedVMs,
		EffectiveEps: res.EffectiveEps,
		ElapsedMs:    float64(res.Elapsed) / 1e6,
	}
	for _, e := range res.Placement.Entries {
		out.Placement = append(out.Placement, PlacementEntry{
			Machine: int(e.Machine), Count: e.Count, VMs: e.VMs,
		})
	}
	return out
}

func (s *Server) handleRepair(w http.ResponseWriter, req *http.Request) {
	mgr := s.manager()
	var wire RepairRequest
	if err := decodeJSON(req, &wire); err != nil && !errors.Is(err, io.EOF) {
		writeError(w, decodeStatus(err), err)
		return
	}
	if wire.Job != nil {
		res, err := mgr.RepairJob(core.JobID(*wire.Job))
		if errors.Is(err, core.ErrUnknownJob) {
			writeError(w, http.StatusNotFound, err)
			return
		}
		if errors.Is(err, core.ErrJournal) {
			writeError(w, http.StatusServiceUnavailable, err)
			return
		}
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusOK, []RepairResult{wireRepair(res)})
		return
	}
	results, err := mgr.RepairAll()
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, core.ErrJournal) {
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, err)
		return
	}
	out := make([]RepairResult, 0, len(results))
	for _, res := range results {
		out = append(out, wireRepair(res))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleFailures(w http.ResponseWriter, _ *http.Request) {
	mgr := s.manager()
	writeJSON(w, http.StatusOK, mgr.FailureStats())
}

// handleState exports the manager's full serializable state — the same
// snapshot the WAL checkpoints — so external tooling (scenario runners,
// differential tests, state inspectors) can compare a live daemon
// bit-for-bit against an offline manager. Floats round-trip exactly
// through JSON (see core.ManagerState).
func (s *Server) handleState(w http.ResponseWriter, _ *http.Request) {
	mgr := s.manager()
	writeJSON(w, http.StatusOK, mgr.ExportState())
}

func (s *Server) handleLinks(w http.ResponseWriter, req *http.Request) {
	mgr := s.manager()
	loads := mgr.LinkLoads()
	out := make([]LinkStatus, 0, len(loads))
	for _, ll := range loads {
		out = append(out, LinkStatus{
			Link:              int(ll.Link),
			Capacity:          ll.Capacity,
			Occupancy:         ll.Occupancy,
			DetReserved:       ll.DetLoad,
			StochasticDemands: ll.Stochastic,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Occupancy > out[j].Occupancy })
	if limit := req.URL.Query().Get("limit"); limit != "" {
		n, err := strconv.Atoi(limit)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", limit))
			return
		}
		if n < len(out) {
			out = out[:n]
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func decodeJSON(req *http.Request, v any) error {
	dec := json.NewDecoder(req.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return errTooLarge
		}
		return fmt.Errorf("decode request: %w", err)
	}
	return nil
}

// errTooLarge marks a request body over maxBodyBytes; handlers surface it
// as 413 rather than a generic 400.
var errTooLarge = errors.New("request body too large")

// decodeStatus maps a decodeJSON error to its HTTP status.
func decodeStatus(err error) int {
	if errors.Is(err, errTooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding to a ResponseWriter can only fail on a broken connection;
	// there is nothing useful to do with the error at that point.
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}
