package wal

import (
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/topology"
)

// record is the JSON payload of one journaled mutation. The committed
// placement and per-link contributions are stored verbatim — replay never
// re-runs the allocation DP, which is what makes recovery bit-identical
// even where the DP could tie-break differently.
type record struct {
	Op        string              `json:"op"`
	Job       int64               `json:"job,omitempty"`
	Homog     *core.HomogSpec     `json:"homog,omitempty"`
	Hetero    []core.DemandSpec   `json:"hetero,omitempty"`
	Placement []core.EntryState   `json:"placement,omitempty"`
	Contribs  []core.Contribution `json:"contribs,omitempty"`
	Node      int                 `json:"node,omitempty"`
	Link      int                 `json:"link,omitempty"`
	Offline   bool                `json:"offline,omitempty"`
	Outcome   string              `json:"outcome,omitempty"`
	Eps       float64             `json:"eps,omitempty"`
	IdemKey   string              `json:"idem_key,omitempty"`
	Epoch     uint64              `json:"epoch,omitempty"`
}

// epochOp marks a journal-level fencing record: "every mutation after
// this point was committed by the primary of epoch N". Epoch records
// never reach the manager — they carry no state — so the exported
// ManagerState stays bit-identical with or without them. An unfenced
// log with no epoch record is implicitly epoch 1, which keeps every
// pre-replication log byte-compatible.
const epochOp = "epoch"

// encodeEpochRecord serializes an epoch advance to a frame payload.
func encodeEpochRecord(epoch uint64) ([]byte, error) {
	return json.Marshal(record{Op: epochOp, Epoch: epoch})
}

var opNames = map[core.MutationOp]string{
	core.OpAlloc:          "alloc",
	core.OpRelease:        "release",
	core.OpFailMachine:    "fail_machine",
	core.OpRestoreMachine: "restore_machine",
	core.OpFailLink:       "fail_link",
	core.OpRestoreLink:    "restore_link",
	core.OpSetOffline:     "set_offline",
	core.OpRepair:         "repair",
}

var opValues = func() map[string]core.MutationOp {
	m := make(map[string]core.MutationOp, len(opNames))
	for op, name := range opNames {
		m[name] = op
	}
	return m
}()

var outcomeNames = map[core.RepairOutcome]string{
	core.RepairNoop:     "noop",
	core.RepairMoved:    "moved",
	core.RepairDegraded: "degraded",
	core.RepairFailed:   "failed",
}

var outcomeValues = func() map[string]core.RepairOutcome {
	m := make(map[string]core.RepairOutcome, len(outcomeNames))
	for o, name := range outcomeNames {
		m[name] = o
	}
	return m
}()

// encodeMutation serializes one mutation to a frame payload.
func encodeMutation(mut core.Mutation) ([]byte, error) {
	name, ok := opNames[mut.Op]
	if !ok {
		return nil, fmt.Errorf("wal: unknown mutation op %d", int(mut.Op))
	}
	rec := record{
		Op:      name,
		Job:     int64(mut.Job),
		Node:    int(mut.Node),
		Link:    int(mut.Link),
		Offline: mut.Offline,
		Eps:     mut.EffectiveEps,
		IdemKey: mut.IdemKey,
	}
	if mut.Homog != nil {
		h := core.HomogSpecOf(*mut.Homog)
		rec.Homog = &h
	}
	if mut.Hetero != nil {
		rec.Hetero = core.HeteroSpecOf(*mut.Hetero)
	}
	if mut.Placement != nil {
		rec.Placement = core.ExportPlacement(mut.Placement)
	}
	rec.Contribs = mut.Contribs
	if mut.Op == core.OpRepair {
		oname, ok := outcomeNames[mut.Outcome]
		if !ok {
			return nil, fmt.Errorf("wal: unknown repair outcome %d", int(mut.Outcome))
		}
		rec.Outcome = oname
	}
	return json.Marshal(rec)
}

// decodeMutation parses one frame payload back into a mutation. It never
// panics on malformed input: structural problems surface as errors, and
// semantic validation happens later in Manager.Replay.
func decodeMutation(payload []byte) (core.Mutation, error) {
	var rec record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return core.Mutation{}, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	return rec.mutation()
}

// mutation converts a decoded mutation record to a core.Mutation.
func (rec *record) mutation() (core.Mutation, error) {
	op, ok := opValues[rec.Op]
	if !ok {
		return core.Mutation{}, fmt.Errorf("%w: unknown op %q", ErrCorrupt, rec.Op)
	}
	mut := core.Mutation{
		Op:           op,
		Job:          core.JobID(rec.Job),
		Contribs:     rec.Contribs,
		Node:         topology.NodeID(rec.Node),
		Link:         topology.LinkID(rec.Link),
		Offline:      rec.Offline,
		EffectiveEps: rec.Eps,
		IdemKey:      rec.IdemKey,
	}
	if rec.Homog != nil {
		req, err := rec.Homog.Request()
		if err != nil {
			return core.Mutation{}, fmt.Errorf("%w: %w", ErrCorrupt, err)
		}
		mut.Homog = &req
	}
	if rec.Hetero != nil {
		req, err := core.HeteroRequest(rec.Hetero)
		if err != nil {
			return core.Mutation{}, fmt.Errorf("%w: %w", ErrCorrupt, err)
		}
		mut.Hetero = &req
	}
	if rec.Placement != nil {
		p := core.ImportPlacement(rec.Placement)
		mut.Placement = &p
	}
	if op == core.OpRepair {
		outcome, ok := outcomeValues[rec.Outcome]
		if !ok {
			return core.Mutation{}, fmt.Errorf("%w: unknown repair outcome %q", ErrCorrupt, rec.Outcome)
		}
		mut.Outcome = outcome
	}
	return mut, nil
}
