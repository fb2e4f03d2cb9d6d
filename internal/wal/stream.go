package wal

import (
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/topology"
)

// This file is the exported surface replication consumers build on: a
// standby (internal/replica) receives raw log bytes from the primary's
// Tail endpoint and must re-verify and decode them itself — trusting
// the wire would let a corrupt primary read or a flipped bit on the
// network silently diverge the follower.

// Frame is one intact log frame: its payload and the byte offset just
// past it within the scanned region.
type Frame struct {
	Payload []byte
	End     int64
}

// ScanLog verifies bytes that begin at offset 0 of a wal-<gen>.log
// image (magic, then frames; Frame[0] is the generation's meta record).
// It returns every intact frame, the clean length, and an error wrapping
// ErrCorrupt when the region does not end exactly on a frame boundary.
func ScanLog(data []byte) ([]Frame, int64, error) {
	frames, clean, err := scanFrames(data, walMagic)
	return exportFrames(frames), int64(clean), err
}

// ScanStream verifies a headerless run of frames — a Tail continuation
// chunk, cut from the log at a frame boundary past the magic. Offsets in
// the returned frames are relative to the start of data.
func ScanStream(data []byte) ([]Frame, int64, error) {
	frames, clean, err := scanStream(data)
	return exportFrames(frames), int64(clean), err
}

// scanStream is scanFrames without the leading magic: data must start on
// a frame boundary.
func scanStream(data []byte) (frames []frameInfo, clean int, err error) {
	return scanFramesAt(data, 0)
}

func exportFrames(frames []frameInfo) []Frame {
	out := make([]Frame, len(frames))
	for i, fr := range frames {
		out[i] = Frame{Payload: fr.payload, End: int64(fr.end)}
	}
	return out
}

// RecordKind classifies one log frame payload for replay.
type RecordKind int

const (
	// KindMutation is a journaled core.Mutation.
	KindMutation RecordKind = iota
	// KindEpoch is a fencing-epoch advance (journal metadata; carries no
	// manager state).
	KindEpoch
)

// Record is one decoded replication frame.
type Record struct {
	Kind     RecordKind
	Mutation core.Mutation // valid when Kind == KindMutation
	Epoch    uint64        // valid when Kind == KindEpoch
}

// DecodeRecord parses a non-meta frame payload with one JSON decode.
// Meta frames (the first frame of a log) must be checked with
// CheckLogMeta instead. Recovery replays every frame through it.
func DecodeRecord(payload []byte) (Record, error) {
	var rec record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return Record{}, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	if rec.Op == epochOp {
		return Record{Kind: KindEpoch, Epoch: rec.Epoch}, nil
	}
	mut, err := rec.mutation()
	if err != nil {
		return Record{}, err
	}
	return Record{Kind: KindMutation, Mutation: mut}, nil
}

// CheckLogMeta verifies a log's first-frame meta payload against the
// expected datacenter and generation, refusing to replay a stream that
// belongs to a different topology or risk factor.
func CheckLogMeta(payload []byte, topo *topology.Topology, eps float64, gen uint64) error {
	var got meta
	if err := json.Unmarshal(payload, &got); err != nil {
		return fmt.Errorf("wal: log meta: %w", err)
	}
	want := meta{Gen: gen, Eps: eps, Nodes: topo.Len(), Slots: topo.TotalSlots()}
	if got != want {
		return fmt.Errorf("wal: log meta %+v does not match datacenter %+v", got, want)
	}
	return nil
}

// DecodeSnapshot parses and validates a snap-<gen>.snap image shipped
// over the wire, returning the checkpoint state it carries.
func DecodeSnapshot(data []byte, topo *topology.Topology, eps float64, gen uint64) (*core.ManagerState, error) {
	want := meta{Eps: eps, Nodes: topo.Len(), Slots: topo.TotalSlots()}
	return decodeSnapshot(data, want, gen, "stream")
}
