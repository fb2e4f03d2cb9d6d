package wal

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/topology"
)

// defaultSnapshotEvery is how many mutation records accumulate in the
// current log before NeedsCheckpoint starts reporting true.
const defaultSnapshotEvery = 4096

// ErrFenced marks a journal whose commits are vetoed because a
// higher-epoch primary exists: a standby was promoted, and this deposed
// primary's writes must not diverge from the new timeline. The journal
// keeps serving reads and Tail so the promoted side can drain it.
var ErrFenced = errors.New("wal: journal fenced by a newer epoch")

// maxBatchYields bounds how many scheduling rounds a batch leader grants
// concurrent committers to join its batch before sealing it (see
// flushBatch). The loop also stops the first round the batch does not
// grow, so this cap only matters under sustained arrivals.
const maxBatchYields = 8

// meta identifies a log generation and the datacenter it journals, so
// recovery refuses a state directory that belongs to a different topology
// or risk factor instead of replaying nonsense into it.
type meta struct {
	Gen   uint64  `json:"gen"`
	Eps   float64 `json:"eps"`
	Nodes int     `json:"nodes"`
	Slots int     `json:"slots"`
}

// snapshotBody is the second frame of a snapshot file.
type snapshotBody struct {
	State *core.ManagerState `json:"state"`
}

// Journal is a crash-durable core.Journal backed by the generation files
// described in the package comment. Staging methods (Commit, StageCommit,
// Checkpoint) are invoked with the manager's write lock held (see
// core.Journal), so frames enter the log in exactly the mutation order;
// the write+fsync itself is group-committed — concurrent waiters share one
// flush — and runs outside that lock for staged commits.
type Journal struct {
	mu            sync.Mutex
	dir           string
	f             *os.File
	meta          meta
	appended      int // mutation records in the current log
	snapshotEvery int
	noSync        bool
	syncDelay     time.Duration // simulated device flush (benchmarks only)
	err           error         // sticky: first append failure poisons the journal

	// Replication state (guarded by mu). epoch is the fencing epoch this
	// journal commits under (1 when no epoch record exists — every
	// pre-replication log). fenced, when nonzero, is a higher epoch that
	// has vetoed this journal: a promoted standby took over and this
	// deposed primary must not commit again. durable is the byte offset
	// of the current log file up to which frames are flushed (and synced,
	// unless noSync) — always a frame boundary, the frontier Tail serves.
	// tailers is closed and replaced whenever durable, the generation, or
	// the epoch advances, waking long-polling Tail calls.
	epoch   uint64
	fenced  uint64
	durable int64
	tailers chan struct{}

	// Group commit: frames staged since the last flush accumulate in batch
	// (guarded by mu); writeMu serializes the flushes themselves so batches
	// reach the file in creation order. batchSizes records one observation
	// per flushed batch (guarded by mu).
	writeMu    sync.Mutex
	batch      *groupBatch
	batchSizes metrics.IntSummary
}

// groupBatch is one group-commit unit: the concatenated frames of every
// commit staged since the previous flush. The first waiter claims led and
// becomes the leader: it alone performs one write+fsync for all of them.
// The rest block on done and never touch writeMu — a follower queued on a
// mutex would sit through the NEXT batch's entire flush before it could
// start its next mutation, halving the achievable batch size.
type groupBatch struct {
	buf  []byte
	n    int
	led  bool
	done chan struct{}
	err  error // set before done is closed

	batchExtra // per-frame staging record, only under -tags invariants
}

// GroupCommitStats reports the journal's group-commit behavior: how many
// flushes happened and how many records each one made durable. With only
// synchronous committers every batch has size 1; sizes above 1 measure how
// many fsyncs the batching actually saved.
type GroupCommitStats struct {
	Batches   int64   `json:"batches"`
	Records   int64   `json:"records"`
	MaxBatch  int64   `json:"maxBatch"`
	MeanBatch float64 `json:"meanBatch"`
}

// GroupCommitStats returns a snapshot of the batch counters.
func (j *Journal) GroupCommitStats() GroupCommitStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return GroupCommitStats{
		Batches:   j.batchSizes.Count,
		Records:   j.batchSizes.Sum,
		MaxBatch:  j.batchSizes.Max,
		MeanBatch: j.batchSizes.Mean(),
	}
}

// Option configures a Journal.
type Option func(*Journal)

// WithNoSync disables the fsync after every commit (and after checkpoint
// file writes). Appends still reach the OS on every commit, but a power
// failure can lose the tail. Intended for tests and benchmarks.
func WithNoSync() Option {
	return func(j *Journal) { j.noSync = true }
}

// WithSyncDelay replaces the physical fsync with a fixed sleep of d —
// a simulated log device with deterministic flush latency. Appends still
// reach the OS (crash-unsafe, exactly like WithNoSync), but every commit
// pays a realistic, *independent* device wait. Benchmarks only: it
// isolates the control plane's own scaling from the host disk, whose
// shared flush queue serializes concurrent fsyncs even across files —
// the deployment model for sharded WALs is one log device per pod.
func WithSyncDelay(d time.Duration) Option {
	return func(j *Journal) {
		if d > 0 {
			j.syncDelay = d
		}
	}
}

// WithSnapshotEvery sets how many records accumulate before
// NeedsCheckpoint reports true (default 4096).
func WithSnapshotEvery(n int) Option {
	return func(j *Journal) {
		if n > 0 {
			j.snapshotEvery = n
		}
	}
}

func walPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%d.log", gen))
}

func snapPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%d.snap", gen))
}

// Recover rebuilds a manager from the state directory and returns it with
// the journal already attached, creating the directory and an empty
// generation-1 log when nothing is on disk yet. The manager's state is
// the latest snapshot plus every intact log record after it; a torn or
// corrupt tail is truncated so appends continue from the last good
// record. Recovery fails — rather than guessing — when the directory
// belongs to a different topology or epsilon, or when a snapshot itself
// is unreadable.
func Recover(dir string, topo *topology.Topology, eps float64, mgrOpts []core.ManagerOption, opts ...Option) (*core.Manager, *Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: create state dir: %w", err)
	}
	j := &Journal{dir: dir, snapshotEvery: defaultSnapshotEvery, epoch: 1, tailers: make(chan struct{})}
	for _, o := range opts {
		o(j)
	}
	want := meta{Eps: eps, Nodes: topo.Len(), Slots: topo.TotalSlots()}

	gen, err := scanDir(dir)
	if err != nil {
		return nil, nil, err
	}
	if gen == 0 {
		// Fresh directory: empty manager, first log generation.
		m, err := core.NewManager(topo, eps, mgrOpts...)
		if err != nil {
			return nil, nil, err
		}
		j.meta = want
		j.meta.Gen = 1
		if j.f, j.durable, err = j.createWAL(j.meta, j.epoch); err != nil {
			return nil, nil, err
		}
		m.SetJournal(j)
		return m, j, nil
	}

	// Restore the snapshot base. Generation 1 legitimately has none; a
	// later generation without one is an orphaned rotation: the crash (or
	// a platform where directory fsync is a no-op) hit between the
	// snapshot's rename and the directory sync, so wal-<gen>.log became
	// durable but snap-<gen>.snap did not. The previous generation is
	// still complete on disk — a checkpoint deletes it only after the new
	// files are synced — so rebuild the checkpoint state by recovering
	// generation gen-1 in full, then replay the orphan log on top.
	var m *core.Manager
	orphan := false
	st, err := readSnapshot(snapPath(dir, gen), want, gen)
	switch {
	case err == nil:
		m, err = core.NewManagerFromState(topo, eps, st, mgrOpts...)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: restore snapshot: %w", err)
		}
	case errors.Is(err, os.ErrNotExist) && gen == 1:
		if m, err = core.NewManager(topo, eps, mgrOpts...); err != nil {
			return nil, nil, err
		}
	case errors.Is(err, os.ErrNotExist):
		m, err = j.recoverPrevious(topo, eps, want, gen-1, mgrOpts)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: orphaned generation %d: %w", gen, err)
		}
		orphan = true
	default:
		return nil, nil, err
	}

	// Replay the generation's log tail onto the snapshot base.
	path := walPath(dir, gen)
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, fmt.Errorf("wal: read log: %w", err)
	}
	frames, clean, _ := scanFrames(data, walMagic)
	j.meta = want
	j.meta.Gen = gen
	if len(frames) == 0 {
		// The log is missing or torn before its meta frame: the crash hit
		// between the snapshot rename and the log creation, so the
		// snapshot alone is the state. Recreate the log from scratch.
		if j.f, j.durable, err = j.createWAL(j.meta, j.epoch); err != nil {
			return nil, nil, err
		}
		m.SetJournal(j)
		return m, j, nil
	}
	var got meta
	if err := json.Unmarshal(frames[0].payload, &got); err != nil {
		return nil, nil, fmt.Errorf("wal: log meta: %w", err)
	}
	if got != j.meta {
		return nil, nil, fmt.Errorf("wal: log meta %+v does not match datacenter %+v", got, j.meta)
	}
	for _, fr := range frames[1:] {
		rec, err := DecodeRecord(fr.payload)
		if err != nil {
			// Checksummed but semantically unreadable: stop replay here
			// and truncate, exactly as for a failed CRC.
			clean = previousEnd(frames, fr)
			break
		}
		if rec.Kind == KindEpoch {
			if rec.Epoch > j.epoch {
				j.epoch = rec.Epoch
			}
			clean = fr.end
			continue
		}
		if err := m.Replay(rec.Mutation); err != nil {
			clean = previousEnd(frames, fr)
			break
		}
		j.appended++
		clean = fr.end
	}

	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open log: %w", err)
	}
	if err := f.Truncate(int64(clean)); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(0, 2); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: seek log end: %w", err)
	}
	j.f = f
	j.durable = int64(clean)
	if !orphan {
		// On the orphan path gen-1 is NOT stale: it is the only durable
		// base for gen's log until a later checkpoint supersedes both.
		removeStale(dir, gen)
	}
	m.SetJournal(j)
	return m, j, nil
}

// recoverPrevious rebuilds the checkpoint state an orphaned generation
// was rotated from: generation gen's snapshot plus every intact record
// of wal-<gen>.log. Two consecutive incomplete checkpoints (gen > 1 with
// its own snapshot missing too) are treated as corruption — a checkpoint
// only starts deleting a generation after its successor's files are
// synced, so that state cannot arise from a single crash.
func (j *Journal) recoverPrevious(topo *topology.Topology, eps float64, want meta, gen uint64, mgrOpts []core.ManagerOption) (*core.Manager, error) {
	var m *core.Manager
	st, err := readSnapshot(snapPath(j.dir, gen), want, gen)
	switch {
	case err == nil:
		if m, err = core.NewManagerFromState(topo, eps, st, mgrOpts...); err != nil {
			return nil, fmt.Errorf("wal: restore snapshot: %w", err)
		}
	case errors.Is(err, os.ErrNotExist) && gen == 1:
		if m, err = core.NewManager(topo, eps, mgrOpts...); err != nil {
			return nil, err
		}
	default:
		return nil, err
	}
	data, err := os.ReadFile(walPath(j.dir, gen))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return m, nil // snapshot-only generation
		}
		return nil, fmt.Errorf("wal: read log: %w", err)
	}
	frames, _, _ := scanFrames(data, walMagic)
	if len(frames) == 0 {
		return m, nil
	}
	wantGen := want
	wantGen.Gen = gen
	var got meta
	if err := json.Unmarshal(frames[0].payload, &got); err != nil {
		return nil, fmt.Errorf("wal: log meta: %w", err)
	}
	if got != wantGen {
		return nil, fmt.Errorf("wal: log meta %+v does not match datacenter %+v", got, wantGen)
	}
	for _, fr := range frames[1:] {
		rec, err := DecodeRecord(fr.payload)
		if err != nil {
			break
		}
		if rec.Kind == KindEpoch {
			if rec.Epoch > j.epoch {
				j.epoch = rec.Epoch
			}
			continue
		}
		if err := m.Replay(rec.Mutation); err != nil {
			break
		}
	}
	return m, nil
}

// previousEnd returns the end offset of the frame before fr.
func previousEnd(frames []frameInfo, fr frameInfo) int {
	end := magicLen
	for _, other := range frames {
		if other.end >= fr.end {
			break
		}
		end = other.end
	}
	return end
}

// scanDir returns the highest generation present in dir (0 when none) and
// removes leftover temporary files from an interrupted checkpoint.
func scanDir(dir string) (uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("wal: read state dir: %w", err)
	}
	var gen uint64
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(dir, name))
			continue
		}
		var g uint64
		if _, err := fmt.Sscanf(name, "wal-%d.log", &g); err == nil && name == fmt.Sprintf("wal-%d.log", g) {
			if g > gen {
				gen = g
			}
			continue
		}
		if _, err := fmt.Sscanf(name, "snap-%d.snap", &g); err == nil && name == fmt.Sprintf("snap-%d.snap", g) {
			if g > gen {
				gen = g
			}
		}
	}
	return gen, nil
}

// readSnapshot loads and validates one snapshot file.
func readSnapshot(path string, want meta, gen uint64) (*core.ManagerState, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeSnapshot(data, want, gen, filepath.Base(path))
}

// decodeSnapshot validates a snapshot image (from disk or the
// replication stream) and returns the state it carries.
func decodeSnapshot(data []byte, want meta, gen uint64, name string) (*core.ManagerState, error) {
	frames, _, scanErr := scanFrames(data, snapMagic)
	if len(frames) < 2 {
		if scanErr == nil {
			scanErr = fmt.Errorf("%w: snapshot has %d frames, want 2", ErrCorrupt, len(frames))
		}
		return nil, fmt.Errorf("wal: snapshot %s: %w", name, scanErr)
	}
	var got meta
	if err := json.Unmarshal(frames[0].payload, &got); err != nil {
		return nil, fmt.Errorf("wal: snapshot meta: %w", err)
	}
	want.Gen = gen
	if got != want {
		return nil, fmt.Errorf("wal: snapshot meta %+v does not match datacenter %+v", got, want)
	}
	var body snapshotBody
	if err := json.Unmarshal(frames[1].payload, &body); err != nil {
		return nil, fmt.Errorf("wal: snapshot state: %w", err)
	}
	if body.State == nil {
		return nil, fmt.Errorf("wal: snapshot %s has no state", name)
	}
	return body.State, nil
}

// removeStale deletes generation files older than keep; they are fully
// superseded by keep's snapshot.
func removeStale(dir string, keep uint64) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		var g uint64
		name := e.Name()
		isWAL, _ := fmt.Sscanf(name, "wal-%d.log", &g)
		if isWAL != 1 {
			if n, _ := fmt.Sscanf(name, "snap-%d.snap", &g); n != 1 {
				continue
			}
		}
		if g < keep {
			os.Remove(filepath.Join(dir, name))
		}
	}
}

// createWAL writes a fresh log file for m.Gen — magic, meta frame, and
// (past epoch 1) the generation's epoch record — synced to disk before
// use. It returns the file and its size, the caller's new durable
// frontier. At epoch 1 the file is byte-identical to pre-replication
// logs.
func (j *Journal) createWAL(m meta, epoch uint64) (*os.File, int64, error) {
	payload, err := json.Marshal(m)
	if err != nil {
		return nil, 0, err
	}
	buf := appendFrame([]byte(walMagic), payload)
	if epoch > 1 {
		ep, err := encodeEpochRecord(epoch)
		if err != nil {
			return nil, 0, err
		}
		buf = appendFrame(buf, ep)
	}
	path := walPath(j.dir, m.Gen)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("wal: create log: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("wal: write log header: %w", err)
	}
	if err := j.sync(f); err != nil {
		f.Close()
		return nil, 0, err
	}
	j.syncDir()
	return f, int64(len(buf)), nil
}

// Commit appends one mutation record, durably unless WithNoSync. An
// append failure poisons the journal: every later Commit fails too, so
// the manager stops accepting mutations instead of diverging from disk.
// The torn bytes, if any, are discarded by the next recovery's
// truncation. Commit is StageCommit plus the durability wait; callers
// that can release their lock before waiting should use StageCommit so
// concurrent commits share one write+fsync.
func (j *Journal) Commit(mut core.Mutation) error {
	wait, err := j.StageCommit(mut)
	if err != nil {
		return err
	}
	return wait()
}

// StageCommit implements core.AsyncJournal: it encodes the mutation and
// appends its frame to the open group-commit batch, reserving the
// record's position in the log's total order (staging order == the
// manager's apply order, because staging happens under the manager's
// write lock). The returned wait function blocks until the frame is
// durable and returns the batch's outcome: the first waiter claims the
// batch's leadership and performs a single write+fsync for every frame
// staged so far; every later waiter parks on the batch's done channel
// (never on a mutex queue, where it would sit out the next batch's
// flush too — see groupBatch). A failed flush poisons the journal
// exactly like a failed Commit.
func (j *Journal) StageCommit(mut core.Mutation) (func() error, error) {
	payload, err := encodeMutation(mut)
	if err != nil {
		return nil, err
	}
	return j.stage(payload)
}

// StageCommitBatch implements core.BatchJournal: it stages a contiguous
// group of mutation frames under a single queue acquisition, so no
// concurrent leader's flush can split the group across write+fsync
// batches — the whole group becomes durable atomically with respect to
// batch boundaries. Encoding happens before any state is touched: an
// unencodable mutation vetoes the entire group and the log is left
// exactly as it was. The returned wait has StageCommit's contract,
// covering every frame in the group.
func (j *Journal) StageCommitBatch(muts []core.Mutation) (func() error, error) {
	payloads := make([][]byte, len(muts))
	for i, mut := range muts {
		p, err := encodeMutation(mut)
		if err != nil {
			return nil, err
		}
		payloads[i] = p
	}
	if len(payloads) == 0 {
		return func() error { return nil }, nil
	}
	return j.stage(payloads...)
}

// stage appends the encoded frames to the open group-commit batch under
// one acquisition of j.mu and returns the wait shared by StageCommit and
// StageCommitBatch. A poisoned or fenced journal stages nothing.
func (j *Journal) stage(payloads ...[]byte) (func() error, error) {
	j.mu.Lock()
	if j.err != nil {
		err := j.err
		j.mu.Unlock()
		return nil, err
	}
	if j.fenced != 0 {
		err := fmt.Errorf("%w: epoch %d supersedes %d", ErrFenced, j.fenced, j.epoch)
		j.mu.Unlock()
		return nil, err
	}
	b := j.batch
	if b == nil {
		b = &groupBatch{done: make(chan struct{})}
		j.batch = b
	}
	for _, p := range payloads {
		b.buf = appendFrame(b.buf, p)
		b.noteStaged(p)
		b.n++
		j.appended++
	}
	j.mu.Unlock()
	return func() error {
		j.mu.Lock()
		lead := !b.led
		b.led = true
		j.mu.Unlock()
		if lead {
			j.flushBatch(b)
		}
		<-b.done
		return b.err
	}, nil
}

// flushBatch makes batch b durable if no other leader has already done
// so. writeMu gives batches the file in creation order: a new batch can
// only open after its predecessor was detached (below, under writeMu),
// so the predecessor's write always precedes it.
func (j *Journal) flushBatch(b *groupBatch) {
	j.writeMu.Lock()
	defer j.writeMu.Unlock()
	select {
	case <-b.done:
		return // an earlier leader flushed it
	default:
	}
	// Nobody else can seal b now (flushBatch runs only in b's claimed
	// leader, or in flushOpen callers holding the manager's write lock).
	// Before sealing, yield while the batch is still growing: committers
	// released by the previous flush are runnable right now, mid-plan, and
	// a yield runs every one of them until it either stages into b and
	// parks on b.done or blocks elsewhere. Sealing on first arrival
	// instead degenerates to singleton batches (the classic group-commit
	// pacing failure). A yield costs microseconds and burns no timer —
	// timer-based windows stall for a millisecond whenever the machine
	// goes idle — so an uncontended commit pays one no-op round.
	j.mu.Lock()
	n := b.n
	j.mu.Unlock()
	for i := 0; i < maxBatchYields; i++ {
		runtime.Gosched()
		j.mu.Lock()
		grown := b.n > n
		n = b.n
		j.mu.Unlock()
		if !grown {
			break
		}
	}
	j.mu.Lock()
	if j.batch == b {
		j.batch = nil // detach: no more frames may join
	}
	err := j.err
	f := j.f
	j.batchSizes.Observe(int64(b.n))
	j.mu.Unlock()

	b.assertOrder()
	switch {
	case err != nil:
		// A previous batch poisoned the journal; do not write over the
		// hole it left.
	case f == nil:
		err = errors.New("wal: journal closed")
	default:
		if _, werr := f.Write(b.buf); werr != nil {
			err = fmt.Errorf("wal: append: %w", werr)
		} else {
			err = j.sync(f)
		}
	}
	if err != nil {
		j.mu.Lock()
		if j.err == nil {
			j.err = err
		}
		j.mu.Unlock()
	} else if len(b.buf) > 0 {
		// The batch's frames are flushed (and synced, unless noSync):
		// advance the durable frontier and wake long-polling tailers.
		j.mu.Lock()
		j.durable += int64(len(b.buf))
		j.notifyTailLocked()
		j.mu.Unlock()
	}
	b.err = err
	close(b.done)
}

// notifyTailLocked wakes every Tail call blocked on new durable bytes.
// Callers hold j.mu.
func (j *Journal) notifyTailLocked() {
	close(j.tailers)
	j.tailers = make(chan struct{})
}

// flushOpen flushes the open batch, if any. Callers that are about to
// rotate or close the log file use it to drain staged frames into the
// outgoing file first; no new frames can be staged concurrently because
// staging requires the manager's write lock, which those callers hold.
func (j *Journal) flushOpen() {
	j.mu.Lock()
	b := j.batch
	j.mu.Unlock()
	if b != nil {
		j.flushBatch(b)
	}
}

// Checkpoint writes a snapshot of the state, starts the next log
// generation, and deletes the superseded files. On failure the current
// generation keeps working — a checkpoint is an optimization, not a
// correctness requirement.
func (j *Journal) Checkpoint(st *core.ManagerState) error {
	// Drain staged frames into the outgoing generation and keep writeMu so
	// no in-flight flush can interleave with the file swap. Checkpoint runs
	// under the manager's write lock, so nothing stages concurrently.
	j.flushOpen()
	j.writeMu.Lock()
	defer j.writeMu.Unlock()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	if j.fenced != 0 {
		return fmt.Errorf("%w: epoch %d supersedes %d", ErrFenced, j.fenced, j.epoch)
	}
	next := j.meta
	next.Gen++

	metaPayload, err := json.Marshal(next)
	if err != nil {
		return err
	}
	statePayload, err := json.Marshal(snapshotBody{State: st})
	if err != nil {
		return err
	}
	buf := appendFrame([]byte(snapMagic), metaPayload)
	buf = appendFrame(buf, statePayload)

	tmp := snapPath(j.dir, next.Gen) + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create snapshot: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: write snapshot: %w", err)
	}
	if err := j.sync(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: close snapshot: %w", err)
	}
	if err := os.Rename(tmp, snapPath(j.dir, next.Gen)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: publish snapshot: %w", err)
	}
	j.syncDir()

	nf, size, err := j.createWAL(next, j.epoch)
	if err != nil {
		// The new snapshot is already durable; the old log keeps the
		// journal usable, and the next recovery starts from the snapshot.
		return err
	}
	old := j.f
	j.f = nf
	j.meta = next
	j.appended = 0
	j.durable = size
	j.notifyTailLocked()
	old.Close()
	// Remove every superseded generation, not just the immediate
	// predecessor: an orphaned rotation (recovered around a missing
	// snapshot) can leave two generations on disk, and this checkpoint's
	// snapshot supersedes them all.
	removeStale(j.dir, next.Gen)
	j.syncDir()
	return nil
}

// NeedsCheckpoint reports whether enough records accumulated in the
// current generation to make compaction worthwhile.
func (j *Journal) NeedsCheckpoint() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appended >= j.snapshotEvery
}

// Appended returns the number of mutation records in the current
// generation's log.
func (j *Journal) Appended() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appended
}

// Gen returns the current log generation.
func (j *Journal) Gen() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.meta.Gen
}

// Dir returns the state directory.
func (j *Journal) Dir() string { return j.dir }

// Epoch returns the fencing epoch this journal commits under.
func (j *Journal) Epoch() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.epoch
}

// Fence vetoes every future commit and checkpoint: a standby was
// promoted at a higher epoch, and this deposed primary must not extend
// its timeline. The journal stays readable — Tail keeps serving so the
// promoted side can drain any durable records it has not streamed yet.
// Fencing at or below the journal's own epoch is refused (a stale fence
// from an even older primary must not stop the current one); re-fencing
// at the same or a higher superseding epoch is idempotent.
func (j *Journal) Fence(epoch uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if epoch <= j.epoch {
		return fmt.Errorf("wal: fence epoch %d not above current epoch %d", epoch, j.epoch)
	}
	if epoch > j.fenced {
		j.fenced = epoch
	}
	return nil
}

// AdvanceEpoch durably appends an epoch record and raises the journal's
// epoch. Promotion calls it on the recovered standby's journal before
// the first new commit, so the log itself records where the new
// primary's timeline begins — a later recovery (or a follower of the
// new primary) learns the epoch from the bytes, not from config.
func (j *Journal) AdvanceEpoch(to uint64) error {
	j.flushOpen()
	j.writeMu.Lock()
	defer j.writeMu.Unlock()
	j.mu.Lock()
	if j.err != nil {
		err := j.err
		j.mu.Unlock()
		return err
	}
	if j.fenced != 0 {
		err := fmt.Errorf("%w: epoch %d supersedes %d", ErrFenced, j.fenced, j.epoch)
		j.mu.Unlock()
		return err
	}
	if to <= j.epoch {
		err := fmt.Errorf("wal: epoch %d not above current epoch %d", to, j.epoch)
		j.mu.Unlock()
		return err
	}
	f := j.f
	j.mu.Unlock()

	payload, err := encodeEpochRecord(to)
	if err != nil {
		return err
	}
	buf := appendFrame(nil, payload)
	if _, err := f.Write(buf); err != nil {
		err = fmt.Errorf("wal: append epoch: %w", err)
	} else {
		err = j.sync(f)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err != nil {
		if j.err == nil {
			j.err = err
		}
		return err
	}
	j.epoch = to
	j.durable += int64(len(buf))
	j.notifyTailLocked()
	return nil
}

// DurableCursor returns the current durable frontier: the position a
// standby is fully caught up at.
func (j *Journal) DurableCursor() Cursor {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Cursor{Gen: j.meta.Gen, Off: j.durable}
}

// Close flushes and closes the log file. The journal must not be used
// afterwards; detach it from the manager first.
func (j *Journal) Close() error {
	j.flushOpen()
	j.writeMu.Lock()
	defer j.writeMu.Unlock()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.sync(j.f)
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	if j.err == nil {
		j.err = errors.New("wal: journal closed")
	}
	j.notifyTailLocked() // long-polling tailers must observe the close
	return err
}

func (j *Journal) sync(f *os.File) error {
	if j.syncDelay > 0 {
		time.Sleep(j.syncDelay)
		return nil
	}
	if j.noSync {
		return nil
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	return nil
}

// syncDir fsyncs the state directory so renames and creates are durable.
// Best-effort: not every platform supports directory fsync.
func (j *Journal) syncDir() {
	if j.noSync || j.syncDelay > 0 {
		return
	}
	if d, err := os.Open(j.dir); err == nil {
		//lint:ignore errflow directory fsync is best-effort; several filesystems refuse it and the file fsync already covers the contents
		d.Sync()
		d.Close()
	}
}

// sortedGens is a test helper: the generations present in dir, ascending.
func sortedGens(dir string) []uint64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	seen := map[uint64]bool{}
	for _, e := range entries {
		var g uint64
		if _, err := fmt.Sscanf(e.Name(), "wal-%d.log", &g); err == nil {
			seen[g] = true
		}
	}
	out := make([]uint64, 0, len(seen))
	for g := range seen {
		out = append(out, g)
	}
	sort.Slice(out, func(i, k int) bool { return out[i] < out[k] })
	return out
}
