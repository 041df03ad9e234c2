package ita

import (
	"errors"
	"fmt"
	"os"
	"time"

	"ita/internal/vsm"
	"ita/internal/wal"
	"ita/internal/window"
)

// This file wires the write-ahead log (internal/wal) through the
// facade. The protocol is log-before-apply: every mutating operation
// appends its record before touching engine state, completed epoch
// boundaries append a marker (the fsync point under
// DurabilityEpochSync), and every N boundaries the engine checkpoints —
// writes a full snapshot next to the log, rotates to a fresh segment
// and deletes the old one.
//
// Recovery (Open) loads the newest checkpoint, replays the segment's
// record tail through the very same locked operation paths used live
// (so epoch partitioning, auto-flush points and id assignment reproduce
// exactly), tolerates a torn final record by truncating to the last
// clean frame, and garbage-collects leftovers of an interrupted
// checkpoint. Combined with the exact-state snapshot (snapshot.go,
// version 2), the recovered engine is byte-identical to the uncrashed
// one at the recovered boundary: ResultsAll, Stats, Queries and every
// future maintenance decision match.

// walState is the durable engine's log attachment.
type walState struct {
	dir  string
	log  *wal.Log
	mode wal.Durability
	// every is the auto-checkpoint cadence in epoch boundaries; 0
	// disables.
	every int
	// epochSeq counts completed publication boundaries over the
	// engine's whole life (checkpoints persist it). markerSeq tracks,
	// during replay only, the last marker record consumed — markers are
	// integrity checks, not state.
	epochSeq  uint64
	markerSeq uint64
	// ckptSeq is the boundary of the newest on-disk checkpoint; the
	// current segment is wal-<ckptSeq>.log.
	ckptSeq uint64
	// recovering suppresses appends (and checkpoints) while the log
	// replays into the engine.
	recovering bool
	// ckptDue defers an auto-checkpoint signalled mid-operation to the
	// end of the public call, where the log is at a record boundary.
	// After a failed attempt, ckptRetryAt pushes the next one a full
	// interval out so a persistently failing disk is not hammered at
	// every boundary.
	ckptDue     bool
	ckptRetryAt uint64
	// retain caps how many completed segments survive a checkpoint for
	// lagging followers (see WithReplicationRetention); tune carries the
	// replication timing overrides. Both only matter once replication is
	// started.
	retain int
	tune   *replTuning
	hooks  walTestHooks
}

// walTestHooks lets the crash-point tests substitute failing files and
// observe checkpoint phases. Zero value = production behavior.
type walTestHooks struct {
	// create opens a file for writing from scratch (segments and
	// checkpoint temporaries).
	create func(path string) (wal.File, error)
	// checkpointPhase is called between the crash-atomic steps of a
	// checkpoint; the fault tests snapshot the directory at each phase
	// to validate recovery from every intermediate state.
	checkpointPhase func(phase string)
}

func (h *walTestHooks) createFile(path string) (wal.File, error) {
	if h.create != nil {
		return h.create(path)
	}
	return os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_RDWR|os.O_APPEND, 0o644)
}

func (h *walTestHooks) phase(p string) {
	if h.checkpointPhase != nil {
		h.checkpointPhase(p)
	}
}

// walFlushRecord is the constant payload of explicit-flush boundaries.
var walFlushRecord = wal.Record{Kind: wal.KindFlush}

// Open creates or recovers a durable engine in dir.
//
// On a fresh directory it behaves like New(opts...) plus WithWAL(dir):
// a window option is required, the full configuration is written into a
// genesis checkpoint, and logging begins.
//
// On a directory that already holds durable state, the engine is
// recovered: the newest complete checkpoint is restored and the log
// tail replayed, so the engine resumes byte-identically at the last
// recorded operation. Recovery tolerates everything a crash can leave
// behind — a torn final record (truncated), an interrupted checkpoint
// (the previous one is used, leftovers are deleted) — and fails with a
// clean error on anything else. Configuration options passed on
// recovery are checked against the stored configuration and a conflict
// is an error; WithDurability and WithCheckpointEvery are runtime
// policies and may differ freely between runs.
func Open(dir string, opts ...Option) (*Engine, error) {
	return openDurable(dir, opts)
}

func openDurable(dir string, opts []Option) (*Engine, error) {
	// Probe the caller's options once, both for the WAL knobs and for
	// the compatibility check against a recovered configuration.
	probe := config{stemming: true, stopwords: true}
	for _, o := range opts {
		if err := o(&probe); err != nil {
			return nil, err
		}
	}
	if probe.walDir != "" && probe.walDir != dir {
		return nil, fmt.Errorf("ita: Open(%q) conflicts with WithWAL(%q)", dir, probe.walDir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ita: open wal dir: %w", err)
	}
	st, err := wal.ScanDir(dir)
	if err != nil {
		return nil, fmt.Errorf("ita: scan wal dir: %w", err)
	}

	mode := probe.walDurability.wal()
	every := 256
	if probe.walEverySet {
		every = probe.walEvery
	}
	var hooks walTestHooks
	if probe.walHooks != nil {
		hooks = *probe.walHooks
	}

	// Startup cleanup: a crash can orphan checkpoint temporaries and —
	// when it hit before the first record or corrupted everything — leave
	// segments that carry no recoverable state. Both are deleted here so
	// an interrupted first checkpoint (or a torn genesis) does not wedge
	// the directory forever. A segment with even one valid record is
	// never touched by this pass: below, it still makes a checkpoint-less
	// directory refuse to open rather than silently drop operations.
	for _, p := range st.Tmp {
		os.Remove(p)
	}
	st.Tmp = nil
	if _, found := st.Latest(); !found {
		kept := st.Segments[:0]
		for _, seq := range st.Segments {
			if res, err := wal.ScanFile(wal.SegmentPath(dir, seq)); err == nil && len(res.Records) == 0 {
				os.Remove(wal.SegmentPath(dir, seq))
				continue
			}
			kept = append(kept, seq)
		}
		st.Segments = kept
	}

	latest, found := st.Latest()
	if !found {
		if len(st.Segments) > 0 {
			return nil, fmt.Errorf("ita: wal dir %q has segments but no checkpoint; refusing to guess", dir)
		}
		// Fresh directory: build the engine from the options, write the
		// genesis checkpoint, start segment 0.
		e, err := New(append(append([]Option{}, opts...), WithWAL(dir), walAttached())...)
		if err != nil {
			return nil, err
		}
		e.wal = &walState{dir: dir, mode: mode, every: every, retain: probe.replRetain, tune: probe.replTune, hooks: hooks}
		if err := e.writeCheckpointLocked(0); err != nil {
			// Release the shard workers the fresh engine may own; a caller
			// retrying Open must not leak goroutines per attempt.
			if c, ok := e.inner.(interface{ Close() error }); ok {
				c.Close()
			}
			return nil, err
		}
		return e, nil
	}

	// Recovery. Decode the newest checkpoint...
	f, err := os.Open(wal.CheckpointPath(dir, latest))
	if err != nil {
		return nil, fmt.Errorf("ita: open checkpoint: %w", err)
	}
	snap, err := decodeSnapshot(f)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("ita: checkpoint %d: %w", latest, err)
	}
	if err := checkSnapshotCompat(&probe, snap); err != nil {
		return nil, err
	}
	// Runtime-only knobs (floor margins, probe-twin trees) are not
	// persisted in checkpoints — they exist only in the caller's
	// options. Dropping them here would make the recovered engine
	// maintain its floors on a different schedule than the engine that
	// wrote the log, so thread them through alongside the WAL wiring.
	extra := []Option{WithWAL(dir), walAttached()}
	if probe.scanTrees {
		extra = append(extra, withScanAllTrees())
	}
	if probe.floorTarget != 0 || probe.floorRaise != 0 {
		extra = append(extra, withFloorMargins(probe.floorTarget, probe.floorRaise))
	}
	e, err := restoreSnapshot(snap, extra)
	if err != nil {
		return nil, err
	}
	// From here on the engine may own shard worker goroutines; release
	// them on every failure path so a retried Open cannot leak.
	abort := func(err error) (*Engine, error) {
		if c, ok := e.inner.(interface{ Close() error }); ok {
			c.Close()
		}
		return nil, err
	}
	w := &walState{
		dir: dir, mode: mode, every: every, retain: probe.replRetain, tune: probe.replTune, hooks: hooks,
		epochSeq: snap.EpochSeq, markerSeq: snap.EpochSeq, ckptSeq: latest,
	}
	e.wal = w

	// ...replay the segment tail through the live operation paths...
	segPath := wal.SegmentPath(dir, latest)
	data, err := os.ReadFile(segPath)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return abort(fmt.Errorf("ita: read segment: %w", err))
	}
	res := wal.Scan(data)
	w.recovering = true
	for i := range res.Records {
		if err := e.replayRecord(&res.Records[i]); err != nil {
			return abort(fmt.Errorf("ita: replay record %d: %w", i, err))
		}
	}
	w.recovering = false

	// ...and truncate the torn tail (if any) before appending resumes.
	sf, err := os.OpenFile(segPath, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return abort(fmt.Errorf("ita: open segment: %w", err))
	}
	if res.Torn {
		if err := sf.Truncate(res.Clean); err != nil {
			sf.Close()
			return abort(fmt.Errorf("ita: truncate torn tail: %w", err))
		}
	}
	w.log = wal.NewLog(sf, res.Clean, mode)
	// With replication retention configured, a restarting primary keeps
	// its follower-resume window across the restart (no follower has
	// registered yet, so every segment in the window is kept as grace);
	// otherwise older segments are collected exactly as before.
	wal.Retain(dir, st, latest, e.walKeepSegLocked(st, latest))
	return e, nil
}

// replayRecord applies one logged operation through the same locked
// paths live calls use, verifying the determinism invariants as it
// goes: replayed id assignment must reproduce the logged ids, and
// marker records must arrive in sequence and never ahead of the
// boundaries the replayed operations produced.
//
// Each operation's watch deltas are queued rather than discarded:
// during crash recovery no watcher exists yet so the queue stays empty,
// but a replication follower replays records while serving live Watch
// subscriptions, and its watchers must observe the same epoch-boundary
// delta stream the primary's do.
func (e *Engine) replayRecord(rec *wal.Record) error {
	w := e.wal
	switch rec.Kind {
	case wal.KindDoc, wal.KindBatch:
		// Logs written before every ingest became a batch hold one KindDoc
		// record per IngestText call; it replays as the batch of one that
		// call is now.
		items := []TimedText{{Text: rec.Text, At: time.Unix(0, rec.At)}}
		if rec.Kind == wal.KindBatch {
			items = make([]TimedText, len(rec.Items))
			for i, it := range rec.Items {
				items[i] = TimedText{Text: it.Text, At: time.Unix(0, it.At)}
			}
		}
		ids, deltas, err := e.ingestBatchLocked(items)
		if err != nil {
			return err
		}
		e.queueDeltasLocked(deltas)
		if len(ids) > 0 && uint64(ids[0]) != rec.Doc {
			return fmt.Errorf("replayed batch start id %d, logged %d", ids[0], rec.Doc)
		}
	case wal.KindRegister:
		// The record's id is applied verbatim: cluster nodes register
		// sparse slices of the global id space, so the replayed id may
		// skip ahead of a dense sequence. registerAtLocked still rejects
		// an id behind nextQuery, which is what a corrupt or reordered
		// log looks like.
		id, deltas, err := e.registerAtLocked(QueryID(rec.Query), rec.Text, rec.K)
		if err != nil {
			return err
		}
		e.queueDeltasLocked(deltas)
		if uint64(id) != rec.Query {
			return fmt.Errorf("replayed query id %d, logged %d", id, rec.Query)
		}
	case wal.KindAlign:
		deltas, err := e.alignRegisterLocked(QueryID(rec.Query), rec.Text)
		if err != nil {
			return err
		}
		e.queueDeltasLocked(deltas)
	case wal.KindUnregister:
		e.unregisterLocked(QueryID(rec.Query))
	case wal.KindAdvance:
		deltas, err := e.advanceLocked(time.Unix(0, rec.At))
		if err != nil {
			return err
		}
		e.queueDeltasLocked(deltas)
	case wal.KindFlush:
		if err := e.flushLocked(); err != nil {
			return err
		}
		// Parity with the public Flush: the boundary publishes (there are
		// no watchers during recovery, so the deltas are empty and
		// discarded). Without this the recovered wait-free read surface
		// would lag one boundary behind the crashed engine's.
		e.queueDeltasLocked(e.collectDeltas())
	case wal.KindEpoch:
		w.markerSeq++
		if rec.Seq != w.markerSeq || rec.Seq > w.epochSeq {
			return fmt.Errorf("epoch marker %d out of sequence (expected %d, %d boundaries replayed)",
				rec.Seq, w.markerSeq, w.epochSeq)
		}
	default:
		return fmt.Errorf("unknown record kind %d", rec.Kind)
	}
	return nil
}

// walAppendLocked logs one operation record. A nil walState (an
// in-memory engine) and replay mode are no-ops. Must be called with
// e.mu held, before the operation mutates any state.
//
// A failed append is recoverable, not terminal: log-before-apply means
// the operation was not applied, the log still ends at a clean record
// boundary (Append truncates a partial frame back, and poisons itself
// only when even that fails), and the caller receives the error — a
// later operation may succeed once the fault (say, a full disk)
// clears. The terminal cases — a marker-sequence gap, a failed fsync, a
// failed segment rotation — poison the log at their own sites.
func (e *Engine) walAppendLocked(rec *wal.Record) error {
	w := e.wal
	if w == nil || w.recovering {
		return nil
	}
	if err := w.log.Append(rec); err != nil {
		return err
	}
	// Replication ships records as soon as they are written, not only at
	// fsync points: the follower's acked-boundary guarantee comes from
	// its own acks, and shipping early keeps its lag at the network
	// round-trip instead of the checkpoint cadence.
	e.replPublishLocked()
	return nil
}

// walBoundaryLocked accounts one completed publication boundary:
// increments the epoch sequence, appends the marker record, fsyncs
// under DurabilityEpochSync and arms the auto-checkpoint when the
// cadence is reached. During replay only the counter moves — the
// markers already on disk are consumed as integrity checks. Must be
// called with e.mu held, after the boundary's state is fully applied.
func (e *Engine) walBoundaryLocked() error {
	w := e.wal
	if w == nil {
		return nil
	}
	w.epochSeq++
	if w.recovering {
		return nil
	}
	// A marker that fails to append (or to sync) poisons the log: the
	// boundary's state is already applied and the sequence counter
	// already moved, so continuing to log would leave a marker-sequence
	// gap that recovery rejects — better to fail stop here, with every
	// record on disk still a clean replayable prefix. (Post-fsync-failure
	// page-cache state is undefined on some kernels, which is the other
	// reason a failed sync is terminal.)
	if err := w.log.Append(&wal.Record{Kind: wal.KindEpoch, Seq: w.epochSeq}); err != nil {
		w.log.Poison(err)
		return err
	}
	if w.mode == wal.DurabilityEpochSync {
		if err := w.log.Sync(); err != nil {
			w.log.Poison(err)
			return err
		}
	}
	e.replPublishLocked()
	if w.every > 0 && w.epochSeq-w.ckptSeq >= uint64(w.every) && w.epochSeq >= w.ckptRetryAt {
		w.ckptDue = true
	}
	return nil
}

// walEpochSeq returns the durable boundary count (0 for in-memory
// engines); snapshots persist it.
func (e *Engine) walEpochSeq() uint64 {
	if e.wal == nil {
		return 0
	}
	return e.wal.epochSeq
}

// maybeCheckpointLocked runs a due auto-checkpoint. It is called at the
// end of every public mutating operation — never mid-operation, where
// rotating the segment could strand the operation's earlier records in
// a deleted file — and only with an empty epoch buffer, so the
// checkpoint's snapshot covers every record it retires.
//
// Failures are not surfaced through the triggering operation: that
// operation already succeeded and is durable in the log, and returning
// an error for it would invite callers to retry — duplicating an
// ingest that actually happened. A failed attempt is retried one full
// interval later (log replay simply stays longer until one succeeds);
// the truly unsafe failure — a committed checkpoint whose segment
// cannot be rotated — poisons the log inside writeCheckpointLocked and
// fails every later operation loudly. Checkpoint() reports errors
// directly for callers that need them.
func (e *Engine) maybeCheckpointLocked() {
	w := e.wal
	if w == nil || !w.ckptDue || w.recovering || len(e.pending) != 0 {
		return
	}
	w.ckptDue = false
	if err := e.checkpointLocked(); err != nil {
		w.ckptRetryAt = w.epochSeq + uint64(w.every)
	}
}

// Checkpoint forces a checkpoint now: any buffered epoch is flushed
// (and logged), the engine state is snapshotted next to the log, the
// log rotates to a fresh segment and obsolete files are deleted. Use it
// before a planned shutdown to make the next Open instantaneous. It is
// an error on an engine without a WAL.
func (e *Engine) Checkpoint() error {
	e.mu.Lock()
	if err := e.gateWriteLocked(); err != nil {
		e.mu.Unlock()
		return err
	}
	if e.wal == nil {
		e.mu.Unlock()
		return errors.New("ita: Checkpoint requires a durable engine (ita.Open or WithWAL)")
	}
	err := e.flushExplicitLocked()
	if err == nil {
		err = e.checkpointLocked()
	}
	e.queueDeltasLocked(e.collectDeltas())
	e.mu.Unlock()
	e.deliverQueued()
	return err
}

// checkpointLocked snapshots the current boundary and rotates the log.
// Must be called with e.mu held and no buffered epoch. A checkpoint at
// the boundary of the previous one is a no-op.
func (e *Engine) checkpointLocked() error {
	w := e.wal
	if w.epochSeq == w.ckptSeq {
		return nil
	}
	return e.writeCheckpointLocked(w.epochSeq)
}

// writeCheckpointLocked writes the checkpoint for boundary seq and
// swaps the log to the fresh segment wal-<seq>.log. Each step is
// crash-atomic:
//
//	(1) the snapshot is written to checkpoint-<seq>.tmp and fsynced —
//	    a crash leaves a tmp file recovery deletes;
//	(2) the tmp file is renamed to checkpoint-<seq>.ckpt — the atomic
//	    commit point: recovery now prefers this checkpoint, and every
//	    record of the old segment is covered by it;
//	(3) the fresh segment is created and the old files deleted — a
//	    crash before or during this leaves stale files recovery
//	    ignores and garbage-collects.
func (e *Engine) writeCheckpointLocked(seq uint64) error {
	w := e.wal
	w.hooks.phase("begin")
	tmp := wal.CheckpointTmpPath(w.dir, seq)
	f, err := w.hooks.createFile(tmp)
	if err != nil {
		return fmt.Errorf("ita: checkpoint: %w", err)
	}
	if err := e.encodeSnapshotLocked(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("ita: checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("ita: checkpoint sync: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("ita: checkpoint close: %w", err)
	}
	w.hooks.phase("written")
	if err := os.Rename(tmp, wal.CheckpointPath(w.dir, seq)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("ita: checkpoint rename: %w", err)
	}
	wal.SyncDir(w.dir)
	w.hooks.phase("renamed")
	sf, err := w.hooks.createFile(wal.SegmentPath(w.dir, seq))
	if err != nil {
		// The checkpoint committed but the new segment could not be
		// created: recovery handles exactly this state (no segment for
		// the newest checkpoint), but the running engine must not keep
		// logging — appends would land in the old segment, which the next
		// recovery ignores and deletes, silently dropping acknowledged
		// operations. Poison the log so every later mutation fails loudly
		// instead.
		err = fmt.Errorf("ita: rotate segment: %w", err)
		if w.log != nil {
			w.log.Poison(err)
		}
		return err
	}
	wal.SyncDir(w.dir)
	if w.log != nil {
		w.log.Close()
	}
	w.log = wal.NewLog(sf, 0, w.mode)
	w.hooks.phase("rotated")
	if st, err := wal.ScanDir(w.dir); err == nil {
		wal.Retain(w.dir, st, seq, e.walKeepSegLocked(st, seq))
	}
	w.ckptSeq = seq
	e.replPublishLocked()
	w.hooks.phase("done")
	return nil
}

// checkSnapshotCompat reports a configuration conflict between options
// a caller passed to Open and the configuration recovered from a
// checkpoint. Only deviations the caller expressed are detectable:
// options that coincide with the defaults (stemming on, stopwords on,
// no retention) pass silently and the recovered value wins.
func checkSnapshotCompat(user *config, s *snapshot) error {
	mismatch := func(what string, got, want any) error {
		return fmt.Errorf("ita: option conflicts with recovered state: %s %v, recovered %v (remove the option or use a fresh directory)", what, got, want)
	}
	stored := fmt.Sprintf("count %d", s.CountN)
	if s.CountN == 0 {
		stored = fmt.Sprintf("span %s", time.Duration(s.SpanNanos))
	}
	switch pol := user.policy.(type) {
	case nil:
	case window.Count:
		if s.CountN != pol.N {
			return mismatch("window", fmt.Sprintf("count %d", pol.N), stored)
		}
	case window.Span:
		if time.Duration(s.SpanNanos) != pol.D || s.CountN != 0 {
			return mismatch("window", fmt.Sprintf("span %s", pol.D), stored)
		}
	}
	if user.shardsSet {
		if s.Algorithm != ShardedIncrementalThreshold || s.Shards != user.shards {
			return mismatch("shards", user.shards, fmt.Sprintf("%s/%d", s.Algorithm, s.Shards))
		}
	} else if user.algorithmSet && user.algorithm != s.Algorithm {
		return mismatch("algorithm", user.algorithm, s.Algorithm)
	}
	normBatch := func(b int) int {
		if b <= 1 {
			return 1
		}
		return b
	}
	if user.batchSize > 0 && normBatch(user.batchSize) != normBatch(s.BatchSize) {
		return mismatch("batch size", user.batchSize, s.BatchSize)
	}
	if !user.stemming && s.Stemming {
		return mismatch("stemming", false, true)
	}
	if !user.stopwords && s.Stopwords {
		return mismatch("stopwords", false, true)
	}
	if user.retainText && !s.RetainText {
		return mismatch("text retention", true, false)
	}
	if o, ok := user.weighter.(vsm.Okapi); ok && (!s.Okapi || s.OkapiAvgDL != o.AvgDocLen) {
		return mismatch("okapi scoring", o.AvgDocLen, s.OkapiAvgDL)
	}
	return nil
}
