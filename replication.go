package ita

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"os"
	"slices"
	"time"

	"ita/internal/core"
	"ita/internal/repl"
	"ita/internal/wal"
)

// This file wires warm-standby replication (internal/repl) through the
// facade. The primary streams its WAL to followers as it writes it;
// each follower byte-mirrors the segments into its own directory and
// replays the records through the same locked operation paths recovery
// uses, publishing a wait-free read boundary at every epoch marker. A
// follower therefore serves Results, ResultsAll, Stats and Watch at all
// times, always at a state the primary's WAL actually passed through,
// and Promote flips it into a writable primary in place.
//
// The follower's durable position — (segment, offset) plus a CRC over
// its local tail — is what reconnection negotiates from: matching tail
// bytes resume the stream exactly there, anything else (divergence
// after a promote, a resume position past the primary's retention cap)
// falls back to a full checkpoint fetch and tail replay. The follower
// writes the fetched checkpoint, and the ones it mirrors at the
// primary's rotations, through the primary's own checkpoint writer and
// segment rotation (durable.go); a resync keeps the follower's log
// attachment and collects every older segment.

// Errors of the replication API. The canonical values live in
// internal/core so the cluster router can match them without importing
// this package; these are the same error values, not copies —
// errors.Is identities hold across both names.
var (
	// ErrReadOnly is returned by mutating operations on a follower;
	// Promote makes it writable.
	ErrReadOnly = core.ErrReadOnly
	// ErrClosed is returned by operations on a closed engine.
	ErrClosed = core.ErrClosed
)

// replTuning overrides replication timings and dialing; see
// withReplTuning in options.go. The zero value of every field takes the
// production default.
type replTuning struct {
	id           string // follower identity; default: the WAL directory path
	dial         func(addr string, timeout time.Duration) (net.Conn, error)
	dialTimeout  time.Duration
	readTimeout  time.Duration
	writeTimeout time.Duration
	minBackoff   time.Duration
	maxBackoff   time.Duration
	heartbeat    time.Duration // primary-side heartbeat interval
	ackTimeout   time.Duration // primary-side silent-follower cutoff
}

// replState is the engine's replication attachment; nil until
// StartReplication or OpenFollower.
type replState struct {
	// Primary side.
	tracker *repl.Tracker
	server  *repl.Server
	// Follower side.
	client *repl.Client
}

// replPublishLocked publishes the clean end of the log to the
// replication tracker, waking streaming connections. Must be called
// with e.mu held, after every successful append, boundary marker and
// checkpoint rotation. A no-op without a started replication server.
func (e *Engine) replPublishLocked() {
	if e.repl == nil || e.repl.tracker == nil {
		return
	}
	e.repl.tracker.Set(e.wal.position())
}

// position is the log's clean end as a replication position: the
// current segment, the offset in it and the boundary count.
func (w *walState) position() repl.Position {
	return repl.Position{Seq: w.ckptSeq, Off: w.log.Offset(), Epoch: w.epochSeq}
}

// walKeepSegLocked builds the segment-retention predicate for a
// checkpoint's GC pass: within the newest `retain` completed segments,
// a segment survives while some registered follower still needs it (or,
// before any follower has acked, unconditionally as grace). Returns nil
// — plain GC — when retention is off. Must be called with e.mu held.
func (e *Engine) walKeepSegLocked(st wal.DirState, cur uint64) func(uint64) bool {
	w := e.wal
	if w == nil || w.retain <= 0 {
		return nil
	}
	// The window is [lo, cur): Segments is sorted, and the newest retain
	// of those older than cur start at lo.
	lo := cur
	if i, _ := slices.BinarySearch(st.Segments, cur); i > 0 {
		lo = st.Segments[max(0, i-w.retain)]
	}
	// Before any follower has acked, the floor stays 0: all grace.
	var floor uint64
	if e.repl != nil && e.repl.server != nil {
		floor, _ = e.repl.server.MinPinnedSeq()
	}
	return func(seq uint64) bool { return seq >= max(lo, floor) && seq < cur }
}

// StartReplication makes a durable primary stream its WAL to followers:
// it listens on addr (host:port; port 0 picks a free one) and serves
// every follower that connects. The returned address is the bound
// listener address. Calling it on a follower (before Promote), a
// non-durable engine or twice is an error.
func (e *Engine) StartReplication(addr string) (net.Addr, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ita: replication listen: %w", err)
	}
	if err := e.startReplicationOn(l); err != nil {
		l.Close()
		return nil, err
	}
	return l.Addr(), nil
}

// startReplicationOn is StartReplication over a caller-provided
// listener (the fault-injection tests wrap one).
func (e *Engine) startReplicationOn(l net.Listener) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	if e.wal == nil {
		return errors.New("ita: replication requires a durable engine (ita.Open or WithWAL)")
	}
	if e.readOnly {
		return errors.New("ita: a follower cannot serve replication; Promote first")
	}
	if e.repl != nil && e.repl.server != nil {
		return errors.New("ita: replication already started")
	}
	w := e.wal
	if w.retain <= 0 {
		w.retain = 8
	}
	if e.repl == nil {
		e.repl = &replState{}
	}
	tr := repl.NewTracker(w.position())
	cfg := repl.ServerConfig{Dir: w.dir, Tracker: tr}
	if t := w.tune; t != nil {
		cfg.Heartbeat = t.heartbeat
		cfg.AckTimeout = t.ackTimeout
		cfg.WriteTimeout = t.writeTimeout
	}
	srv := repl.NewServer(cfg)
	e.repl.tracker, e.repl.server = tr, srv
	go srv.Serve(l)
	return nil
}

// OpenFollower opens a warm-standby replica of the primary replicating
// at primaryAddr. A fresh directory bootstraps itself by fetching the
// primary's current checkpoint; a directory holding earlier follower
// state recovers from it and resumes the stream at its durable
// position. The returned engine is read-only — mutating operations
// return ErrReadOnly — while reads and Watch serve the replicated
// state at every acknowledged epoch boundary. Call Promote to turn it
// into a writable primary. Like Open, it applies WithShards over the
// shard count the checkpoint recorded, so a standby sizes itself to its
// own machine, across resyncs too.
func OpenFollower(dir, primaryAddr string, opts ...Option) (*Engine, error) {
	e, err := openDurable(dir, opts, primaryAddr)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.readOnly = true
	cli := repl.NewClient(followerClientConfig(dir, primaryAddr, e.wal.tune), &followerApplier{e: e})
	e.repl = &replState{client: cli}
	e.mu.Unlock()
	cli.Start()
	return e, nil
}

func followerClientConfig(dir, primaryAddr string, t *replTuning) repl.ClientConfig {
	cfg := repl.ClientConfig{Addr: primaryAddr, ID: dir}
	if t != nil {
		if t.id != "" {
			cfg.ID = t.id
		}
		cfg.Dial = t.dial
		cfg.DialTimeout = t.dialTimeout
		cfg.ReadTimeout = t.readTimeout
		cfg.WriteTimeout = t.writeTimeout
		cfg.MinBackoff = t.minBackoff
		cfg.MaxBackoff = t.maxBackoff
	}
	return cfg
}

// fetchSnapshotRetry fetches the primary's checkpoint with the same
// backoff the streaming client uses, bounded to a handful of attempts
// so OpenFollower fails in bounded time when the primary is down.
func fetchSnapshotRetry(cfg repl.ClientConfig) (uint64, []byte, error) {
	backoff := cfg.MinBackoff
	if backoff <= 0 {
		backoff = 50 * time.Millisecond
	}
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		seq, data, err := repl.FetchSnapshot(cfg)
		if err == nil {
			return seq, data, nil
		}
		lastErr = err
		time.Sleep(backoff)
		backoff *= 2
	}
	return 0, nil, lastErr
}

// Promote turns a follower into a writable primary. The replication
// client is stopped first, so the promoted state is exactly the replay
// of a clean prefix of the primary's WAL — the same guarantee crash
// recovery gives — and every epoch the follower acknowledged is
// included. After Promote the engine accepts mutations and may itself
// call StartReplication to serve the next generation of followers.
// Promoting a primary is an error; promoting twice is a no-op error of
// the same kind.
func (e *Engine) Promote() error {
	e.mu.Lock()
	closed := e.closed
	var cli *repl.Client
	if e.readOnly {
		cli = e.repl.client
	}
	e.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if cli == nil {
		return errors.New("ita: Promote on an engine that is not a follower")
	}
	// Stop the stream outside the lock (the applier's calls take e.mu);
	// after Stop returns no further apply can be in flight.
	cli.Stop()
	e.mu.Lock()
	e.repl.client = nil
	e.readOnly = false
	e.wal.recovering = false
	// The primary may have died between an operation's record and its
	// marker; seal the log before this engine appends a marker of its own.
	err := e.walSealLocked()
	if err != nil {
		e.wal.log.Poison(err)
	}
	e.mu.Unlock()
	return err
}

// followerApplier adapts the engine to repl.Applier. Every method takes
// e.mu; watch deltas produced by applied epochs are delivered outside
// it, exactly as the primary's operation paths do.
type followerApplier struct {
	e *Engine
}

// apply runs one replicated operation on the follower's log, the
// follower's counterpart of mutate: under e.mu it refuses a closed
// engine and one that is no follower (any more), then runs op; after
// unlocking it delivers the watch deltas op queued.
func (a *followerApplier) apply(op func(w *walState) error) error {
	e := a.e
	defer e.deliverQueued()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	if e.wal == nil || !e.readOnly {
		return errors.New("ita: replicated apply on a non-follower")
	}
	return op(e.wal)
}

func (a *followerApplier) Position() (repl.Position, bool) {
	e := a.e
	e.mu.Lock()
	defer e.mu.Unlock()
	w := e.wal
	if w == nil || w.log == nil {
		return repl.Position{}, false
	}
	return w.position(), true
}

func (a *followerApplier) TailCRC(maxBytes int64) (uint32, int64) {
	e := a.e
	e.mu.Lock()
	defer e.mu.Unlock()
	w := e.wal
	if w == nil || w.log == nil {
		return 0, 0
	}
	off := w.log.Offset()
	f, err := os.Open(wal.SegmentPath(w.dir, w.ckptSeq))
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	tail := make([]byte, min(maxBytes, off))
	if _, err := f.ReadAt(tail, off-int64(len(tail))); err != nil {
		return 0, 0
	}
	return crc32.Checksum(tail, crc32.MakeTable(crc32.Castagnoli)), int64(len(tail))
}

// ApplyChunk byte-mirrors one chunk of primary segment bytes and
// replays its records. Log-before-apply holds on the follower too: the
// bytes land in the local segment before the first record mutates
// state, so a follower crash recovers to a state the ack stream
// covers.
func (a *followerApplier) ApplyChunk(seq uint64, off int64, data []byte) (n int, err error) {
	err = a.apply(func(w *walState) error {
		if seq != w.ckptSeq || off != w.log.Offset() {
			return repl.ErrNeedSnapshot
		}
		res := wal.Scan(data)
		if res.Torn || res.Clean != int64(len(data)) {
			return fmt.Errorf("ita: replicated chunk is not frame-aligned")
		}
		if err := w.log.AppendRaw(data); err != nil {
			return err
		}
		synced := w.mode != wal.DurabilityEpochSync // Always synced in AppendRaw; Off never
		for n = range res.Records {
			if err := a.e.replayRecord(&res.Records[n]); err != nil {
				return fmt.Errorf("ita: apply replicated record: %w", err)
			}
			if !synced && res.Records[n].Kind == wal.KindEpoch {
				// Epoch-durability parity with the primary: the chunk carries a
				// boundary, so it must be on stable storage before the ack
				// claims it.
				if err := w.log.Sync(); err != nil {
					return err
				}
				synced = true
			}
		}
		n = len(res.Records)
		return nil
	})
	return n, err
}

func (a *followerApplier) Rotate(seq uint64) error {
	return a.apply(func(w *walState) error {
		// The primary checkpoints only at a boundary; a mirrored follower
		// is at the same one. Anything else means the streams diverged.
		if w.epochSeq != seq {
			return repl.ErrNeedSnapshot
		}
		return a.e.writeCheckpointLocked(seq)
	})
}

func (a *followerApplier) ApplySnapshot(seq uint64, data []byte) error {
	return a.apply(func(w *walState) error { return a.e.applySnapshotLocked(w, seq, data) })
}

// applySnapshotLocked is the follower's full resync: persist the
// primary's checkpoint, rebuild an engine from it and graft that
// engine's state into this one in place, preserving the facade identity
// (watchers, published-view continuity) the caller holds. It takes a
// local checkpoint's steps: the checkpoint bytes are the primary's, and
// the rotation collects every older segment.
func (e *Engine) applySnapshotLocked(w *walState, seq uint64, data []byte) error {
	snap, err := decodeSnapshot(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("ita: replicated checkpoint: %w", err)
	}
	if err := w.writeCheckpoint(seq, writeBytes(data)); err != nil {
		return err
	}
	// Thread the runtime settings through like Open's recovery does: the
	// standby keeps its own shard count, and losing the test-only floor
	// knobs across a resync would change the rebuilt engine's floor
	// maintenance schedule mid-stream.
	ne, err := restoreSnapshot(snap, append(e.cfg.runtimeOptions(), WithWAL(w.dir), walAttached()))
	if err != nil {
		return err
	}
	if err := e.rotateLocked(seq, true); err != nil {
		return err
	}
	w.epochSeq, w.markerSeq = snap.EpochSeq, snap.EpochSeq
	e.adoptLocked(ne)
	// Watchers observe the resync as one coalesced delta per query
	// (collectDeltas diffs against their pre-resync baselines and drops
	// watches on queries that no longer exist).
	e.queueDeltasLocked(e.collectDeltas())
	return nil
}

// adoptLocked grafts a freshly restored engine's state into e, keeping
// e's identity: its mutex, its log, its watch subscriptions, its
// published-view sequence and the delivery queue keep flowing across
// the swap. Must be called with e.mu held.
func (e *Engine) adoptLocked(ne *Engine) {
	e.cfg = ne.cfg
	e.inner = ne.inner
	e.pipeline = ne.pipeline
	e.nextDoc, e.nextQuery, e.lastAt = ne.nextDoc, ne.nextQuery, ne.lastAt
	e.texts = ne.texts
	// e.pub is NOT replaced: publishLocked (inside the caller's
	// collectDeltas) republishes from the adopted inner engine under e's
	// own monotonic sequence, so wait-free readers never see the
	// sequence jump backwards.
}

// FollowerInfo is the primary's view of one follower.
type FollowerInfo struct {
	ID         string    `json:"id"`
	Addr       string    `json:"addr"`
	Connected  bool      `json:"connected"`
	AckSeq     uint64    `json:"ack_seq"`
	AckOff     int64     `json:"ack_off"`
	AckEpoch   uint64    `json:"ack_epoch"`
	LagEpochs  uint64    `json:"lag_epochs"`
	LastAck    time.Time `json:"last_ack"`
	Reconnects uint64    `json:"reconnects"`
}

// ReplicationStats is the engine's replication gauge; see
// Engine.ReplicationStats.
type ReplicationStats struct {
	// Role is "none", "primary" or "follower".
	Role string `json:"role"`
	// Primary side: one entry per follower that ever connected.
	Followers []FollowerInfo `json:"followers,omitempty"`
	// Follower side.
	Connected      bool   `json:"connected,omitempty"`
	Reconnects     uint64 `json:"reconnects,omitempty"`
	Resyncs        uint64 `json:"resyncs,omitempty"`
	AppliedRecords uint64 `json:"applied_records,omitempty"`
	AppliedSeq     uint64 `json:"applied_seq,omitempty"`
	AppliedOff     int64  `json:"applied_off,omitempty"`
	AppliedEpoch   uint64 `json:"applied_epoch,omitempty"`
	HeadSeq        uint64 `json:"head_seq,omitempty"`
	HeadOff        int64  `json:"head_off,omitempty"`
	HeadEpoch      uint64 `json:"head_epoch,omitempty"`
	// LagEpochs is the primary's head epoch minus the applied epoch (0
	// when caught up); LagBytes the byte distance within the same
	// segment (-1 when the positions are in different segments).
	LagEpochs uint64 `json:"lag_epochs"`
	LagBytes  int64  `json:"lag_bytes"`
	LastError string `json:"last_error,omitempty"`
}

// ReplicationStats reports the engine's replication state: per-follower
// ack positions and lag on a primary, applied/head positions, lag and
// reconnect counts on a follower. Role "none" means replication is not
// configured.
func (e *Engine) ReplicationStats() ReplicationStats {
	e.mu.Lock()
	r := e.repl
	var cur repl.Position
	if e.wal != nil && e.wal.log != nil {
		cur = e.wal.position()
	}
	var cli *repl.Client
	var srv *repl.Server
	if r != nil {
		cli, srv = r.client, r.server
	}
	e.mu.Unlock()

	var out ReplicationStats
	switch {
	case r == nil:
		out.Role = "none"
		return out
	case cli != nil: // Promote clears the client
		out.Role = "follower"
		cs := cli.Stats()
		head := cs.Head
		out.Connected = cs.Connected
		out.Reconnects = cs.Reconnects
		out.Resyncs = cs.Resyncs
		out.AppliedRecords = cs.AppliedRecords
		out.LastError = cs.LastError
		out.AppliedSeq, out.AppliedOff, out.AppliedEpoch = cur.Seq, cur.Off, cur.Epoch
		out.HeadSeq, out.HeadOff, out.HeadEpoch = head.Seq, head.Off, head.Epoch
		if head.Epoch > cur.Epoch {
			out.LagEpochs = head.Epoch - cur.Epoch
		}
		switch {
		case head.Seq == cur.Seq && head.Off > cur.Off:
			out.LagBytes = head.Off - cur.Off
		case head.Seq != cur.Seq:
			out.LagBytes = -1
		}
		return out
	default:
		out.Role = "primary"
		if srv != nil {
			for _, f := range srv.Followers() {
				info := FollowerInfo{
					ID: f.ID, Addr: f.Addr, Connected: f.Connected,
					AckSeq: f.AckSeq, AckOff: f.AckOff, AckEpoch: f.AckEpoch,
					LastAck: f.LastAck, Reconnects: f.Reconnects,
				}
				if cur.Epoch > f.AckEpoch {
					info.LagEpochs = cur.Epoch - f.AckEpoch
				}
				out.Followers = append(out.Followers, info)
			}
		}
		return out
	}
}
