package ita

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"os"
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
// falls back to a full checkpoint fetch and tail replay.

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
	client   *repl.Client
	head     repl.Position // last observed primary head
	promoted bool
}

// replPublishLocked publishes the clean end of the log to the
// replication tracker, waking streaming connections. Must be called
// with e.mu held, after every successful append, boundary marker and
// checkpoint rotation. A no-op without a started replication server.
func (e *Engine) replPublishLocked() {
	if e.repl == nil || e.repl.tracker == nil {
		return
	}
	w := e.wal
	e.repl.tracker.Set(repl.Position{Seq: w.ckptSeq, Off: w.log.Offset(), Epoch: w.epochSeq})
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
	var older []uint64
	for _, s := range st.Segments {
		if s < cur {
			older = append(older, s)
		}
	}
	if len(older) > w.retain {
		older = older[len(older)-w.retain:]
	}
	window := make(map[uint64]bool, len(older))
	for _, s := range older {
		window[s] = true
	}
	var floor uint64
	haveFloor := false
	if e.repl != nil && e.repl.server != nil {
		floor, haveFloor = e.repl.server.MinPinnedSeq()
	}
	return func(seq uint64) bool {
		if !window[seq] {
			return false
		}
		if !haveFloor {
			return true
		}
		return seq >= floor
	}
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
	tr := repl.NewTracker(repl.Position{Seq: w.ckptSeq, Off: w.log.Offset(), Epoch: w.epochSeq})
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
	probe := config{stemming: true, stopwords: true}
	for _, o := range opts {
		if err := o(&probe); err != nil {
			return nil, err
		}
	}
	ccfg := followerClientConfig(dir, primaryAddr, probe.replTune)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ita: open follower dir: %w", err)
	}
	st, err := wal.ScanDir(dir)
	if err != nil {
		return nil, fmt.Errorf("ita: scan follower dir: %w", err)
	}
	if _, found := st.Latest(); !found {
		// Fresh directory: bootstrap from the primary's checkpoint so
		// Open's recovery path does the rest. Written with the same
		// tmp-rename discipline as a local checkpoint.
		seq, data, err := fetchSnapshotRetry(ccfg)
		if err != nil {
			return nil, fmt.Errorf("ita: bootstrap from primary: %w", err)
		}
		if err := writeCheckpointFile(dir, seq, data); err != nil {
			return nil, err
		}
	}
	e, err := openDurable(dir, opts, true)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.readOnly = true
	// Follower apply mode is recovery mode made permanent: records
	// arrive from the wire already logged (byte-mirrored), so the replay
	// paths must not re-append them.
	e.wal.recovering = true
	e.repl = &replState{}
	cli := repl.NewClient(ccfg, &followerApplier{e: e})
	e.repl.client = cli
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

// writeCheckpointFile persists checkpoint bytes crash-atomically:
// tmp, fsync, rename, directory fsync.
func writeCheckpointFile(dir string, seq uint64, data []byte) error {
	tmp := wal.CheckpointTmpPath(dir, seq)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("ita: write checkpoint: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("ita: write checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("ita: sync checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("ita: close checkpoint: %w", err)
	}
	if err := os.Rename(tmp, wal.CheckpointPath(dir, seq)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("ita: rename checkpoint: %w", err)
	}
	wal.SyncDir(dir)
	return nil
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
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	if !e.readOnly {
		e.mu.Unlock()
		return errors.New("ita: Promote on an engine that is not a follower")
	}
	var cli *repl.Client
	if e.repl != nil {
		cli = e.repl.client
	}
	e.mu.Unlock()
	// Stop the stream outside the lock (the applier's calls take e.mu);
	// after Stop returns no further apply can be in flight.
	if cli != nil {
		cli.Stop()
	}
	e.mu.Lock()
	if e.repl != nil {
		e.repl.client = nil
		e.repl.promoted = true
	}
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

func (a *followerApplier) Position() (repl.Position, bool) {
	e := a.e
	e.mu.Lock()
	defer e.mu.Unlock()
	w := e.wal
	if w == nil || w.log == nil {
		return repl.Position{}, false
	}
	return repl.Position{Seq: w.ckptSeq, Off: w.log.Offset(), Epoch: w.epochSeq}, true
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
	data, err := os.ReadFile(wal.SegmentPath(w.dir, w.ckptSeq))
	if err != nil || int64(len(data)) < off {
		return 0, 0
	}
	n := maxBytes
	if n > off {
		n = off
	}
	return crc32.Checksum(data[off-n:off], crc32.MakeTable(crc32.Castagnoli)), n
}

func (a *followerApplier) ApplyChunk(seq uint64, off int64, head uint64, data []byte) (int, error) {
	e := a.e
	e.mu.Lock()
	n, err := e.applyChunkLocked(seq, off, data)
	e.mu.Unlock()
	e.deliverQueued()
	return n, err
}

// applyChunkLocked byte-mirrors one chunk of primary segment bytes and
// replays its records. Log-before-apply holds on the follower too: the
// bytes land in the local segment before the first record mutates
// state, so a follower crash recovers to a state the ack stream
// covers.
func (e *Engine) applyChunkLocked(seq uint64, off int64, data []byte) (int, error) {
	if e.closed {
		return 0, ErrClosed
	}
	w := e.wal
	if w == nil || !e.readOnly {
		return 0, errors.New("ita: chunk apply on a non-follower")
	}
	if seq != w.ckptSeq || off != w.log.Offset() {
		return 0, repl.ErrNeedSnapshot
	}
	res := wal.Scan(data)
	if res.Torn || res.Clean != int64(len(data)) {
		return 0, fmt.Errorf("ita: replicated chunk is not frame-aligned")
	}
	if err := w.log.AppendRaw(data); err != nil {
		return 0, err
	}
	synced := w.mode != wal.DurabilityEpochSync // Always synced in AppendRaw; Off never
	for i := range res.Records {
		if err := e.replayRecord(&res.Records[i]); err != nil {
			return i, fmt.Errorf("ita: apply replicated record: %w", err)
		}
		if !synced && res.Records[i].Kind == wal.KindEpoch {
			// Epoch-durability parity with the primary: the chunk carries a
			// boundary, so it must be on stable storage before the ack
			// claims it.
			if err := w.log.Sync(); err != nil {
				return i, err
			}
			synced = true
		}
	}
	return len(res.Records), nil
}

func (a *followerApplier) Rotate(seq uint64) error {
	e := a.e
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	w := e.wal
	if w == nil || !e.readOnly {
		return errors.New("ita: rotate on a non-follower")
	}
	// The primary checkpoints only at a boundary; a mirrored follower is
	// at the same one. Anything else means the streams diverged.
	if w.epochSeq != seq {
		return repl.ErrNeedSnapshot
	}
	return e.writeCheckpointLocked(seq)
}

func (a *followerApplier) ApplySnapshot(seq uint64, data []byte) error {
	e := a.e
	e.mu.Lock()
	err := e.applySnapshotLocked(seq, data)
	e.mu.Unlock()
	e.deliverQueued()
	return err
}

// applySnapshotLocked is the follower's full resync: persist the
// primary's checkpoint, rebuild an engine from it and graft that
// engine's state into this one in place, preserving the facade identity
// (watchers, published-view continuity) the caller holds.
func (e *Engine) applySnapshotLocked(seq uint64, data []byte) error {
	if e.closed {
		return ErrClosed
	}
	w := e.wal
	if w == nil || !e.readOnly {
		return errors.New("ita: snapshot apply on a non-follower")
	}
	snap, err := decodeSnapshot(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("ita: replicated checkpoint: %w", err)
	}
	if err := writeCheckpointFile(w.dir, seq, data); err != nil {
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
	sf, err := w.hooks.createFile(wal.SegmentPath(w.dir, seq))
	if err != nil {
		return fmt.Errorf("ita: create segment: %w", err)
	}
	wal.SyncDir(w.dir)
	ne.wal = &walState{
		dir: w.dir, mode: w.mode, every: w.every, retain: w.retain, tune: w.tune, hooks: w.hooks,
		epochSeq: snap.EpochSeq, markerSeq: snap.EpochSeq, ckptSeq: seq,
		recovering: true, log: wal.NewLog(sf, 0, w.mode),
	}
	e.adoptLocked(ne)
	if st, err := wal.ScanDir(e.wal.dir); err == nil {
		wal.GC(e.wal.dir, st, seq)
	}
	// Watchers observe the resync as one coalesced delta per query
	// (collectDeltas diffs against their pre-resync baselines and drops
	// watches on queries that no longer exist).
	e.queueDeltasLocked(e.collectDeltas())
	return nil
}

// adoptLocked grafts a freshly restored engine's state into e, keeping
// e's identity: its mutex, its watch subscriptions, its published-view
// sequence and the delivery queue keep flowing across the swap. The old
// log is closed. Must be called with e.mu held.
func (e *Engine) adoptLocked(ne *Engine) {
	if e.wal != nil && e.wal.log != nil {
		e.wal.log.Close()
	}
	e.cfg = ne.cfg
	e.inner = ne.inner
	e.pipeline = ne.pipeline
	e.nextDoc, e.nextQuery, e.lastAt = ne.nextDoc, ne.nextQuery, ne.lastAt
	e.texts = ne.texts
	e.wal = ne.wal
	// e.pub is NOT replaced: publishLocked (inside the caller's
	// collectDeltas) republishes from the adopted inner engine under e's
	// own monotonic sequence, so wait-free readers never see the
	// sequence jump backwards.
}

func (a *followerApplier) ObserveHead(p repl.Position) {
	e := a.e
	e.mu.Lock()
	if e.repl != nil && e.repl.head.Less(p) {
		e.repl.head = p
	}
	e.mu.Unlock()
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
	readOnly := e.readOnly
	var cur repl.Position
	if e.wal != nil && e.wal.log != nil {
		cur = repl.Position{Seq: e.wal.ckptSeq, Off: e.wal.log.Offset(), Epoch: e.wal.epochSeq}
	}
	var head repl.Position
	var cli *repl.Client
	var srv *repl.Server
	if r != nil {
		head, cli, srv = r.head, r.client, r.server
	}
	e.mu.Unlock()

	var out ReplicationStats
	switch {
	case r == nil:
		out.Role = "none"
		return out
	case readOnly || cli != nil:
		out.Role = "follower"
		if cli != nil {
			cs := cli.Stats()
			out.Connected = cs.Connected
			out.Reconnects = cs.Reconnects
			out.Resyncs = cs.Resyncs
			out.AppliedRecords = cs.AppliedRecords
			out.LastError = cs.LastError
		}
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
