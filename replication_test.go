package ita

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"ita/internal/faults"
	"ita/internal/wal"
)

// This file is the facade-level proof of warm-standby replication: a
// primary and an in-memory reference run the same workload, a follower
// tails the primary's WAL over a real TCP connection, and at every
// quiesced boundary all three must be byte-identical in the full
// captureState sense (results, stats, counters, id sequences). On top
// of that base the tests exercise the lifecycle edges: follower
// kill/rejoin resuming without a resync, primary crash + Promote with
// the old primary rejoining the new one, and promote-under-partition
// where the old primary's diverged WAL must be detected and resynced
// from a checkpoint. The randomized fault-schedule counterpart lives
// in faultrepl_test.go.

// testReplTuning is the fast-timing override every replication test
// uses: millisecond backoffs and heartbeats so reconnection and
// catch-up happen at test speed.
func testReplTuning(id string) Option {
	return withReplTuning(replTuning{
		id:           id,
		minBackoff:   2 * time.Millisecond,
		maxBackoff:   20 * time.Millisecond,
		dialTimeout:  time.Second,
		readTimeout:  2 * time.Second,
		writeTimeout: 2 * time.Second,
		heartbeat:    10 * time.Millisecond,
		ackTimeout:   5 * time.Second,
	})
}

func replPrimaryOpts(extra ...Option) []Option {
	opts := []Option{
		WithCountWindow(8),
		WithDurability(DurabilityOff),
		WithCheckpointEvery(16),
		// Roomy retention: these lifecycle tests assert Resyncs == 0 on
		// clean-prefix paths, and a loaded machine can stall the standby
		// long enough to cross several checkpoint rotations. The
		// past-retention resync fallback is proven tight in
		// internal/repl (TestFollowerPastRetention) and forced via WAL
		// divergence in TestPromoteUnderPartition.
		WithReplicationRetention(64),
		testReplTuning("primary"),
	}
	return append(opts, extra...)
}

// openReplPrimary opens a durable primary in a fresh temp dir and
// starts replication on a loopback port.
func openReplPrimary(t *testing.T) (*Engine, string, string) {
	t.Helper()
	dir := t.TempDir()
	e, err := Open(dir, replPrimaryOpts()...)
	if err != nil {
		t.Fatalf("open primary: %v", err)
	}
	addr, err := e.StartReplication("127.0.0.1:0")
	if err != nil {
		t.Fatalf("start replication: %v", err)
	}
	return e, addr.String(), dir
}

func openReplFollower(t *testing.T, dir, addr, id string) *Engine {
	t.Helper()
	f, err := OpenFollower(dir, addr, WithDurability(DurabilityOff), testReplTuning(id))
	if err != nil {
		t.Fatalf("open follower %s: %v", id, err)
	}
	return f
}

// waitReplCaughtUp polls until the follower's durable position —
// checkpoint seq, log offset and epoch — exactly matches the
// primary's. The primary must be quiesced (flushed, no concurrent
// writers); once positions match, nothing further flows but
// heartbeats, so the subsequent state comparison is race-free.
func waitReplCaughtUp(t *testing.T, f, p *Engine, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		p.mu.Lock()
		pSeq, pOff, pEpoch := p.wal.ckptSeq, p.wal.log.Offset(), p.wal.epochSeq
		p.mu.Unlock()
		f.mu.Lock()
		fSeq, fOff, fEpoch := f.wal.ckptSeq, f.wal.log.Offset(), f.wal.epochSeq
		f.mu.Unlock()
		if fSeq == pSeq && fOff == pOff && fEpoch == pEpoch {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up: primary at (seq %d, off %d, epoch %d), follower at (seq %d, off %d, epoch %d)",
				pSeq, pOff, pEpoch, fSeq, fOff, fEpoch)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// requireMirroredSegment asserts the follower's copy of the primary's
// current segment is byte-identical up to the primary's clean offset —
// the literal form of the "standby byte-identical at the acked
// boundary" guarantee.
func requireMirroredSegment(t *testing.T, p, f *Engine, context string) {
	t.Helper()
	p.mu.Lock()
	seq, off, pDir := p.wal.ckptSeq, p.wal.log.Offset(), p.wal.dir
	p.mu.Unlock()
	f.mu.Lock()
	fDir := f.wal.dir
	f.mu.Unlock()
	a, err := readSegmentPrefix(pDir, seq, off)
	if err != nil {
		t.Fatalf("%s: primary segment: %v", context, err)
	}
	b, err := readSegmentPrefix(fDir, seq, off)
	if err != nil {
		t.Fatalf("%s: follower segment: %v", context, err)
	}
	if string(a) != string(b) {
		t.Fatalf("%s: segment %d diverges within the first %d bytes", context, seq, off)
	}
}

func readSegmentPrefix(dir string, seq uint64, off int64) ([]byte, error) {
	data, err := os.ReadFile(wal.SegmentPath(dir, seq))
	if err != nil {
		return nil, err
	}
	if int64(len(data)) < off {
		return nil, fmt.Errorf("segment %d holds %d bytes, want %d", seq, len(data), off)
	}
	return data[:off], nil
}

// crashPrimaryForTest kills a replicating primary the way kill -9
// would: the replication server (and its listener) go away and the
// engine is abandoned unflushed.
func crashPrimaryForTest(e *Engine) {
	e.mu.Lock()
	r := e.repl
	e.mu.Unlock()
	if r != nil && r.server != nil {
		r.server.Close()
	}
	e.crashForTest()
}

// TestFollowerServesReplicatedReads is the base proof: the follower
// byte-mirrors the primary and serves the identical read surface,
// mutations are rejected with ErrReadOnly, replication stats report
// both sides, and a Watch registered on the standby observes the
// primary's epoch deltas.
func TestFollowerServesReplicatedReads(t *testing.T) {
	p, addr, _ := openReplPrimary(t)
	defer p.Close()
	ref, err := New(WithCountWindow(8))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	f := openReplFollower(t, t.TempDir(), addr, "standby")
	defer f.Close()

	live := driveOps(t, 0, 120, p, ref)
	waitReplCaughtUp(t, f, p, 10*time.Second)
	requireMirroredSegment(t, p, f, "after catch-up")
	want := captureState(ref)
	requireSameState(t, captureState(p), want, "primary vs reference")
	requireSameState(t, captureState(f), want, "follower vs reference")

	// The standby's read-only contract: every mutating operation is
	// rejected, and the rejection changes nothing.
	if _, err := f.IngestText("oil price", at(99999)); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("follower IngestText: %v, want ErrReadOnly", err)
	}
	if _, err := f.IngestBatch([]TimedText{{Text: "oil", At: at(99999)}}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("follower IngestBatch: %v, want ErrReadOnly", err)
	}
	if _, err := f.Register("crude market", 2); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("follower Register: %v, want ErrReadOnly", err)
	}
	if err := f.Advance(at(99999)); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("follower Advance: %v, want ErrReadOnly", err)
	}
	if err := f.Checkpoint(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("follower Checkpoint: %v, want ErrReadOnly", err)
	}
	if err := f.Snapshot(io.Discard); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("follower Snapshot: %v, want ErrReadOnly", err)
	}
	if f.Unregister(live[0]) {
		t.Fatal("follower Unregister reported success")
	}
	if got := f.Results(live[0]); got == nil {
		t.Fatal("follower stopped serving a live query after rejected Unregister")
	}
	if _, err := f.StartReplication("127.0.0.1:0"); err == nil {
		t.Fatal("StartReplication on a follower succeeded")
	}
	if err := p.Promote(); err == nil {
		t.Fatal("Promote on a primary succeeded")
	}
	requireSameState(t, captureState(f), want, "follower after rejected mutations")

	// Replication stats on both sides. Acks travel asynchronously after
	// the apply, so the primary's view of the follower's lag drains to
	// zero shortly after the positions themselves match.
	deadline := time.Now().Add(10 * time.Second)
	for {
		ps := p.ReplicationStats()
		if ps.Role != "primary" || len(ps.Followers) != 1 {
			t.Fatalf("primary stats: %+v", ps)
		}
		if fo := ps.Followers[0]; fo.Connected && fo.LagEpochs == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower ack never caught up: %+v", ps.Followers[0])
		}
		time.Sleep(2 * time.Millisecond)
	}
	fs := f.ReplicationStats()
	if fs.Role != "follower" || !fs.Connected || fs.LagEpochs != 0 || fs.Resyncs != 0 {
		t.Fatalf("follower stats: %+v", fs)
	}

	// A Watch on the standby observes the primary's epoch deltas: flood
	// the window with documents matching one live query and the new doc
	// ids must be delivered as Entered on the follower.
	id := live[len(live)-1]
	var mu sync.Mutex
	var got []Delta
	if err := f.Watch(id, func(d Delta) {
		mu.Lock()
		got = append(got, d)
		mu.Unlock()
	}); err != nil {
		t.Fatalf("follower Watch: %v", err)
	}
	text, ok := f.QueryText(id)
	if !ok {
		t.Fatalf("follower lost text of query %d", id)
	}
	for i := 0; i < 10; i++ {
		for _, e := range []*Engine{p, ref} {
			if _, err := e.IngestText(text, at(50000+i)); err != nil {
				t.Fatalf("ingest %d: %v", i, err)
			}
		}
	}
	waitReplCaughtUp(t, f, p, 10*time.Second)
	mu.Lock()
	n := len(got)
	for _, d := range got {
		if d.Query != id {
			t.Errorf("follower watch delivered delta for query %d, watched %d", d.Query, id)
		}
	}
	mu.Unlock()
	if n == 0 {
		t.Fatal("follower watch observed no deltas after matching ingests reached the standby")
	}
	requireSameState(t, captureState(f), captureState(ref), "follower after watch phase")
}

// TestFollowerKillRejoinResumes kills the standby mid-stream and
// rejoins it from its directory: recovery from the mirrored WAL plus a
// resume handshake must bring it back byte-identical without a
// checkpoint resync.
func TestFollowerKillRejoinResumes(t *testing.T) {
	p, addr, _ := openReplPrimary(t)
	defer p.Close()
	ref, err := New(WithCountWindow(8))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	fDir := t.TempDir()
	f := openReplFollower(t, fDir, addr, "standby")

	driveOps(t, 0, 80, p, ref)
	waitReplCaughtUp(t, f, p, 10*time.Second)
	if err := f.Close(); err != nil {
		t.Fatalf("close follower: %v", err)
	}

	// The primary keeps going while the standby is down — far enough to
	// cross checkpoint rotations, but within the retention window, so
	// the rejoin can resume from its mirrored WAL instead of falling
	// back to a checkpoint fetch (the past-retention fallback is proven
	// separately in internal/repl).
	driveOps(t, 80, 115, p, ref)

	f2 := openReplFollower(t, fDir, addr, "standby")
	defer f2.Close()
	waitReplCaughtUp(t, f2, p, 10*time.Second)
	requireMirroredSegment(t, p, f2, "after rejoin")
	requireSameState(t, captureState(f2), captureState(ref), "rejoined follower vs reference")
	if fs := f2.ReplicationStats(); fs.Resyncs != 0 {
		t.Fatalf("rejoin fell back to a checkpoint resync: %+v", fs)
	}
}

// TestPromoteSealsUnmarkedRecord: a primary that dies between an
// operation's record and its epoch marker leaves its standby holding
// the record without the marker. Promote must write the marker before
// the promoted engine appends one of its own, or the next reopen of the
// standby's directory refuses the log.
func TestPromoteSealsUnmarkedRecord(t *testing.T) {
	p, addr, _ := openReplPrimary(t)
	ref, err := New(WithCountWindow(8))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	fDir := t.TempDir()
	f := openReplFollower(t, fDir, addr, "standby")
	defer f.Close()
	driveOps(t, 0, 20, p, ref)
	waitReplCaughtUp(t, f, p, 10*time.Second)

	// The interrupted operation: its record is logged and shipped, its
	// marker never written.
	text := "crude oil tanker report"
	p.mu.Lock()
	err = p.walAppendLocked(&wal.Record{Kind: wal.KindBatch, Doc: uint64(p.nextDoc),
		Items: []wal.DocEntry{{At: at(1000).UnixNano(), Text: text}}})
	off := p.wal.log.Offset()
	p.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.IngestText(text, at(1000)); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		f.mu.Lock()
		fOff := f.wal.log.Offset()
		f.mu.Unlock()
		if fOff == off {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("standby at offset %d, primary at %d", fOff, off)
		}
	}
	crashPrimaryForTest(p)

	if err := f.Promote(); err != nil {
		t.Fatalf("promote: %v", err)
	}
	requireSameState(t, captureState(f), captureState(ref), "promoted standby vs reference")
	driveOps(t, 200, 210, f, ref)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(fDir)
	if err != nil {
		t.Fatalf("reopen the promoted standby's directory: %v", err)
	}
	defer r.Close()
	requireSameState(t, captureState(r), captureState(ref), "reopened promoted standby vs reference")
}

// TestPrimaryKillPromoteContinues is the failover path: kill -9 the
// primary, promote the standby, keep writing to it, and rejoin the old
// primary's directory as a follower of the new one — every state along
// the way byte-identical to the never-killed reference.
func TestPrimaryKillPromoteContinues(t *testing.T) {
	p, addr, pDir := openReplPrimary(t)
	ref, err := New(WithCountWindow(8))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	f := openReplFollower(t, t.TempDir(), addr, "standby")
	defer f.Close()

	driveOps(t, 0, 100, p, ref)
	waitReplCaughtUp(t, f, p, 10*time.Second)

	crashPrimaryForTest(p)
	if err := f.Promote(); err != nil {
		t.Fatalf("promote: %v", err)
	}
	requireSameState(t, captureState(f), captureState(ref), "promoted standby vs reference")

	// The promoted engine accepts writes and stays in lockstep with the
	// reference.
	driveOps(t, 100, 160, f, ref)
	requireSameState(t, captureState(f), captureState(ref), "promoted standby after writes")
	if err := f.Promote(); err == nil {
		t.Fatal("second Promote succeeded")
	}

	// Next generation: the promoted engine serves replication and the
	// old primary's directory rejoins as its follower. The old
	// primary's WAL is a clean prefix of the new one's history, so the
	// rejoin must resume, not resync.
	nAddr, err := f.StartReplication("127.0.0.1:0")
	if err != nil {
		t.Fatalf("promoted StartReplication: %v", err)
	}
	old := openReplFollower(t, pDir, nAddr.String(), "old-primary")
	defer old.Close()
	waitReplCaughtUp(t, old, f, 10*time.Second)
	requireMirroredSegment(t, f, old, "old primary rejoined")
	requireSameState(t, captureState(old), captureState(ref), "old primary as follower vs reference")
	if fs := old.ReplicationStats(); fs.Resyncs != 0 {
		t.Fatalf("clean-prefix rejoin fell back to a resync: %+v", fs)
	}
}

// TestPromoteUnderPartition promotes the standby while the network is
// cut and the unreachable primary keeps accepting writes. The promoted
// engine must equal the last replicated boundary; after the split the
// old primary's diverged WAL must be detected by the resume handshake
// and resynced from the new primary's checkpoint.
func TestPromoteUnderPartition(t *testing.T) {
	netw := faults.NewNetwork(faults.NewSchedule(1, faults.Config{}))

	pDir := t.TempDir()
	p, err := Open(pDir, replPrimaryOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.startReplicationOn(netw.Listener(l)); err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	ref, err := New(WithCountWindow(8))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	fDir := t.TempDir()
	f, err := OpenFollower(fDir, addr, WithDurability(DurabilityOff),
		withReplTuning(replTuning{
			id: "standby", dial: netw.Dial,
			minBackoff: 2 * time.Millisecond, maxBackoff: 20 * time.Millisecond,
			dialTimeout: time.Second, readTimeout: 2 * time.Second, writeTimeout: 2 * time.Second,
			heartbeat: 10 * time.Millisecond, ackTimeout: 5 * time.Second,
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	driveOps(t, 0, 90, p, ref)
	waitReplCaughtUp(t, f, p, 10*time.Second)

	// Split brain: the primary keeps writing behind the partition; none
	// of it reaches the standby.
	netw.Partition()
	driveOps(t, 200, 240, p)
	if err := f.Promote(); err != nil {
		t.Fatalf("promote under partition: %v", err)
	}
	requireSameState(t, captureState(f), captureState(ref), "promoted at partition boundary")

	// The promoted side continues with its own history (different ops
	// than the partitioned primary wrote).
	driveOps(t, 300, 345, f, ref)
	requireSameState(t, captureState(f), captureState(ref), "promoted after divergence")

	// Heal and fail the old primary over: its WAL holds records the new
	// primary's history never had, so rejoining as a follower must
	// detect the divergence and resync from the checkpoint.
	netw.Heal()
	if err := p.Close(); err != nil {
		t.Fatalf("close old primary: %v", err)
	}
	nAddr, err := f.StartReplication("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	old := openReplFollower(t, pDir, nAddr.String(), "old-primary")
	defer old.Close()
	waitReplCaughtUp(t, old, f, 10*time.Second)
	requireSameState(t, captureState(old), captureState(ref), "diverged primary resynced vs reference")
	if fs := old.ReplicationStats(); fs.Resyncs == 0 {
		t.Fatalf("diverged rejoin resumed without a resync: %+v", fs)
	}
}
