package repl

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"ita/internal/wal"
)

// TestMessageRoundTrip: encode/decode is the identity on every field.
func TestMessageRoundTrip(t *testing.T) {
	msgs := []*message{
		{Type: msgHello, Seq: 12, Off: 3456, Epoch: 78, CRC: 0xDEADBEEF, CRCLen: 4096, HasState: true, ID: "follower-1"},
		{Type: msgSnapshot, Seq: 9, Data: bytes.Repeat([]byte{7}, 1000)},
		{Type: msgRecords, Seq: 1, Off: 0, Epoch: 2, Data: []byte("framebytes")},
		{Type: msgRotate, Seq: 99},
		{Type: msgHeartbeat, Seq: 5, Off: 100, Epoch: 42},
		{Type: msgAck},
	}
	var buf bytes.Buffer
	for _, m := range msgs {
		if _, err := writeMessage(&buf, m, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range msgs {
		got, err := readMessage(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Type != want.Type || got.Seq != want.Seq || got.Off != want.Off ||
			got.Epoch != want.Epoch || got.CRC != want.CRC || got.CRCLen != want.CRCLen ||
			got.HasState != want.HasState || got.ID != want.ID || !bytes.Equal(got.Data, want.Data) {
			t.Fatalf("round trip mangled %+v into %+v", want, got)
		}
	}
	// A flipped payload bit must fail the CRC.
	buf.Reset()
	writeMessage(&buf, msgs[0], nil)
	raw := buf.Bytes()
	raw[frameHeader+3] ^= 1
	if _, err := readMessage(bytes.NewReader(raw)); err == nil {
		t.Fatal("corrupt message decoded cleanly")
	}
}

// TestTracker: Set wakes waiters exactly when the position changes.
func TestTracker(t *testing.T) {
	tr := NewTracker(Position{Seq: 1, Off: 10})
	pos, ch := tr.Get()
	if pos != (Position{Seq: 1, Off: 10}) {
		t.Fatalf("pos = %+v", pos)
	}
	tr.Set(pos) // no change: must not wake
	select {
	case <-ch:
		t.Fatal("woken without a position change")
	default:
	}
	tr.Set(Position{Seq: 1, Off: 20})
	select {
	case <-ch:
	case <-time.After(time.Second):
		t.Fatal("not woken by a position change")
	}
	if got, _ := tr.Get(); got.Off != 20 {
		t.Fatalf("pos after set = %+v", got)
	}
}

// testPrimary drives a synthetic primary WAL directory: real segment
// files and checkpoints with the engine's layout and rotation
// invariant (a completed segment ends with the epoch marker naming its
// successor), without needing the engine itself.
type testPrimary struct {
	t     *testing.T
	dir   string
	tr    *Tracker
	log   *wal.Log
	seq   uint64
	epoch uint64
}

func newTestPrimary(t *testing.T) *testPrimary {
	dir := t.TempDir()
	if err := os.WriteFile(wal.CheckpointPath(dir, 0), []byte("SNAP0"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(wal.SegmentPath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	return &testPrimary{t: t, dir: dir, tr: NewTracker(Position{}), log: wal.NewLog(f, 0, wal.DurabilityOff)}
}

func (p *testPrimary) append(rec *wal.Record) {
	if err := p.log.Append(rec); err != nil {
		p.t.Fatal(err)
	}
	p.tr.Set(Position{Seq: p.seq, Off: p.log.Offset(), Epoch: p.epoch})
}

func (p *testPrimary) ingest(text string) {
	p.append(&wal.Record{Kind: wal.KindDoc, Doc: p.epoch, At: int64(p.epoch) * 1e6, Text: text})
	p.epoch++
	p.append(&wal.Record{Kind: wal.KindEpoch, Seq: p.epoch})
}

// rotate checkpoints at the current boundary: the epoch marker just
// appended names the new segment.
func (p *testPrimary) rotate() {
	seq := p.epoch
	if err := os.WriteFile(wal.CheckpointPath(p.dir, seq), []byte(fmt.Sprintf("SNAP%d", seq)), 0o644); err != nil {
		p.t.Fatal(err)
	}
	p.log.Close()
	f, err := os.Create(wal.SegmentPath(p.dir, seq))
	if err != nil {
		p.t.Fatal(err)
	}
	p.log = wal.NewLog(f, 0, wal.DurabilityOff)
	p.seq = seq
	p.tr.Set(Position{Seq: seq, Off: 0, Epoch: p.epoch})
}

// mirror is a test Applier that byte-mirrors the stream into its own
// directory, the same contract the engine's follower mode honors.
type mirror struct {
	mu      sync.Mutex
	dir     string
	seq     uint64
	off     int64
	epoch   uint64
	has     bool
	resyncs int
}

func (m *mirror) Position() (Position, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Position{Seq: m.seq, Off: m.off, Epoch: m.epoch}, m.has
}

func (m *mirror) TailCRC(max int64) (uint32, int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, err := os.ReadFile(wal.SegmentPath(m.dir, m.seq))
	if err != nil || int64(len(data)) < m.off {
		return 0, 0
	}
	n := max
	if n > m.off {
		n = m.off
	}
	return crc32.Checksum(data[m.off-n:m.off], crcTable), n
}

func (m *mirror) ApplySnapshot(seq uint64, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := os.WriteFile(wal.CheckpointPath(m.dir, seq), data, 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(wal.SegmentPath(m.dir, seq), nil, 0o644); err != nil {
		return err
	}
	m.seq, m.off, m.has = seq, 0, true
	m.resyncs++
	return nil
}

func (m *mirror) ApplyChunk(seq uint64, off int64, data []byte) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if seq != m.seq || off != m.off {
		return 0, ErrNeedSnapshot
	}
	res := wal.Scan(data)
	if res.Torn {
		return 0, fmt.Errorf("chunk not frame-aligned")
	}
	f, err := os.OpenFile(wal.SegmentPath(m.dir, seq), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return 0, err
	}
	f.Close()
	for _, rec := range res.Records {
		if rec.Kind == wal.KindEpoch {
			m.epoch = rec.Seq
		}
	}
	m.off += int64(len(data))
	return len(res.Records), nil
}

func (m *mirror) Rotate(seq uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := os.WriteFile(wal.CheckpointPath(m.dir, seq), []byte(fmt.Sprintf("SNAP%d", seq)), 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(wal.SegmentPath(m.dir, seq), nil, 0o644); err != nil {
		return err
	}
	m.seq, m.off = seq, 0
	return nil
}

func waitMirror(t *testing.T, tr *Tracker, m *mirror) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		want, _ := tr.Get()
		got, _ := m.Position()
		if got.Seq == want.Seq && got.Off == want.Off {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	want, _ := tr.Get()
	got, _ := m.Position()
	t.Fatalf("mirror stuck at %+v, primary at %+v", got, want)
}

func requireSameSegment(t *testing.T, pdir, fdir string, seq uint64) {
	t.Helper()
	a, err := os.ReadFile(wal.SegmentPath(pdir, seq))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(wal.SegmentPath(fdir, seq))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("segment %d differs: primary %d bytes, follower %d bytes", seq, len(a), len(b))
	}
}

// TestStreamMirrorsSegments: a fresh follower bootstraps via snapshot,
// then mirrors live appends and rotations byte-identically, resumes
// across a reconnect without a resync, and the server tracks its acks.
func TestStreamMirrorsSegments(t *testing.T) {
	p := newTestPrimary(t)
	for i := 0; i < 5; i++ {
		p.ingest(fmt.Sprintf("crude oil shipment %d", i))
	}

	srv := NewServer(ServerConfig{Dir: p.dir, Tracker: p.tr, Heartbeat: 20 * time.Millisecond})
	defer srv.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)

	m := &mirror{dir: t.TempDir()}
	cli := NewClient(ClientConfig{
		Addr: l.Addr().String(), ID: "f1",
		ReadTimeout: 200 * time.Millisecond,
		MinBackoff:  5 * time.Millisecond, MaxBackoff: 50 * time.Millisecond,
	}, m)
	cli.Start()
	defer cli.Stop()

	waitMirror(t, p.tr, m)
	if m.resyncs != 1 {
		t.Fatalf("fresh follower resyncs = %d, want 1", m.resyncs)
	}
	requireSameSegment(t, p.dir, m.dir, 0)

	// Live appends and a rotation mirror through.
	for i := 5; i < 9; i++ {
		p.ingest(fmt.Sprintf("tanker manifest %d", i))
	}
	p.rotate()
	for i := 9; i < 12; i++ {
		p.ingest(fmt.Sprintf("pipeline notice %d", i))
	}
	waitMirror(t, p.tr, m)
	requireSameSegment(t, p.dir, m.dir, 0)
	requireSameSegment(t, p.dir, m.dir, p.seq)

	// The server saw acks at the follower's position.
	deadline := time.Now().Add(5 * time.Second)
	for {
		fs := srv.Followers()
		if len(fs) == 1 && fs[0].AckSeq == p.seq && fs[0].AckOff == p.log.Offset() {
			if pin, ok := srv.MinPinnedSeq(); !ok || pin != p.seq {
				t.Fatalf("MinPinnedSeq = %d,%v", pin, ok)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("acks never caught up: %+v", fs)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Reconnect resumes from the mirrored position without a snapshot.
	cli.Stop()
	for i := 12; i < 15; i++ {
		p.ingest(fmt.Sprintf("refinery update %d", i))
	}
	cli2 := NewClient(ClientConfig{
		Addr: l.Addr().String(), ID: "f1",
		ReadTimeout: 200 * time.Millisecond,
		MinBackoff:  5 * time.Millisecond, MaxBackoff: 50 * time.Millisecond,
	}, m)
	cli2.Start()
	defer cli2.Stop()
	waitMirror(t, p.tr, m)
	if m.resyncs != 1 {
		t.Fatalf("resume after reconnect resynced (resyncs = %d)", m.resyncs)
	}
	requireSameSegment(t, p.dir, m.dir, p.seq)
	st := cli2.Stats()
	if st.AppliedRecords == 0 || st.LastAck.Off != p.log.Offset() {
		t.Fatalf("client stats %+v", st)
	}
}

// TestDivergedFollowerResyncs: a follower whose tail bytes differ from
// the primary's (a diverged ex-primary) fails the hello CRC check and
// is resynced by snapshot instead of resumed into corruption.
func TestDivergedFollowerResyncs(t *testing.T) {
	p := newTestPrimary(t)
	for i := 0; i < 6; i++ {
		p.ingest(fmt.Sprintf("benchmark grade %d", i))
	}

	srv := NewServer(ServerConfig{Dir: p.dir, Tracker: p.tr, Heartbeat: 20 * time.Millisecond})
	defer srv.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)

	// A "follower" claiming state at segment 0 with a divergent tail:
	// same offset as a prefix of the primary, different bytes.
	m := &mirror{dir: t.TempDir(), has: true}
	df, err := os.Create(wal.SegmentPath(m.dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	dl := wal.NewLog(df, 0, wal.DurabilityOff)
	dl.Append(&wal.Record{Kind: wal.KindDoc, Doc: 999, At: 1, Text: "a different history"})
	dl.Close()
	fi, _ := os.Stat(wal.SegmentPath(m.dir, 0))
	m.off = fi.Size()

	cli := NewClient(ClientConfig{
		Addr: l.Addr().String(), ID: "diverged",
		ReadTimeout: 200 * time.Millisecond,
		MinBackoff:  5 * time.Millisecond, MaxBackoff: 50 * time.Millisecond,
	}, m)
	cli.Start()
	defer cli.Stop()

	waitMirror(t, p.tr, m)
	if m.resyncs != 1 {
		t.Fatalf("diverged follower resyncs = %d, want 1", m.resyncs)
	}
	requireSameSegment(t, p.dir, m.dir, 0)
}

// TestFollowerPastRetention: when the segment a follower needs is gone
// the stream falls back to a snapshot on reconnect rather than failing
// forever.
func TestFollowerPastRetention(t *testing.T) {
	p := newTestPrimary(t)
	for i := 0; i < 4; i++ {
		p.ingest(fmt.Sprintf("spot price %d", i))
	}
	p.rotate()
	firstSeq := p.seq
	for i := 4; i < 8; i++ {
		p.ingest(fmt.Sprintf("futures curve %d", i))
	}
	p.rotate()
	// Simulate retention: segment 0 and the middle segment are gone.
	os.Remove(wal.SegmentPath(p.dir, 0))
	os.Remove(wal.SegmentPath(p.dir, firstSeq))
	for i := 8; i < 10; i++ {
		p.ingest(fmt.Sprintf("contango note %d", i))
	}

	srv := NewServer(ServerConfig{Dir: p.dir, Tracker: p.tr, Heartbeat: 20 * time.Millisecond})
	defer srv.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)

	// Follower thinks it is at segment 0 (now unavailable).
	m := &mirror{dir: t.TempDir(), has: true}
	os.WriteFile(wal.SegmentPath(m.dir, 0), nil, 0o644)
	cli := NewClient(ClientConfig{
		Addr: l.Addr().String(), ID: "lagger",
		ReadTimeout: 200 * time.Millisecond,
		MinBackoff:  5 * time.Millisecond, MaxBackoff: 50 * time.Millisecond,
	}, m)
	cli.Start()
	defer cli.Stop()

	waitMirror(t, p.tr, m)
	if m.resyncs != 1 {
		t.Fatalf("resyncs = %d, want 1", m.resyncs)
	}
	requireSameSegment(t, p.dir, m.dir, p.seq)
}

// TestClientStopDuringBackoff pins prompt shutdown: a client parked in
// a long reconnect backoff (dial keeps failing, MinBackoff measured in
// minutes) must return from Stop immediately rather than waiting the
// sleep out. This also covers the reusable backoff timer: the sleep is
// a stoppable timer now, where time.After left one allocated timer
// pending per retry until its full duration elapsed.
func TestClientStopDuringBackoff(t *testing.T) {
	dials := make(chan struct{}, 16)
	c := NewClient(ClientConfig{
		Addr: "127.0.0.1:0",
		ID:   "backoff-test",
		Dial: func(string, time.Duration) (net.Conn, error) {
			select {
			case dials <- struct{}{}:
			default:
			}
			return nil, errors.New("dial refused")
		},
		MinBackoff: 5 * time.Minute,
		MaxBackoff: 10 * time.Minute,
		Seed:       1,
	}, nil)
	c.Start()
	select {
	case <-dials:
	case <-time.After(5 * time.Second):
		t.Fatal("client never attempted a dial")
	}
	// The loop is now inside (or entering) the multi-minute backoff.
	start := time.Now()
	c.Stop()
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("Stop took %v during backoff, want immediate return", d)
	}
	if got := c.Stats(); got.Dials == 0 {
		t.Fatalf("stats = %+v, want at least one dial recorded", got)
	}
}

// TestDefaultBackoffSeedsDistinct pins the reconnect-storm fix: two
// followers with empty (or identical) ClientConfig.IDs must not derive
// the same jitter seed, or a primary restart makes every retry wave
// arrive as one synchronized herd. An explicit Seed stays untouched for
// deterministic tests.
func TestDefaultBackoffSeedsDistinct(t *testing.T) {
	var a, b ClientConfig
	a.defaults()
	b.defaults()
	if a.Seed == b.Seed {
		t.Fatalf("two default configs derived the same backoff seed %d", a.Seed)
	}
	c := ClientConfig{ID: "wal-dir"}
	d := ClientConfig{ID: "wal-dir"}
	c.defaults()
	d.defaults()
	if c.Seed == d.Seed {
		t.Fatalf("identical IDs derived the same backoff seed %d", c.Seed)
	}
	pinned := ClientConfig{Seed: 7}
	pinned.defaults()
	if pinned.Seed != 7 {
		t.Fatalf("explicit seed rewritten to %d", pinned.Seed)
	}
	// Distinct seeds must actually yield distinct schedules: the first
	// jitter draws differ somewhere in a short prefix.
	ra := rand.New(rand.NewSource(a.Seed))
	rb := rand.New(rand.NewSource(b.Seed))
	same := true
	for i := 0; i < 8 && same; i++ {
		same = ra.Int63n(1<<20) == rb.Int63n(1<<20)
	}
	if same {
		t.Fatal("distinct seeds produced identical jitter prefixes")
	}
}

// TestOvertakenDisconnectKeepsFollowerConnected is the regression test
// for a follower whose new connection registers before the handler of
// its old one has noticed the peer is gone — every standby that fetches
// a snapshot and then opens its stream does this, as does a reconnect
// that overtakes a slow teardown. The old handler's exit must not mark
// the follower disconnected; only the last connection leaving does.
// The order is forced by hand: the test speaks hello on two raw
// connections and closes the older one only after the newer has
// registered.
func TestOvertakenDisconnectKeepsFollowerConnected(t *testing.T) {
	p := newTestPrimary(t)
	p.ingest("crude oil shipment")
	srv := NewServer(ServerConfig{Dir: p.dir, Tracker: p.tr, Heartbeat: 5 * time.Millisecond})
	defer srv.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)

	hello := func() net.Conn {
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		if _, err := writeMessage(conn, &message{Type: msgHello, ID: "standby"}, nil); err != nil {
			t.Fatal(err)
		}
		go io.Copy(io.Discard, conn) // keep the server's stream writes flowing
		return conn
	}
	// state returns the follower's stats and the number of connections
	// whose handler has not finished. A handler drops its connection
	// from the server's set after its disconnect has run.
	state := func() (FollowerStats, int) {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		var st FollowerStats
		if f := srv.followers["standby"]; f != nil {
			st = f.stats
		}
		return st, len(srv.conns)
	}
	waitFor := func(what string, cond func(FollowerStats, int) bool) FollowerStats {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			st, conns := state()
			if cond(st, conns) {
				return st
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s: %+v, %d connections", what, st, conns)
			}
			time.Sleep(time.Millisecond)
		}
	}

	older := hello()
	waitFor("the first connection to register", func(st FollowerStats, _ int) bool { return st.Connected })
	newer := hello()
	waitFor("the second connection to register", func(st FollowerStats, _ int) bool { return st.Reconnects == 1 })

	older.Close()
	st := waitFor("the older handler to exit", func(_ FollowerStats, conns int) bool { return conns == 1 })
	if !st.Connected {
		t.Fatalf("older connection's exit marked a connected follower down: %+v", st)
	}
	newer.Close()
	st = waitFor("the newer handler to exit", func(_ FollowerStats, conns int) bool { return conns == 0 })
	if st.Connected {
		t.Fatalf("follower still reported connected with no connection left: %+v", st)
	}
}
