package repl

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"ita/internal/wal"
)

// ServerConfig parameterizes a replication server. Dir and Tracker are
// required; zero durations take the defaults noted on each field.
type ServerConfig struct {
	// Dir is the primary's WAL directory; segments are streamed straight
	// from its files.
	Dir string
	// Tracker publishes the primary's clean log position.
	Tracker *Tracker
	// Heartbeat is the idle-connection heartbeat interval (default
	// 500ms). Follower read timeouts must exceed it.
	Heartbeat time.Duration
	// AckTimeout bounds how long a connection may go without an ack
	// before it is presumed dead (default 30s).
	AckTimeout time.Duration
	// WriteTimeout bounds each message write (default 30s).
	WriteTimeout time.Duration
	// ChunkSize is the target records-message size (default 256 KiB).
	// Chunks are trimmed to whole frames, so a single frame larger than
	// this still ships alone.
	ChunkSize int
}

// FollowerStats is one follower's view from the primary side. A
// follower is identified by the ID it sends in hello; it stays in the
// stats (and keeps pinning segments) across reconnects until the
// server is closed.
type FollowerStats struct {
	ID         string
	Addr       string
	Connected  bool
	AckSeq     uint64
	AckOff     int64
	AckEpoch   uint64
	LastAck    time.Time
	Reconnects uint64
}

type followerInfo struct {
	stats FollowerStats
	// live counts the follower's open connections. A reconnect (or the
	// stream that follows a snapshot fetch) can register before the
	// older connection's handler notices its peer is gone, so Connected
	// is "any connection left", not "the last handler to speak".
	live          int
	forceSnapshot bool // set when streaming lost the follower's position
	acked         bool // at least one ack received (pin is meaningful)
}

// Server streams WAL bytes to followers. One Server serves any number
// of concurrent follower connections over listeners passed to Serve.
type Server struct {
	cfg ServerConfig

	mu        sync.Mutex
	followers map[string]*followerInfo
	conns     map[net.Conn]struct{}
	listeners []net.Listener
	chain     map[uint64]uint64 // completed segment seq -> successor seq
	closed    bool

	done chan struct{}
	wg   sync.WaitGroup
}

// NewServer builds a server over cfg, applying defaults.
func NewServer(cfg ServerConfig) *Server {
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 500 * time.Millisecond
	}
	if cfg.AckTimeout <= 0 {
		cfg.AckTimeout = 30 * time.Second
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 30 * time.Second
	}
	if cfg.ChunkSize <= 0 {
		cfg.ChunkSize = 256 << 10
	}
	return &Server{
		cfg:       cfg,
		followers: make(map[string]*followerInfo),
		conns:     make(map[net.Conn]struct{}),
		chain:     make(map[uint64]uint64),
		done:      make(chan struct{}),
	}
}

// Serve accepts follower connections on l until l or the server is
// closed. It blocks; run it in a goroutine.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return errors.New("repl: server closed")
	}
	s.listeners = append(s.listeners, l)
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			select {
			case <-s.done:
				return nil
			default:
				return err
			}
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// Close stops accepting, drops every follower connection and waits for
// the per-connection goroutines to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.done)
	ls := s.listeners
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, l := range ls {
		l.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return nil
}

// MinPinnedSeq returns the lowest segment any follower that has ever
// acked still needs, and whether such a follower exists. The engine's
// GC keeps segments at or above this (bounded by its retention cap).
func (s *Server) MinPinnedSeq() (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var min uint64
	found := false
	for _, f := range s.followers {
		if !f.acked {
			continue
		}
		if !found || f.stats.AckSeq < min {
			min = f.stats.AckSeq
			found = true
		}
	}
	return min, found
}

// Followers returns a snapshot of per-follower stats.
func (s *Server) Followers() []FollowerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]FollowerStats, 0, len(s.followers))
	for _, f := range s.followers {
		out = append(out, f.stats)
	}
	return out
}

// handle runs one follower connection: handshake, then stream until
// the connection dies or the server closes.
func (s *Server) handle(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()

	conn.SetReadDeadline(time.Now().Add(s.cfg.AckTimeout))
	hello, err := readMessage(conn)
	if err != nil || hello.Type != msgHello || hello.ID == "" {
		return
	}
	info := s.register(hello.ID, conn.RemoteAddr().String())
	defer s.disconnect(info)

	start, err := s.negotiate(conn, hello, info)
	if err != nil {
		return
	}

	// Acks arrive asynchronously while the stream loop writes; a reader
	// goroutine folds them into the follower's pin. Its exit (read error
	// or ack timeout) closes the connection, which unblocks the stream
	// loop's writes.
	ackDone := make(chan struct{})
	go func() {
		defer close(ackDone)
		for {
			conn.SetReadDeadline(time.Now().Add(s.cfg.AckTimeout))
			m, err := readMessage(conn)
			if err != nil {
				conn.Close()
				return
			}
			if m.Type == msgAck {
				s.recordAck(info, m)
			}
		}
	}()

	s.stream(conn, info, start)
	conn.Close()
	<-ackDone
}

func (s *Server) register(id, addr string) *followerInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.followers[id]
	if !ok {
		f = &followerInfo{stats: FollowerStats{ID: id}}
		s.followers[id] = f
	} else {
		f.stats.Reconnects++
	}
	f.stats.Addr = addr
	f.live++
	f.stats.Connected = true
	return f
}

func (s *Server) disconnect(f *followerInfo) {
	s.mu.Lock()
	f.live--
	f.stats.Connected = f.live > 0
	s.mu.Unlock()
}

func (s *Server) recordAck(f *followerInfo, m *message) {
	s.mu.Lock()
	f.stats.AckSeq = m.Seq
	f.stats.AckOff = m.Off
	f.stats.AckEpoch = m.Epoch
	f.stats.LastAck = time.Now()
	f.acked = true
	s.mu.Unlock()
}

// negotiate answers hello with resume or snapshot and returns the
// position streaming starts from.
func (s *Server) negotiate(conn net.Conn, hello *message, info *followerInfo) (Position, error) {
	s.mu.Lock()
	force := info.forceSnapshot
	s.mu.Unlock()
	pos, _ := s.cfg.Tracker.Get()
	if hello.HasState && !force && s.canResume(hello, pos) {
		m := &message{Type: msgResume, Seq: hello.Seq, Off: hello.Off, Epoch: pos.Epoch}
		conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		if _, err := writeMessage(conn, m, nil); err != nil {
			return Position{}, err
		}
		return Position{Seq: hello.Seq, Off: hello.Off}, nil
	}
	// Snapshot. The checkpoint for the tracked position can be rotated
	// away between reading the tracker and the file, so retry with a
	// fresh position.
	var data []byte
	var err error
	for attempt := 0; attempt < 5; attempt++ {
		pos, _ = s.cfg.Tracker.Get()
		data, err = os.ReadFile(wal.CheckpointPath(s.cfg.Dir, pos.Seq))
		if err == nil {
			break
		}
	}
	if err != nil {
		return Position{}, fmt.Errorf("repl: read checkpoint %d: %w", pos.Seq, err)
	}
	m := &message{Type: msgSnapshot, Seq: pos.Seq, Epoch: pos.Epoch, Data: data}
	conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	if _, err := writeMessage(conn, m, nil); err != nil {
		return Position{}, err
	}
	s.mu.Lock()
	info.forceSnapshot = false
	s.mu.Unlock()
	return Position{Seq: pos.Seq}, nil
}

// canResume decides whether the follower's claimed position is a live
// prefix of this primary's log: the segment must still exist, the
// follower's tail bytes must match ours (CRC), and the segment chain
// from there must reach the current head. Any doubt means no — the
// fallback is a snapshot, which is always correct.
func (s *Server) canResume(hello *message, pos Position) bool {
	if hello.Seq > pos.Seq || (hello.Seq == pos.Seq && hello.Off > pos.Off) {
		return false // ahead of us: diverged (e.g. a promoted ex-follower)
	}
	segPath := wal.SegmentPath(s.cfg.Dir, hello.Seq)
	fi, err := os.Stat(segPath)
	if err != nil {
		return false // rotated away: follower is past retention
	}
	limit := pos.Off
	if hello.Seq < pos.Seq {
		limit = fi.Size()
	}
	if hello.Off > limit {
		return false
	}
	if hello.Off > 0 {
		n := hello.CRCLen
		if n <= 0 || n > hello.Off {
			return false
		}
		f, err := os.Open(segPath)
		if err != nil {
			return false
		}
		buf := make([]byte, n)
		_, rerr := f.ReadAt(buf, hello.Off-n)
		f.Close()
		if rerr != nil || crc32.Checksum(buf, crcTable) != hello.CRC {
			return false
		}
	}
	// Walk the rotation chain hello.Seq -> pos.Seq.
	seq := hello.Seq
	for i := 0; seq != pos.Seq; i++ {
		if i > 1<<20 {
			return false
		}
		next, ok := s.nextSegment(seq)
		if !ok || next <= seq {
			return false
		}
		seq = next
	}
	return true
}

// nextSegment returns the successor of completed segment seq. The
// engine rotates immediately after appending the epoch marker that
// names the new segment, so a completed segment's last record is
// always that marker; its Seq field is the successor.
func (s *Server) nextSegment(seq uint64) (uint64, bool) {
	s.mu.Lock()
	next, ok := s.chain[seq]
	s.mu.Unlock()
	if ok {
		return next, true
	}
	res, err := wal.ScanFile(wal.SegmentPath(s.cfg.Dir, seq))
	if err != nil || len(res.Records) == 0 {
		return 0, false
	}
	last := res.Records[len(res.Records)-1]
	if last.Kind != wal.KindEpoch {
		return 0, false
	}
	s.mu.Lock()
	s.chain[seq] = last.Seq
	s.mu.Unlock()
	return last.Seq, true
}

// stream pushes segment bytes from start until the connection dies.
func (s *Server) stream(conn net.Conn, info *followerInfo, start Position) {
	seq, off := start.Seq, start.Off
	var scratch []byte
	hb := time.NewTimer(s.cfg.Heartbeat)
	defer hb.Stop()
	for {
		select {
		case <-s.done:
			return
		default:
		}
		pos, ch := s.cfg.Tracker.Get()
		var limit int64
		final := false
		switch {
		case seq == pos.Seq:
			limit = pos.Off
		case seq < pos.Seq:
			fi, err := os.Stat(wal.SegmentPath(s.cfg.Dir, seq))
			if err != nil {
				s.loseFollower(info) // segment GC'd underneath us
				return
			}
			limit = fi.Size()
			final = true
		default:
			return // tracker moved backwards: impossible, bail out
		}
		switch {
		case off < limit:
			data, err := s.readFrames(seq, off, limit)
			if err != nil {
				s.loseFollower(info)
				return
			}
			m := &message{Type: msgRecords, Seq: seq, Off: off, Epoch: pos.Epoch, Data: data}
			conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
			if scratch, err = writeMessage(conn, m, scratch); err != nil {
				return
			}
			off += int64(len(data))
		case final:
			next, ok := s.nextSegment(seq)
			if !ok {
				s.loseFollower(info)
				return
			}
			m := &message{Type: msgRotate, Seq: next, Epoch: pos.Epoch}
			conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
			var err error
			if scratch, err = writeMessage(conn, m, scratch); err != nil {
				return
			}
			seq, off = next, 0
		default:
			// Caught up: wait for more bytes or send a heartbeat.
			if !hb.Stop() {
				select {
				case <-hb.C:
				default:
				}
			}
			hb.Reset(s.cfg.Heartbeat)
			select {
			case <-ch:
			case <-hb.C:
				m := &message{Type: msgHeartbeat, Seq: pos.Seq, Off: pos.Off, Epoch: pos.Epoch}
				conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
				var err error
				if scratch, err = writeMessage(conn, m, scratch); err != nil {
					return
				}
			case <-s.done:
				return
			}
		}
	}
}

// loseFollower marks that streaming can no longer continue from the
// follower's position (a needed segment vanished); the next handshake
// falls back to a snapshot.
func (s *Server) loseFollower(info *followerInfo) {
	s.mu.Lock()
	info.forceSnapshot = true
	s.mu.Unlock()
}

// readFrames reads a frame-aligned chunk of segment seq starting at
// off, never crossing limit (the clean boundary published by the
// tracker). The read is grown until at least one whole frame fits.
func (s *Server) readFrames(seq uint64, off, limit int64) ([]byte, error) {
	f, err := os.Open(wal.SegmentPath(s.cfg.Dir, seq))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	want := int64(s.cfg.ChunkSize)
	for {
		if want > limit-off {
			want = limit - off
		}
		buf := make([]byte, want)
		if _, err := io.ReadFull(io.NewSectionReader(f, off, want), buf); err != nil {
			return nil, err
		}
		res := wal.Scan(buf)
		if res.Clean > 0 {
			return buf[:res.Clean], nil
		}
		if want == limit-off {
			return nil, fmt.Errorf("repl: segment %d has no clean frame in [%d,%d)", seq, off, limit)
		}
		want *= 2
	}
}
