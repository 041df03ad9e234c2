package repl

import (
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ErrNeedSnapshot is returned by an Applier when its local state cannot
// absorb the incoming bytes (diverged tail, missed rotation). The
// client drops the connection and re-handshakes with HasState=false,
// forcing a full snapshot resync.
var ErrNeedSnapshot = errors.New("repl: follower state diverged; snapshot resync required")

// Applier is the follower side's hook into the engine: the client
// drives it with whatever the primary sends. Calls arrive from a
// single goroutine.
type Applier interface {
	// Position returns the follower's durable position and whether it
	// has any state at all (false on a fresh directory).
	Position() (Position, bool)
	// TailCRC returns the CRC-32C over at most maxBytes bytes ending at
	// the current position's offset in the current segment, and how many
	// bytes it covered. Zero coverage is fine at offset zero.
	TailCRC(maxBytes int64) (crc uint32, n int64)
	// ApplySnapshot replaces all local state with the checkpoint bytes
	// for boundary seq and starts a fresh segment seq.
	ApplySnapshot(seq uint64, data []byte) error
	// ApplyChunk appends raw frames starting at (seq, off) and applies
	// the records. It returns how many records it applied.
	ApplyChunk(seq uint64, off int64, data []byte) (int, error)
	// Rotate mirrors the primary's checkpoint at boundary seq: write a
	// local checkpoint and start fresh segment seq.
	Rotate(seq uint64) error
}

// ClientConfig parameterizes a follower client. Addr and ID are
// required; zero values elsewhere take the defaults noted per field.
type ClientConfig struct {
	// Addr is the primary's replication listener address.
	Addr string
	// ID is this follower's stable identity, sent in every hello.
	ID string
	// Dial overrides the dial function (fault injection hooks in here).
	// Default is net.DialTimeout("tcp", addr, timeout).
	Dial func(addr string, timeout time.Duration) (net.Conn, error)
	// DialTimeout bounds each dial (default 5s).
	DialTimeout time.Duration
	// ReadTimeout bounds each read; it must exceed the server's
	// heartbeat interval (default 10s).
	ReadTimeout time.Duration
	// WriteTimeout bounds each ack write (default 10s).
	WriteTimeout time.Duration
	// MinBackoff/MaxBackoff bound the exponential reconnect backoff
	// (defaults 50ms and 5s). Jitter of up to half the step is added.
	MinBackoff time.Duration
	MaxBackoff time.Duration
	// Seed seeds the backoff jitter; 0 derives one from the ID.
	Seed int64
}

func (c *ClientConfig) defaults() {
	if c.Dial == nil {
		c.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 10 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.MinBackoff <= 0 {
		c.MinBackoff = 50 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 5 * time.Second
	}
	if c.Seed == 0 {
		// Mix per-process entropy and a per-derivation counter into the
		// ID hash. Deriving from the ID alone gives followers with empty
		// or identical IDs identical jitter streams, so a primary
		// restart makes them reconnect in lockstep — every retry storm
		// arrives as one synchronized thundering herd.
		c.Seed = seedEntropy + seedCounter.Add(1)
		for _, b := range []byte(c.ID) {
			c.Seed = c.Seed*131 + int64(b)
		}
		if c.Seed == 0 {
			c.Seed = 1
		}
	}
}

// seedEntropy distinguishes processes whose followers carry identical
// ClientConfig.IDs; seedCounter distinguishes such followers within one
// process. Explicit ClientConfig.Seed bypasses both (deterministic
// tests).
var (
	seedEntropy = func() int64 {
		var b [8]byte
		if _, err := crand.Read(b[:]); err != nil {
			return time.Now().UnixNano()
		}
		return int64(binary.LittleEndian.Uint64(b[:]))
	}()
	seedCounter atomic.Int64
)

// ClientStats is the follower side's replication gauge.
type ClientStats struct {
	Connected      bool
	Dials          uint64
	Reconnects     uint64 // sessions after the first that reached handshake
	Resyncs        uint64 // snapshot applications
	AppliedRecords uint64
	LastAck        Position
	Head           Position // the primary's newest reported position, for lag
	LastError      string
}

// Client maintains a follower's connection to the primary: dial,
// handshake from the applier's durable position, apply the stream, ack,
// and on any failure back off exponentially (with jitter) and retry,
// resuming from whatever position the applier then reports.
type Client struct {
	cfg ClientConfig
	app Applier

	mu            sync.Mutex
	stats         ClientStats
	conn          net.Conn
	forceSnapshot bool
	started       bool
	stopped       bool

	done chan struct{}
	wg   sync.WaitGroup
}

// NewClient builds a client; Start begins replication.
func NewClient(cfg ClientConfig, app Applier) *Client {
	cfg.defaults()
	return &Client{cfg: cfg, app: app, done: make(chan struct{})}
}

// Start launches the replication loop. It is idempotent.
func (c *Client) Start() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.started || c.stopped {
		return
	}
	c.started = true
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.run()
	}()
}

// Stop terminates the loop and waits for it. It is idempotent.
func (c *Client) Stop() {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		c.wg.Wait()
		return
	}
	c.stopped = true
	close(c.done)
	conn := c.conn
	c.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	c.wg.Wait()
}

// Stats returns a snapshot of the client's replication gauges.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

func (c *Client) run() {
	rng := rand.New(rand.NewSource(c.cfg.Seed))
	backoff := c.cfg.MinBackoff
	// One reusable timer for the backoff sleeps. time.After leaks its
	// timer until expiry when the select exits via c.done, which on a
	// shutdown during a long backoff (or a tight reconnect churn) piles
	// up allocated timers the runtime must keep until they fire.
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	for {
		select {
		case <-c.done:
			return
		default:
		}
		c.mu.Lock()
		c.stats.Dials++
		c.mu.Unlock()
		conn, err := c.cfg.Dial(c.cfg.Addr, c.cfg.DialTimeout)
		if err != nil {
			c.setError(err)
		} else {
			c.mu.Lock()
			if c.stopped {
				c.mu.Unlock()
				conn.Close()
				return
			}
			c.conn = conn
			c.mu.Unlock()
			applied, serr := c.session(conn)
			conn.Close()
			c.mu.Lock()
			c.conn = nil
			c.stats.Connected = false
			c.mu.Unlock()
			if serr != nil {
				c.setError(serr)
				if errors.Is(serr, ErrNeedSnapshot) {
					c.mu.Lock()
					c.forceSnapshot = true
					c.mu.Unlock()
				}
			}
			if applied > 0 {
				backoff = c.cfg.MinBackoff // productive session: reset
			}
		}
		// Exponential backoff with jitter before the next attempt.
		d := backoff + time.Duration(rng.Int63n(int64(backoff)/2+1))
		backoff *= 2
		if backoff > c.cfg.MaxBackoff {
			backoff = c.cfg.MaxBackoff
		}
		timer.Reset(d)
		select {
		case <-c.done:
			// Drain so the next Reset starts from a clean timer: the
			// return makes this the last use, but a racing fire between
			// Stop and the read would leave a stale value in the channel
			// if this loop ever grows another exit path.
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			return
		case <-timer.C:
		}
	}
}

func (c *Client) setError(err error) {
	c.mu.Lock()
	c.stats.LastError = err.Error()
	c.mu.Unlock()
}

// session runs one connection: hello, then apply messages until the
// connection fails. It returns how many messages made progress.
func (c *Client) session(conn net.Conn) (applied int, err error) {
	c.mu.Lock()
	force := c.forceSnapshot
	first := c.stats.Reconnects == 0 && !c.stats.Connected
	c.mu.Unlock()

	pos, hasState := c.app.Position()
	hello := &message{Type: msgHello, ID: c.cfg.ID, Seq: pos.Seq, Off: pos.Off, Epoch: pos.Epoch}
	hello.HasState = hasState && !force
	if hello.HasState && pos.Off > 0 {
		crc, n := c.app.TailCRC(64 << 10)
		hello.CRC, hello.CRCLen = crc, n
	}
	conn.SetWriteDeadline(time.Now().Add(c.cfg.WriteTimeout))
	scratch, err := writeMessage(conn, hello, nil)
	if err != nil {
		return 0, err
	}
	if !first {
		c.mu.Lock()
		c.stats.Reconnects++
		c.mu.Unlock()
	}

	for {
		conn.SetReadDeadline(time.Now().Add(c.cfg.ReadTimeout))
		m, rerr := readMessage(conn)
		if rerr != nil {
			return applied, rerr
		}
		c.mu.Lock()
		c.stats.Connected = true
		c.mu.Unlock()
		switch m.Type {
		case msgResume:
			// The server continues from exactly our position; nothing to
			// apply, but note the head for lag.
			c.observeHead(Position{Seq: m.Seq, Off: m.Off, Epoch: m.Epoch})
		case msgSnapshot:
			if err := c.app.ApplySnapshot(m.Seq, m.Data); err != nil {
				return applied, err
			}
			c.mu.Lock()
			c.forceSnapshot = false
			c.stats.Resyncs++
			c.mu.Unlock()
			applied++
		case msgRecords:
			n, err := c.app.ApplyChunk(m.Seq, m.Off, m.Data)
			c.mu.Lock()
			c.stats.AppliedRecords += uint64(n)
			c.mu.Unlock()
			if err != nil {
				return applied, err
			}
			c.observeHead(Position{Seq: m.Seq, Off: m.Off + int64(len(m.Data)), Epoch: m.Epoch})
			applied++
		case msgRotate:
			if err := c.app.Rotate(m.Seq); err != nil {
				return applied, err
			}
			applied++
		case msgHeartbeat:
			c.observeHead(Position{Seq: m.Seq, Off: m.Off, Epoch: m.Epoch})
		default:
			return applied, fmt.Errorf("repl: unexpected message type %d", m.Type)
		}
		if scratch, err = c.ack(conn, scratch); err != nil {
			return applied, err
		}
	}
}

func (c *Client) observeHead(p Position) {
	c.mu.Lock()
	if c.stats.Head.Less(p) {
		c.stats.Head = p
	}
	c.mu.Unlock()
}

func (c *Client) ack(conn net.Conn, scratch []byte) ([]byte, error) {
	pos, _ := c.app.Position()
	m := &message{Type: msgAck, Seq: pos.Seq, Off: pos.Off, Epoch: pos.Epoch}
	conn.SetWriteDeadline(time.Now().Add(c.cfg.WriteTimeout))
	scratch, err := writeMessage(conn, m, scratch)
	if err != nil {
		return scratch, err
	}
	c.mu.Lock()
	c.stats.LastAck = pos
	c.mu.Unlock()
	return scratch, nil
}

// FetchSnapshot dials the primary once and retrieves its current
// checkpoint, for bootstrapping a fresh follower directory before the
// engine can even open it.
func FetchSnapshot(cfg ClientConfig) (seq uint64, data []byte, err error) {
	cfg.defaults()
	conn, err := cfg.Dial(cfg.Addr, cfg.DialTimeout)
	if err != nil {
		return 0, nil, err
	}
	defer conn.Close()
	hello := &message{Type: msgHello, ID: cfg.ID}
	conn.SetWriteDeadline(time.Now().Add(cfg.WriteTimeout))
	if _, err := writeMessage(conn, hello, nil); err != nil {
		return 0, nil, err
	}
	conn.SetReadDeadline(time.Now().Add(cfg.ReadTimeout))
	m, err := readMessage(conn)
	if err != nil {
		return 0, nil, err
	}
	if m.Type != msgSnapshot {
		return 0, nil, fmt.Errorf("repl: expected snapshot, got message type %d", m.Type)
	}
	return m.Seq, m.Data, nil
}
