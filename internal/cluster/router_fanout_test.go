package cluster_test

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"ita"
	"ita/internal/cluster"
	"ita/internal/model"
)

// gauge tracks how many fan-out calls are in flight at once; max is the
// proof of overlap.
type gauge struct{ cur, max atomic.Int32 }

func (g *gauge) enter() {
	c := g.cur.Add(1)
	for {
		m := g.max.Load()
		if c <= m || g.max.CompareAndSwap(m, c) {
			return
		}
	}
}

func (g *gauge) exit() { g.cur.Add(-1) }

// fanProbe wraps a node with an in-flight gauge, a per-call delay wide
// enough that concurrent calls must overlap, per-method error
// injection, and call counting — everything the fan-out contract tests
// need.
type fanProbe struct {
	cluster.Node
	g          *gauge
	delay      time.Duration
	advanceErr error
	advances   atomic.Int32
}

func (n *fanProbe) observe() func() {
	n.g.enter()
	time.Sleep(n.delay)
	return n.g.exit
}

func (n *fanProbe) IngestText(text string, at time.Time) (model.DocID, error) {
	defer n.observe()()
	return n.Node.IngestText(text, at)
}

func (n *fanProbe) IngestBatch(items []model.TimedText) ([]model.DocID, error) {
	defer n.observe()()
	return n.Node.IngestBatch(items)
}

func (n *fanProbe) Advance(now time.Time) error {
	defer n.observe()()
	n.advances.Add(1)
	if n.advanceErr != nil {
		return n.advanceErr
	}
	return n.Node.Advance(now)
}

func (n *fanProbe) AlignRegister(id model.QueryID, text string) error {
	defer n.observe()()
	return n.Node.AlignRegister(id, text)
}

func newProbedCluster(t *testing.T, k int, delay time.Duration) (*cluster.Router, []*fanProbe, *gauge) {
	t.Helper()
	g := &gauge{}
	probes := make([]*fanProbe, k)
	nodes := make([]cluster.Node, k)
	for i := range nodes {
		e, err := ita.New(ita.WithCountWindow(16))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		probes[i] = &fanProbe{Node: cluster.Local(e), g: g, delay: delay}
		nodes[i] = probes[i]
	}
	r, err := cluster.NewRouter(nodes)
	if err != nil {
		t.Fatal(err)
	}
	return r, probes, g
}

// TestRouterFanOutParallel proves the write fan-out actually overlaps:
// with every node sleeping tens of milliseconds per call, the in-flight
// gauge must see several nodes busy at once on each write path. (The
// sequential loop this replaced would never push the gauge past 1.)
func TestRouterFanOutParallel(t *testing.T) {
	const k = 4
	router, _, g := newProbedCluster(t, k, 30*time.Millisecond)

	check := func(op string, fn func() error) {
		t.Helper()
		g.max.Store(0)
		if err := fn(); err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		if m := g.max.Load(); m < 2 {
			t.Fatalf("%s: max in-flight %d, want ≥2 (fan-out ran sequentially)", op, m)
		}
	}
	check("ingest", func() error {
		_, err := router.IngestText("crude oil production", at(10))
		return err
	})
	check("ingest batch", func() error {
		_, err := router.IngestBatch([]model.TimedText{
			{Text: "solar turbine output", At: at(20)},
			{Text: "tanker export pipeline", At: at(21)},
		})
		return err
	})
	check("advance", func() error { return router.Advance(at(30)) })
	// Register's alignment fan-out (the owner itself is sequential, and
	// with 4 nodes there are 3 aligners to overlap).
	check("register align", func() error {
		_, err := router.Register("grid storage demand", 2)
		return err
	})
}

// TestRouterFanOutFirstError: when several nodes fail the same fan-out,
// the router must report the lowest-indexed node's error — the same
// deterministic choice the old sequential loop made — while still
// delivering the call to every node (the healthy ones must not be
// skipped, or the survivors would diverge from each other).
func TestRouterFanOutFirstError(t *testing.T) {
	router, probes, _ := newProbedCluster(t, 4, time.Millisecond)
	errLow, errHigh := errors.New("node 1 down"), errors.New("node 3 down")
	probes[1].advanceErr = errLow
	probes[3].advanceErr = errHigh

	err := router.Advance(at(10))
	if !errors.Is(err, errLow) {
		t.Fatalf("Advance error = %v, want node 1's (lowest failing index)", err)
	}
	if errors.Is(err, errHigh) {
		t.Fatalf("Advance error %v carries the higher-indexed node's failure", err)
	}
	for i, p := range probes {
		if n := p.advances.Load(); n != 1 {
			t.Fatalf("node %d saw %d advances, want 1 (fan-out must reach every node)", i, n)
		}
	}
}
