package core

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"ita/internal/invindex"
	"ita/internal/model"
	"ita/internal/window"
)

// TestDocStampWrap starts the term table's 32-bit document stamp just
// below 2^32 and scores documents across the wrap. A term marked at
// stamp 1 long before the wrap must not count as part of the document
// stamped 1 after it: prepDoc clears every mark when the stamp wraps,
// so scoreDoc stays bit-identical to model.Score.
func TestDocStampWrap(t *testing.T) {
	var stats Stats
	m := NewMaintainer(invindex.NewIndex(0), &stats, MaintainerConfig{})
	q := query(t, 1, 3,
		model.QueryTerm{Term: termA, Weight: 0.6},
		model.QueryTerm{Term: termB, Weight: 0.3},
		model.QueryTerm{Term: termC, Weight: 0.1})
	if err := m.Register(q); err != nil {
		t.Fatal(err)
	}
	qs := m.lookup(1)
	check := func(d *model.Document) {
		t.Helper()
		m.prepDoc(d)
		if got, want := m.scoreDoc(qs), model.Score(q, d); got != want {
			t.Fatalf("doc %d at stamp %d: scoreDoc %v, model.Score %v", d.ID, m.docStamp, got, want)
		}
	}
	// Marks termA and termC with stamp 1.
	check(doc(t, 1, 1, model.Posting{Term: termA, Weight: 0.5}, model.Posting{Term: termC, Weight: 0.7}))
	if m.docStamp != 1 {
		t.Fatalf("first document stamped %d, want 1", m.docStamp)
	}
	m.docStamp = math.MaxUint32 - 1
	check(doc(t, 2, 2, model.Posting{Term: termB, Weight: 0.4})) // stamp 2^32-1
	check(doc(t, 3, 3, model.Posting{Term: termB, Weight: 0.3})) // wraps to stamp 1
	if m.docStamp != 1 {
		t.Fatalf("stamp after the wrap = %d, want 1", m.docStamp)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 4; i < 200; i++ {
		var ps []model.Posting
		for term := termA; term <= termC+2; term++ {
			if rng.Intn(2) == 0 {
				ps = append(ps, model.Posting{Term: term, Weight: rng.Float64() + 0.01})
			}
		}
		check(doc(t, model.DocID(i), i, ps...))
	}

	// The same across a wrap inside a running engine: CheckInvariants
	// compares every stored R score with model.Score.
	e := NewITA(window.Count{N: 8}, WithFloorMargins(1, 1))
	for id := model.QueryID(1); id <= 4; id++ {
		if err := e.Register(query(t, id, 2,
			model.QueryTerm{Term: termA + model.TermID(id)%3, Weight: 0.5},
			model.QueryTerm{Term: termC + 1, Weight: 0.2})); err != nil {
			t.Fatal(err)
		}
	}
	e.shards[0].m.docStamp = math.MaxUint32 - 20
	for i := 1; i <= 60; i++ {
		var ps []model.Posting
		for term := termA; term <= termC+2; term++ {
			if rng.Intn(3) > 0 {
				ps = append(ps, model.Posting{Term: term, Weight: rng.Float64() + 0.01})
			}
		}
		if err := e.Process(doc(t, model.DocID(i), i, ps...)); err != nil {
			t.Fatal(err)
		}
		mustCheck(t, e)
	}
	if s := e.shards[0].m.docStamp; s > 100 {
		t.Fatalf("stamp %d: the engine did not wrap", s)
	}
}

// TestTreeSlotsRecycled churns Register and Unregister over terms that
// many queries share and terms private to one query. After every
// operation CheckInvariants matches the live trees against the term
// table's references (an emptied tree must be freed, a freed one
// unreferenced), and the tree slice never outgrows the most distinct
// terms live at once: freed slots are reused.
func TestTreeSlotsRecycled(t *testing.T) {
	e := NewITA(window.Count{N: 16}, WithFloorMargins(1, 1))
	m := e.shards[0].m
	rng := rand.New(rand.NewSource(7))
	for i := 1; i <= 40; i++ {
		var ps []model.Posting
		for term := model.TermID(0); term < 6; term++ {
			if rng.Intn(2) == 0 {
				ps = append(ps, model.Posting{Term: term, Weight: rng.Float64() + 0.01})
			}
		}
		ps = append(ps, model.Posting{Term: model.TermID(100 + i), Weight: 0.5})
		if err := e.Process(doc(t, model.DocID(i), i, ps...)); err != nil {
			t.Fatal(err)
		}
	}
	var live []model.QueryID
	peak := 0
	next := model.QueryID(1)
	for op := 0; op < 600; op++ {
		if len(live) == 0 || rng.Intn(5) < 3 {
			id := next
			next++
			terms := []model.QueryTerm{
				{Term: model.TermID(rng.Intn(6)), Weight: 0.4},
				{Term: model.TermID(100 + rng.Intn(60)), Weight: 0.3}, // private or rare
				{Term: model.TermID(1000 + id), Weight: 0.2},          // private: no document holds it
			}
			if terms[0].Term == terms[1].Term {
				terms = terms[1:]
			}
			if err := e.Register(query(t, id, 2, terms...)); err != nil {
				t.Fatal(err)
			}
			live = append(live, id)
		} else {
			i := rng.Intn(len(live))
			if !e.Unregister(live[i]) {
				t.Fatalf("op %d: Unregister(%d) = false", op, live[i])
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		distinct := map[model.TermID]bool{}
		m.EachQuery(func(q *model.Query) {
			for _, qt := range q.Terms {
				distinct[qt.Term] = true
			}
		})
		peak = max(peak, len(distinct))
		if got := len(m.trees) - len(m.freeTrees); got != len(distinct) {
			t.Fatalf("op %d: %d live trees for %d distinct query terms", op, got, len(distinct))
		}
		if len(m.trees) > peak {
			t.Fatalf("op %d: %d tree slots, but at most %d distinct terms were ever live at once", op, len(m.trees), peak)
		}
		if op%20 == 0 {
			mustCheck(t, e)
		}
	}
	mustCheck(t, e)
	for _, id := range live {
		e.Unregister(id)
	}
	if len(m.freeTrees) != len(m.trees) {
		t.Fatalf("%d of %d trees live with no query", len(m.trees)-len(m.freeTrees), len(m.trees))
	}
	mustCheck(t, e)
}

// TestTreeSliceGrowsInsideInstall registers a query whose terms all
// need new trees while the tree slice is full, so creating them moves
// the slice mid-install: a *Tree held across a creation would write
// into the old array and lose bounds, which CheckInvariants' count of
// tree entries against query terms reports.
func TestTreeSliceGrowsInsideInstall(t *testing.T) {
	e := NewITA(window.Count{N: 8})
	m := e.shards[0].m
	if err := e.Process(doc(t, 1, 1, model.Posting{Term: 7, Weight: 0.5})); err != nil {
		t.Fatal(err)
	}
	id := model.QueryID(1)
	for term := model.TermID(0); len(m.trees) < cap(m.trees) || len(m.trees) == 0; term++ {
		if err := e.Register(query(t, id, 1, model.QueryTerm{Term: 1000 + term, Weight: 1})); err != nil {
			t.Fatal(err)
		}
		id++
	}
	before := cap(m.trees)
	var terms []model.QueryTerm
	for term := model.TermID(0); term < model.TermID(before+2); term++ {
		terms = append(terms, model.QueryTerm{Term: 5000 + term, Weight: 0.1})
	}
	terms = append(terms, model.QueryTerm{Term: 7, Weight: 0.1})
	if err := e.Register(query(t, id, 1, terms...)); err != nil {
		t.Fatal(err)
	}
	if cap(m.trees) == before {
		t.Fatalf("tree slice did not grow during the install (cap %d)", before)
	}
	mustCheck(t, e)
}

// TestMemoryUsageMatchesLiveHeap checks the maintainer's tree,
// query-state and term-table estimates against the live heap they
// stand for. It builds 10 000 ten-term queries over a 1 000-document
// window, slides one window, then drops the structures behind one
// estimate at a time and reads how much live heap a collection frees.
// The epoch scratch, which no estimate covers, is dropped before the
// first reading, and the queries themselves stay referenced. Each
// estimate must be within 5 % of its drop: estimates count slice
// capacities, while the heap rounds each object up to its size class
// (the three read within 0.1 % here).
func TestMemoryUsageMatchesLiveHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("registers 10 000 queries")
	}
	r := newEpochRig(t, 1000, 10000, uniformQuery)
	m := r.m
	mem := m.MemoryUsage()
	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	m.touched, m.epochQueue, m.pubDirty, m.cands, m.iterBuf, m.topBuf = nil, nil, nil, nil, nil, topScores{}
	h := live()
	for _, c := range []struct {
		name string
		est  uint64
		drop func()
	}{
		{"tree", mem.TreeBytes, func() { m.trees, m.freeTrees = nil, nil }},
		{"term table", mem.TermTableBytes, func() { m.termTab = nil }},
		{"query state", mem.QueryStateBytes, func() { m.slabs, m.free, m.slots = nil, nil, nil }},
	} {
		c.drop()
		after := live()
		freed := float64(h) - float64(after)
		h = after
		if ratio := float64(c.est) / freed; ratio < 0.95 || ratio > 1.05 {
			t.Errorf("%s estimate %d B, live heap freed %.0f B (ratio %.3f)", c.name, c.est, freed, ratio)
		} else {
			t.Logf("%s estimate %d B, live heap freed %.0f B (ratio %.3f)", c.name, c.est, freed, ratio)
		}
	}
	runtime.KeepAlive(r)
}
