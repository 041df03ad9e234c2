package core

import (
	"fmt"
	"testing"
	"time"
	"unsafe"

	"ita/internal/invindex"
	"ita/internal/model"
	"ita/internal/window"
)

// mkDoc builds a valid document for arena tests.
func mkDoc(t testing.TB, id model.DocID, at int, postings ...model.Posting) *model.Document {
	t.Helper()
	d, err := model.NewDocument(id, time.Unix(int64(at), 0), postings)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func mkQuery(t testing.TB, id model.QueryID, k int, terms ...model.QueryTerm) *model.Query {
	t.Helper()
	q, err := model.NewQuery(id, k, terms)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestDenseIDReuse churns Register/Unregister so dense slots recycle
// through the free list, re-registering the SAME external ids (which
// the facade never does, but the core API permits), and asserts reused
// slots never leak the previous occupant's results, published views or
// invariants.
func TestDenseIDReuse(t *testing.T) {
	e := NewITA(window.Count{N: 64})
	for i := 0; i < 8; i++ {
		if err := e.Process(mkDoc(t, model.DocID(i+1), i+1,
			model.Posting{Term: model.TermID(i % 3), Weight: 0.1 * float64(i+1)})); err != nil {
			t.Fatal(err)
		}
	}
	reader := e.PublishViews() // arm publication

	for round := 0; round < 10; round++ {
		// Register a cohort; every round reuses freed dense slots.
		for id := model.QueryID(1); id <= 20; id++ {
			term := model.TermID(int(id) % 3)
			if err := e.Register(mkQuery(t, id, 2, model.QueryTerm{Term: term, Weight: 1})); err != nil {
				t.Fatalf("round %d: register %d: %v", round, id, err)
			}
		}
		e.PublishViews()
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		want := make(map[model.QueryID][]model.ScoredDoc)
		for id := model.QueryID(1); id <= 20; id++ {
			r, ok := e.Result(id)
			if !ok {
				t.Fatalf("round %d: query %d missing", round, id)
			}
			want[id] = r
			f, ok := reader.Result(id)
			if !ok {
				t.Fatalf("round %d: query %d not published", round, id)
			}
			if fmt.Sprint(f.Docs) != fmt.Sprint(r) {
				t.Fatalf("round %d: query %d: published %v, locked %v", round, id, f.Docs, r)
			}
			if f.Query.ID != id {
				t.Fatalf("round %d: query %d: published snapshot owned by %d", round, id, f.Query.ID)
			}
		}
		// Unregister the odd half; their ids must go fully dark even
		// though their dense slots are immediately recycled below.
		for id := model.QueryID(1); id <= 20; id += 2 {
			if !e.Unregister(id) {
				t.Fatalf("round %d: unregister %d", round, id)
			}
			if _, ok := e.Result(id); ok {
				t.Fatalf("round %d: dead query %d still has a result", round, id)
			}
			if _, ok := reader.Result(id); ok {
				t.Fatalf("round %d: dead query %d still published", round, id)
			}
		}
		// Recycle the freed slots under fresh external ids; survivors'
		// results must be untouched.
		for i := 0; i < 10; i++ {
			id := model.QueryID(1000*(round+1) + i)
			if err := e.Register(mkQuery(t, id, 2, model.QueryTerm{Term: 1, Weight: 0.5})); err != nil {
				t.Fatalf("round %d: recycle register %d: %v", round, id, err)
			}
		}
		e.PublishViews()
		for id := model.QueryID(2); id <= 20; id += 2 {
			r, _ := e.Result(id)
			if fmt.Sprint(r) != fmt.Sprint(want[id]) {
				t.Fatalf("round %d: survivor %d result changed: %v vs %v", round, id, r, want[id])
			}
			if f, ok := reader.Result(id); !ok || f.Query.ID != id {
				t.Fatalf("round %d: survivor %d published view corrupted", round, id)
			}
		}
		// Dead ids from this round AND every earlier round stay dead.
		for id := model.QueryID(1); id <= 20; id += 2 {
			if _, ok := reader.Result(id); ok {
				t.Fatalf("round %d: dead id %d resurrected by slot reuse", round, id)
			}
		}
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("round %d post-churn: %v", round, err)
		}
		// Clear the board for the next round (even ids + recycled ones).
		for id := model.QueryID(2); id <= 20; id += 2 {
			e.Unregister(id)
		}
		for i := 0; i < 10; i++ {
			e.Unregister(model.QueryID(1000*(round+1) + i))
		}
	}
	if e.shards[0].m.n != 0 || len(e.shards[0].m.free) != int(e.shards[0].m.next) {
		t.Fatalf("arena not fully recycled: n=%d free=%d high-water=%d", e.shards[0].m.n, len(e.shards[0].m.free), e.shards[0].m.next)
	}
}

// TestScratchShrinksAfterBurst pins the scratch high-water policy: one
// huge epoch grows the epoch queue, and a run of small epochs afterwards
// must shrink the retained capacity back instead of pinning the burst's
// high-water mark forever.
func TestScratchShrinksAfterBurst(t *testing.T) {
	e := NewITA(window.Count{N: 100000})
	// Many queries on one shared term so a single epoch touches them all.
	for id := model.QueryID(1); id <= 2000; id++ {
		if err := e.Register(mkQuery(t, id, 1, model.QueryTerm{Term: 7, Weight: 1})); err != nil {
			t.Fatal(err)
		}
	}
	// One burst epoch: every document carries term 7, so every query is
	// affected and the epoch queue grows to ~2000 entries.
	burst := make([]*model.Document, 64)
	for i := range burst {
		burst[i] = mkDoc(t, model.DocID(i+1), 1, model.Posting{Term: 7, Weight: 0.5 + float64(i)/1000})
	}
	if err := e.ProcessEpoch(burst); err != nil {
		t.Fatal(err)
	}
	high := cap(e.shards[0].m.epochQueue)
	if high < 2000 {
		t.Fatalf("burst epoch queue capacity %d, want >= 2000", high)
	}
	// Steady state: small epochs touching a single disjoint term, far
	// below a quarter of the retained capacity.
	next := model.DocID(1000)
	if err := e.Register(mkQuery(t, 90001, 1, model.QueryTerm{Term: 9, Weight: 1})); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 40; round++ {
		docs := make([]*model.Document, 2)
		for i := range docs {
			next++
			docs[i] = mkDoc(t, next, 2, model.Posting{Term: 9, Weight: 0.1})
		}
		if err := e.ProcessEpoch(docs); err != nil {
			t.Fatal(err)
		}
	}
	if got := cap(e.shards[0].m.epochQueue); got >= high {
		t.Fatalf("epoch queue capacity %d did not shrink from burst high-water %d", got, high)
	}
	if got := cap(e.shards[0].m.epochQueue); got > 512 {
		t.Fatalf("epoch queue capacity %d, want shrunk to the working-set scale", got)
	}
	// The engine still works after the shrink.
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestAdmitListsFreedWhenLastQueryLeaves: admit lists are normally
// freed by the expiry walk, which an engine with no queries never runs.
// Unregistering the last query must therefore drop every list itself,
// or the lists of documents still in the window stay pinned (and
// counted in MemoryUsage) forever.
func TestAdmitListsFreedWhenLastQueryLeaves(t *testing.T) {
	const win = 50
	e := NewITA(window.Count{N: win})
	g := newContGen(27, 40)
	for i := 0; i < win; i++ {
		if err := e.Process(g.doc(t)); err != nil {
			t.Fatal(err)
		}
	}
	for id := model.QueryID(1); id <= 30; id++ {
		if err := e.Register(g.query(t, id)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < win; i++ {
		if err := e.Process(g.doc(t)); err != nil {
			t.Fatal(err)
		}
	}
	lists := 0
	for _, s := range e.shards[0].m.slots {
		if len(s.refs) > 0 {
			lists++
		}
	}
	if lists == 0 {
		t.Fatal("no admit lists recorded; the scenario does not exercise them")
	}
	for id := model.QueryID(1); id <= 30; id++ {
		e.Unregister(id)
	}
	for i := 0; i < 4*win; i++ {
		if err := e.Process(g.doc(t)); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(e.shards[0].m.slots); n != 0 {
		t.Fatalf("a window-slot table of %d slots outlives every query", n)
	}
	if got, want := e.MemoryUsage().QueryStateBytes, uint64(len(e.shards[0].m.slabs))*uint64(unsafe.Sizeof(stateSlab{})); got != want {
		t.Fatalf("QueryStateBytes = %d with no queries, want the bare slabs' %d", got, want)
	}
}

// TestWindowSlotsShrinkKeepsAdmitLists shrinks the window-slot table
// after a burst. The documents left in the window have ids 128 apart:
// slots of their own in the burst's 4 096-slot table, but one shared
// slot in the 64-slot table the small window asks for, so the shrink
// must double back instead of dropping admit lists.
func TestWindowSlotsShrinkKeepsAdmitLists(t *testing.T) {
	index := invindex.NewIndex(0)
	var stats Stats
	m := NewMaintainer(index, &stats, MaintainerConfig{})
	if err := m.Register(mkQuery(t, 1, 40, model.QueryTerm{Term: 2, Weight: 1})); err != nil {
		t.Fatal(err)
	}
	arrive := func(docs []*model.Document) {
		for _, d := range docs {
			if err := index.Insert(d); err != nil {
				t.Fatal(err)
			}
		}
		m.HandleEpoch(docs, nil)
	}
	var burst, held []*model.Document
	for id := 1; id <= 3000; id++ {
		burst = append(burst, mkDoc(t, model.DocID(id), id, model.Posting{Term: 1, Weight: 0.5}))
	}
	for i := range 32 {
		id := 4096 + 128*i
		held = append(held, mkDoc(t, model.DocID(id), id, model.Posting{Term: 2, Weight: 0.9}))
	}
	arrive(burst)
	arrive(held)
	if n := len(m.slots); n != 4096 {
		t.Fatalf("%d slots for a %d-document window, want 4096", n, index.Len())
	}
	var expired []*model.Document
	for range burst {
		expired = append(expired, index.RemoveOldest())
	}
	m.HandleEpoch(nil, expired)
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	expired = expired[:0]
	for range held {
		expired = append(expired, index.RemoveOldest())
	}
	m.HandleEpoch(nil, expired)
	if top, _ := m.Result(1); len(top) != 0 {
		t.Fatalf("expired documents still in the result: %v", top)
	}
}
