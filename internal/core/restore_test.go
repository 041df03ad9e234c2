package core

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"ita/internal/invindex"
	"ita/internal/model"
	"ita/internal/window"
)

// TestRestoreWindowMatchesPerDocumentInserts restores a window wide
// enough for ApplyBatch's term-partitioned path (≈ 9 000 postings; CI
// runs core at -cpu 1,2,4) as one epoch, and requires every inverted
// list to hold exactly the live entries, read through Index.Scan and in
// order, that inserting the same documents one at a time produces. The
// lists' runs may differ; entries may not. The restore moves no counter.
func TestRestoreWindowMatchesPerDocumentInserts(t *testing.T) {
	const (
		vocab = 500
		docs  = 300
		terms = 30
	)
	rng := rand.New(rand.NewSource(3))
	stream := make([]*model.Document, docs)
	for i := range stream {
		used := map[model.TermID]bool{}
		var ps []model.Posting
		for len(ps) < terms {
			if term := model.TermID(rng.Intn(1 + rng.Intn(vocab))); !used[term] {
				used[term] = true
				ps = append(ps, model.Posting{Term: term, Weight: float64(1+rng.Intn(16)) / 16})
			}
		}
		d, err := model.NewDocument(model.DocID(i+1), time.Unix(int64(i), 0), ps)
		if err != nil {
			t.Fatal(err)
		}
		stream[i] = d
	}

	restored := NewITA(window.Count{N: docs})
	if err := restored.RestoreWindow(stream); err != nil {
		t.Fatal(err)
	}
	ref := invindex.NewIndex(0)
	for _, d := range stream {
		if err := ref.Insert(d); err != nil {
			t.Fatal(err)
		}
	}

	if got := *restored.Stats(); got != (Stats{}) {
		t.Fatalf("restore moved counters: %+v", got)
	}
	if restored.WindowLen() != docs {
		t.Fatalf("window %d, want %d", restored.WindowLen(), docs)
	}
	var order []model.DocID
	restored.EachDoc(func(d *model.Document) { order = append(order, d.ID) })
	for i, id := range order {
		if id != stream[i].ID {
			t.Fatalf("FIFO position %d holds doc %d, want %d", i, id, stream[i].ID)
		}
	}
	entries := func(x *invindex.Index, term model.TermID) []invindex.EntryKey {
		var out []invindex.EntryKey
		for it := x.Scan(term); it.Valid(); it.Next() {
			out = append(out, it.Key())
		}
		return out
	}
	postings := 0
	for term := model.TermID(0); term < vocab; term++ {
		got, want := entries(restored.index, term), entries(ref, term)
		if len(got) != len(want) {
			t.Fatalf("term %d: %d entries, per-document inserts give %d", term, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("term %d entry %d: %+v, per-document inserts give %+v", term, i, got[i], want[i])
			}
		}
		postings += len(got)
	}
	if postings != docs*terms {
		t.Fatalf("%d postings restored, want %d", postings, docs*terms)
	}
}

// TestRestoredQueriesKeepInvariants exports every query of a running
// engine, restores the window and the query states into a fresh engine,
// and requires the restored engine to pass CheckInvariants — admit-list
// coverage included: RestoreQuery must rebuild each R member's admit
// list, or that member's expiry would never evict it — and then to
// track the original exactly through further arrivals and expirations.
func TestRestoredQueriesKeepInvariants(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		opts := []ITAOption{WithShards(2), WithFloorMargins(1, 1)}
		g := newStreamGen(seed, 10)
		live := NewITA(window.Count{N: 30}, opts...)
		for i := 0; i < 40; i++ {
			if err := live.Process(g.doc(t)); err != nil {
				t.Fatal(err)
			}
		}
		for id := model.QueryID(1); id <= 12; id++ {
			if err := live.Register(g.query(t, id)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 25; i++ {
			if err := live.Process(g.doc(t)); err != nil {
				t.Fatal(err)
			}
		}

		restored := NewITA(window.Count{N: 30}, opts...)
		var docs []*model.Document
		live.EachDoc(func(d *model.Document) { docs = append(docs, d) })
		if err := restored.RestoreWindow(docs); err != nil {
			t.Fatal(err)
		}
		var queries []*model.Query
		live.EachQuery(func(q *model.Query) { queries = append(queries, q) })
		for _, q := range queries {
			st, _ := live.ExportQueryState(q.ID)
			if err := restored.RestoreQueryState(q, st); err != nil {
				t.Fatal(err)
			}
		}
		restored.SetStats(*live.Stats())
		if err := restored.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: restored engine: %v", seed, err)
		}

		for i := 0; i < 40; i++ {
			d := g.doc(t)
			for _, e := range []*ITA{live, restored} {
				if err := e.Process(d); err != nil {
					t.Fatal(err)
				}
			}
			if err := restored.CheckInvariants(); err != nil {
				t.Fatalf("seed %d doc %d: restored engine: %v", seed, d.ID, err)
			}
			for _, q := range queries {
				want, _ := live.Result(q.ID)
				got, _ := restored.Result(q.ID)
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d doc %d query %d: restored %v, live %v", seed, d.ID, q.ID, got, want)
				}
			}
		}
		if got, want := *restored.Stats(), *live.Stats(); got != want {
			t.Fatalf("seed %d: restored stats %+v, live %+v", seed, got, want)
		}
	}
}
