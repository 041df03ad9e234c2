package core

import (
	"math/rand"
	"testing"
	"time"

	"ita/internal/invindex"
	"ita/internal/model"
	"ita/internal/window"
)

// TestRestoreWindowMatchesPerDocumentInserts restores a window wide
// enough for ApplyBatch's term-partitioned path (≈ 9 000 postings; CI
// runs core at -cpu 1,2,4) as one epoch, and requires every inverted
// list to hold exactly the entries, in order, that inserting the same
// documents one at a time produces. Chunk layout may differ; entries may
// not. The restore moves no counter.
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
	entries := func(l *invindex.List) []invindex.EntryKey {
		var out []invindex.EntryKey
		if l == nil {
			return out
		}
		for it := l.First(); it.Valid(); it.Next() {
			out = append(out, it.Key())
		}
		return out
	}
	postings := 0
	for term := model.TermID(0); term < vocab; term++ {
		got, want := entries(restored.index.List(term)), entries(ref.List(term))
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
