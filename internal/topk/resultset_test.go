package topk

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ita/internal/model"
)

// eachOrder returns R's documents in Each (result) order.
func eachOrder(r *ResultSet) []model.ScoredDoc {
	var out []model.ScoredDoc
	r.Each(func(d model.DocID, s float64) { out = append(out, model.ScoredDoc{Doc: d, Score: s}) })
	return out
}

func sameDocs(got []model.ScoredDoc, want ...model.DocID) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i].Doc != want[i] {
			return false
		}
	}
	return true
}

// TestAddRemoveScoreRank checks membership, scores and the rank each
// document takes in Each order across an Add/Remove sequence.
func TestAddRemoveScoreRank(t *testing.T) {
	r := NewResultSet(1)
	r.Add(10, 0.5)
	r.Add(20, 0.9)
	r.Add(30, 0.7)
	if r.Len() != 3 {
		t.Fatalf("Len = %d", r.Len())
	}
	if s, ok := r.Score(30); !ok || s != 0.7 {
		t.Fatalf("Score(30) = %g,%v", s, ok)
	}
	if got := eachOrder(r); !sameDocs(got, 20, 30, 10) {
		t.Fatalf("Each order = %v, want docs 20, 30, 10", got)
	}
	if !r.Remove(30) {
		t.Fatal("Remove failed")
	}
	if r.Remove(30) {
		t.Fatal("second Remove succeeded")
	}
	if r.Contains(30) {
		t.Fatal("Contains after Remove")
	}
	if got := eachOrder(r); !sameDocs(got, 20, 10) {
		t.Fatalf("Each order after removal = %v, want docs 20, 10", got)
	}
}

func TestKth(t *testing.T) {
	r := NewResultSet(1)
	if r.Kth(1) != 0 {
		t.Fatal("Kth on empty should be 0")
	}
	r.Add(1, 0.9)
	r.Add(2, 0.7)
	r.Add(3, 0.5)
	if got := r.Kth(1); got != 0.9 {
		t.Fatalf("Kth(1) = %g", got)
	}
	if got := r.Kth(3); got != 0.5 {
		t.Fatalf("Kth(3) = %g", got)
	}
	if got := r.Kth(4); got != 0 {
		t.Fatalf("Kth(4) = %g, want 0 (fewer than k docs)", got)
	}
	if got := r.Kth(0); got != 0 {
		t.Fatalf("Kth(0) = %g", got)
	}
}

func TestTopOrderAndTieBreak(t *testing.T) {
	r := NewResultSet(1)
	r.Add(5, 0.5)
	r.Add(3, 0.5) // tie: lower doc id ranks first
	r.Add(9, 0.9)
	r.Add(1, 0.1)
	got := r.Top(3)
	want := []model.ScoredDoc{{Doc: 9, Score: 0.9}, {Doc: 3, Score: 0.5}, {Doc: 5, Score: 0.5}}
	if len(got) != 3 {
		t.Fatalf("Top(3) len = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Top[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// Asking beyond Len truncates.
	if got := r.Top(99); len(got) != 4 {
		t.Fatalf("Top(99) len = %d", len(got))
	}
}

func TestWorst(t *testing.T) {
	r := NewResultSet(1)
	if _, ok := r.Worst(); ok {
		t.Fatal("Worst on empty succeeded")
	}
	r.Add(1, 0.9)
	r.Add(2, 0.1)
	r.Add(3, 0.5)
	w, ok := r.Worst()
	if !ok || w.Doc != 2 || w.Score != 0.1 {
		t.Fatalf("Worst = %v,%v", w, ok)
	}
}

func TestDoubleAddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("double Add did not panic")
		}
	}()
	r := NewResultSet(1)
	r.Add(1, 0.5)
	r.Add(1, 0.6)
}

func TestEachVisitsInOrder(t *testing.T) {
	r := NewResultSet(1)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		r.Add(model.DocID(i), rng.Float64())
	}
	prev := 2.0
	var prevDoc model.DocID
	n := 0
	r.Each(func(doc model.DocID, score float64) {
		if score > prev || (score == prev && doc < prevDoc) {
			t.Fatalf("Each out of order at %d", n)
		}
		prev, prevDoc = score, doc
		n++
	})
	if n != 200 {
		t.Fatalf("Each visited %d", n)
	}
}

// Property: ResultSet order statistics agree with a sorted slice model
// under random add/remove workloads with tied scores.
func TestAgainstSliceModel(t *testing.T) {
	f := func(ops []uint16) bool {
		r := NewResultSet(1)
		ref := map[model.DocID]float64{}
		for _, op := range ops {
			doc := model.DocID(op & 0x3f)
			score := float64((op>>6)&0x7) / 8 // quantized: ties likely
			if op>>15 == 0 {
				if _, ok := ref[doc]; !ok {
					ref[doc] = score
					r.Add(doc, score)
				}
			} else {
				_, ok := ref[doc]
				if r.Remove(doc) != ok {
					return false
				}
				delete(ref, doc)
			}
		}
		if r.Len() != len(ref) {
			return false
		}
		var docs []model.ScoredDoc
		for d, s := range ref {
			docs = append(docs, model.ScoredDoc{Doc: d, Score: s})
		}
		model.SortScored(docs)
		got, each := r.Top(len(docs)), eachOrder(r)
		for i := range docs {
			if got[i] != docs[i] || each[i] != docs[i] {
				return false
			}
			if k := r.Kth(i + 1); k != docs[i].Score {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Guard against float subtleties: scores of 0 are legal in the set even
// though engines never store them; ordering must remain total.
func TestZeroScores(t *testing.T) {
	r := NewResultSet(1)
	r.Add(1, 0)
	r.Add(2, 0)
	r.Add(3, 0.5)
	got := r.Top(3)
	want := []model.ScoredDoc{{Doc: 3, Score: 0.5}, {Doc: 1, Score: 0}, {Doc: 2, Score: 0}}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Top[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestFreezeCaching checks the copy-on-publish contract: freezing an
// unmutated set returns the identical snapshot pointer (publication of
// an untouched query is free), any mutation invalidates the cache, and
// a frozen snapshot is immune to later mutations.
func TestFreezeCaching(t *testing.T) {
	r := NewResultSet(1)
	r.Add(10, 0.5)
	r.Add(20, 0.9)
	f1 := r.Freeze(2)
	if len(f1.Docs) != 2 || f1.Docs[0].Doc != 20 || f1.Docs[1].Doc != 10 {
		t.Fatalf("Freeze = %v", f1.Docs)
	}
	if f2 := r.Freeze(2); f2 != f1 {
		t.Fatal("Freeze of an unmutated set returned a new snapshot")
	}
	// A different k must not serve the cached snapshot.
	if f2 := r.Freeze(1); f2 == f1 || len(f2.Docs) != 1 {
		t.Fatalf("Freeze(1) = %v", f2.Docs)
	}
	r.Add(30, 0.7)
	f3 := r.Freeze(2)
	if f3 == f1 {
		t.Fatal("Add did not invalidate the frozen snapshot")
	}
	if len(f3.Docs) != 2 || f3.Docs[1].Doc != 30 {
		t.Fatalf("Freeze after Add = %v", f3.Docs)
	}
	// The old snapshot is immutable: it still shows its boundary.
	if len(f1.Docs) != 2 || f1.Docs[1].Doc != 10 {
		t.Fatalf("old snapshot mutated: %v", f1.Docs)
	}
	r.Remove(20)
	if f4 := r.Freeze(2); f4 == f3 || f4.Docs[0].Doc != 30 {
		t.Fatalf("Freeze after Remove = %v", f4.Docs)
	}
	// Freezing deeper than Len returns what exists, non-nil.
	empty := NewResultSet(1)
	if f := empty.Freeze(3); f == nil || f.Docs == nil || len(f.Docs) != 0 {
		t.Fatalf("empty Freeze = %#v", f)
	}
}
