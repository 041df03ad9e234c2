package invindex

import (
	"math"
	"testing"
	"time"

	"ita/internal/model"
)

func mkDoc(t *testing.T, id model.DocID, ps ...model.Posting) *model.Document {
	t.Helper()
	d, err := model.NewDocument(id, time.Unix(int64(id), 0), ps)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestBeforeOrdering(t *testing.T) {
	cases := []struct {
		a, b EntryKey
		want bool
	}{
		{EntryKey{W: 0.9, Doc: 5}, EntryKey{W: 0.1, Doc: 1}, true},  // higher weight first
		{EntryKey{W: 0.1, Doc: 1}, EntryKey{W: 0.9, Doc: 5}, false}, //
		{EntryKey{W: 0.5, Doc: 1}, EntryKey{W: 0.5, Doc: 2}, true},  // tie: lower doc first
		{EntryKey{W: 0.5, Doc: 2}, EntryKey{W: 0.5, Doc: 1}, false}, //
		{EntryKey{W: 0.5, Doc: 1}, EntryKey{W: 0.5, Doc: 1}, false}, // equal
	}
	for _, c := range cases {
		if got := Before(c.a, c.b); got != c.want {
			t.Errorf("Before(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestSentinels(t *testing.T) {
	real := EntryKey{W: math.MaxFloat64, Doc: 0}
	if !Before(Top(), real) {
		t.Error("Top must precede every real entry")
	}
	tiny := EntryKey{W: math.SmallestNonzeroFloat64, Doc: math.MaxUint64 - 1}
	if !Before(tiny, Bottom()) {
		t.Error("every positive-weight entry must precede Bottom")
	}
	if !Before(Top(), Bottom()) {
		t.Error("Top must precede Bottom")
	}
}

func TestIndexInsertAndListOrder(t *testing.T) {
	x := NewIndex(1)
	// Same term, interleaved weights, plus a tie.
	x.Insert(mkDoc(t, 1, model.Posting{Term: 7, Weight: 0.3}))
	x.Insert(mkDoc(t, 2, model.Posting{Term: 7, Weight: 0.9}))
	x.Insert(mkDoc(t, 3, model.Posting{Term: 7, Weight: 0.3}))
	x.Insert(mkDoc(t, 4, model.Posting{Term: 7, Weight: 0.5}))

	l := x.List(7)
	if l == nil || l.Len() != 4 {
		t.Fatalf("list missing or wrong length")
	}
	var got []EntryKey
	for it := l.First(); it.Valid(); it.Next() {
		got = append(got, it.Key())
	}
	want := []EntryKey{{W: 0.9, Doc: 2}, {W: 0.5, Doc: 4}, {W: 0.3, Doc: 1}, {W: 0.3, Doc: 3}}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("list[%d] = %v, want %v (full %v)", i, got[i], want[i], got)
		}
	}
}

func TestIndexRemoveOldestCleansLists(t *testing.T) {
	x := NewIndex(1)
	x.Insert(mkDoc(t, 1, model.Posting{Term: 1, Weight: 0.5}, model.Posting{Term: 2, Weight: 0.25}))
	x.Insert(mkDoc(t, 2, model.Posting{Term: 2, Weight: 0.75}))
	if x.Terms() != 2 {
		t.Fatalf("Terms = %d", x.Terms())
	}
	d := x.RemoveOldest()
	if d == nil || d.ID != 1 {
		t.Fatalf("RemoveOldest = %v", d)
	}
	// Emptied lists are retained (allocation churn) but report empty.
	if l := x.List(1); l != nil && l.Len() != 0 {
		t.Fatalf("list for term 1 should be empty, has %d entries", l.Len())
	}
	if x.Terms() != 1 {
		t.Fatalf("Terms = %d, want 1 non-empty list", x.Terms())
	}
	if l := x.List(2); l == nil || l.Len() != 1 {
		t.Fatal("list for term 2 should keep doc 2's entry")
	}
	// A retained empty list behaves like an absent one.
	if it := x.List(1).First(); it.Valid() {
		t.Fatal("empty list iterator is valid")
	}
	if _, ok := x.List(1).PredBefore(Bottom()); ok {
		t.Fatal("empty list has a predecessor")
	}
	// Reinsertion reuses the retained list.
	if err := x.Insert(mkDoc(t, 3, model.Posting{Term: 1, Weight: 0.9})); err != nil {
		t.Fatal(err)
	}
	if l := x.List(1); l.Len() != 1 {
		t.Fatalf("reused list has %d entries", l.Len())
	}
	if _, ok := x.Get(1); ok {
		t.Fatal("doc 1 still in store")
	}
	if x.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (doc 2 and the reinserted doc 3)", x.Len())
	}
}

func TestIndexDuplicateInsert(t *testing.T) {
	x := NewIndex(1)
	if err := x.Insert(mkDoc(t, 1, model.Posting{Term: 1, Weight: 0.5})); err != nil {
		t.Fatal(err)
	}
	if err := x.Insert(mkDoc(t, 1, model.Posting{Term: 2, Weight: 0.5})); err == nil {
		t.Fatal("duplicate insert accepted")
	}
	if x.Len() != 1 {
		t.Fatalf("Len = %d after rejected duplicate", x.Len())
	}
}

func TestSeekGEAndPredBefore(t *testing.T) {
	x := NewIndex(1)
	for i, w := range []float64{0.9, 0.7, 0.5, 0.3} {
		x.Insert(mkDoc(t, model.DocID(i+1), model.Posting{Term: 1, Weight: w}))
	}
	l := x.List(1)

	// Seek to a phantom position between 0.7 and 0.5.
	it := l.SeekGE(EntryKey{W: 0.6, Doc: 99})
	if !it.Valid() || it.Key() != (EntryKey{W: 0.5, Doc: 3}) {
		t.Fatalf("SeekGE(0.6) = %v", it.Key())
	}
	// Seek to an existing position lands on it.
	it = l.SeekGE(EntryKey{W: 0.7, Doc: 2})
	if !it.Valid() || it.Key() != (EntryKey{W: 0.7, Doc: 2}) {
		t.Fatalf("SeekGE(existing) = %v", it.Key())
	}
	// Seek past the tail.
	it = l.SeekGE(Bottom())
	if it.Valid() {
		t.Fatal("SeekGE(Bottom) should be invalid")
	}
	// Seek from Top lands on the head.
	it = l.SeekGE(Top())
	if !it.Valid() || it.Key() != (EntryKey{W: 0.9, Doc: 1}) {
		t.Fatalf("SeekGE(Top) = %v", it.Key())
	}

	// Predecessors.
	if _, ok := l.PredBefore(Top()); ok {
		t.Fatal("PredBefore(Top) should be empty")
	}
	if k, ok := l.PredBefore(EntryKey{W: 0.7, Doc: 2}); !ok || k != (EntryKey{W: 0.9, Doc: 1}) {
		t.Fatalf("PredBefore(0.7) = %v,%v", k, ok)
	}
	if k, ok := l.PredBefore(Bottom()); !ok || k != (EntryKey{W: 0.3, Doc: 4}) {
		t.Fatalf("PredBefore(Bottom) = %v,%v", k, ok)
	}
}

func TestStoreFIFOCompaction(t *testing.T) {
	s := NewStore()
	// Push enough through the FIFO to trigger prefix reclamation.
	for i := 0; i < 5000; i++ {
		if err := s.Insert(mkDoc(t, model.DocID(i), model.Posting{Term: 1, Weight: 0.5})); err != nil {
			t.Fatal(err)
		}
		if s.Len() > 16 {
			if d := s.RemoveOldest(); d == nil || d.ID != model.DocID(i-16) {
				t.Fatalf("wrong FIFO order at %d: %v", i, d)
			}
		}
	}
	if s.Len() != 16 {
		t.Fatalf("Len = %d", s.Len())
	}
	count := 0
	prev := model.DocID(0)
	s.Docs(func(d *model.Document) {
		if count > 0 && d.ID != prev+1 {
			t.Fatalf("Docs out of order: %d after %d", d.ID, prev)
		}
		prev = d.ID
		count++
	})
	if count != 16 {
		t.Fatalf("Docs visited %d", count)
	}
}

// TestStoreGetSparseIDs checks Get on live ids with gaps, where the
// offset from the oldest id overshoots and a binary search takes over,
// and on ids between, below and above the live ones.
func TestStoreGetSparseIDs(t *testing.T) {
	s := NewStore()
	ids := []model.DocID{3, 4, 10, 11, 12, 40, 4096, 8192}
	for _, id := range ids {
		if err := s.Insert(mkDoc(t, id, model.Posting{Term: 1, Weight: 0.5})); err != nil {
			t.Fatal(err)
		}
	}
	s.RemoveOldest()
	for _, id := range ids[1:] {
		if d, ok := s.Get(id); !ok || d.ID != id {
			t.Fatalf("Get(%d) = %v, %v", id, d, ok)
		}
	}
	for _, id := range []model.DocID{0, 3, 5, 9, 13, 41, 4095, 4097, 8193} {
		if d, ok := s.Get(id); ok {
			t.Fatalf("Get(%d) found %d", id, d.ID)
		}
	}
	if err := s.Insert(mkDoc(t, 5000, model.Posting{Term: 1, Weight: 0.5})); err == nil {
		t.Fatal("id below the newest accepted")
	}
}

func TestStoreEmpty(t *testing.T) {
	s := NewStore()
	if s.Oldest() != nil || s.RemoveOldest() != nil || s.Len() != 0 {
		t.Fatal("empty store misbehaves")
	}
}
