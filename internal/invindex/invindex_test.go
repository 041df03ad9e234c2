package invindex

import (
	"slices"
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

func TestIndexInsertAndListOrder(t *testing.T) {
	x := NewIndex(1)
	// Same term, interleaved weights, plus a tie.
	x.Insert(mkDoc(t, 1, model.Posting{Term: 7, Weight: 0.3}))
	x.Insert(mkDoc(t, 2, model.Posting{Term: 7, Weight: 0.9}))
	x.Insert(mkDoc(t, 3, model.Posting{Term: 7, Weight: 0.3}))
	x.Insert(mkDoc(t, 4, model.Posting{Term: 7, Weight: 0.5}))

	got := scanTerm(x, 7)
	want := []EntryKey{{W: 0.9, Doc: 2}, {W: 0.5, Doc: 4}, {W: 0.3, Doc: 1}, {W: 0.3, Doc: 3}}
	if !slices.Equal(got, want) {
		t.Fatalf("list = %v, want %v", got, want)
	}
}

func TestIndexRemoveOldestCleansLists(t *testing.T) {
	x := NewIndex(1)
	x.Insert(mkDoc(t, 1, model.Posting{Term: 1, Weight: 0.5}, model.Posting{Term: 2, Weight: 0.25}))
	x.Insert(mkDoc(t, 2, model.Posting{Term: 2, Weight: 0.75}))
	if n := liveTerms(x); n != 2 {
		t.Fatalf("%d lists with a live entry, want 2", n)
	}
	d := x.RemoveOldest()
	if d == nil || d.ID != 1 {
		t.Fatalf("RemoveOldest = %v", d)
	}
	// An expired document's entries are no longer read.
	if it := x.Scan(1); it.Valid() {
		t.Fatalf("term 1 still yields %v", it.Key())
	}
	if n := liveTerms(x); n != 1 {
		t.Fatalf("%d lists with a live entry, want 1", n)
	}
	if got := scanTerm(x, 2); !slices.Equal(got, []EntryKey{{W: 0.75, Doc: 2}}) {
		t.Fatalf("term 2 holds %v, want doc 2's entry alone", got)
	}
	// Reinsertion reuses the retained list.
	l := x.lists[1]
	if err := x.Insert(mkDoc(t, 3, model.Posting{Term: 1, Weight: 0.9})); err != nil {
		t.Fatal(err)
	}
	if x.lists[1] != l {
		t.Fatal("reinsertion replaced the retained list")
	}
	if got := scanTerm(x, 1); !slices.Equal(got, []EntryKey{{W: 0.9, Doc: 3}}) {
		t.Fatalf("reused list holds %v", got)
	}
	if _, ok := x.Get(1); ok {
		t.Fatal("doc 1 still in store")
	}
	if x.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (doc 2 and the reinserted doc 3)", x.Len())
	}
}

// TestIDsRestartBelowFloor restarts ids below the floor once the window
// is empty, which the store accepts, while stale entries of the old ids
// are still in the lists (a window that empties faster than the sweep
// reaches its lists): the new documents' entries must be live and the
// old ones gone.
func TestIDsRestartBelowFloor(t *testing.T) {
	x := NewIndex(1)
	for id := model.DocID(1); id <= 3; id++ {
		if err := x.Insert(mkDoc(t, id, model.Posting{Term: 7, Weight: float64(id) / 4})); err != nil {
			t.Fatal(err)
		}
	}
	for x.Len() > 0 {
		x.Store.RemoveOldest()
	}
	x.floor = 4
	if err := x.Insert(mkDoc(t, 2, model.Posting{Term: 7, Weight: 0.1})); err != nil {
		t.Fatal(err)
	}
	if got := scanTerm(x, 7); !slices.Equal(got, []EntryKey{{W: 0.1, Doc: 2}}) {
		t.Fatalf("term 7 holds %v, want the restarted doc 2 alone", got)
	}
	if n := physicalEntries(x); n != 1 {
		t.Fatalf("%d physical entries, want 1", n)
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
