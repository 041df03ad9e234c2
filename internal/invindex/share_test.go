package invindex

import (
	"fmt"
	"slices"
	"testing"

	"ita/internal/corpus"
	"ita/internal/model"
	"ita/internal/vsm"
)

// requireSameLayout fails unless a and b hold the same lists entry for
// entry, stale entries included, and allocation for allocation: the
// floor, the sweep cursor, the occupied-list bitmap, the term table,
// and every list's main and pending runs with their capacities, an
// emptied list's parked run included.
func requireSameLayout(t *testing.T, what string, a, b *Index) {
	t.Helper()
	if a.floor != b.floor || a.cursor != b.cursor || a.PostingCount() != b.PostingCount() || a.PostingBytes() != b.PostingBytes() {
		t.Fatalf("%s: floor/cursor/PostingCount/PostingBytes %d/%d/%d/%d, want %d/%d/%d/%d", what,
			a.floor, a.cursor, a.PostingCount(), a.PostingBytes(), b.floor, b.cursor, b.PostingCount(), b.PostingBytes())
	}
	if !slices.Equal(a.occupied, b.occupied) {
		t.Fatalf("%s: occupied-list bitmaps differ", what)
	}
	if len(a.lists) != len(b.lists) || cap(a.lists) != cap(b.lists) {
		t.Fatalf("%s: term table %d/%d, want %d/%d", what, len(a.lists), cap(a.lists), len(b.lists), cap(b.lists))
	}
	for term, la := range a.lists {
		lb := b.lists[term]
		if (la == nil) != (lb == nil) {
			t.Fatalf("%s term %d: list present %v, want %v", what, term, la != nil, lb != nil)
		}
		if la == nil {
			continue
		}
		for _, r := range []struct {
			name      string
			got, want []EntryKey
		}{{"main", la.main, lb.main}, {"pending", la.pending, lb.pending}} {
			if cap(r.got) != cap(r.want) || !slices.Equal(r.got, r.want) {
				t.Fatalf("%s term %d %s: %d/%d entries, want %d/%d (or contents differ)",
					what, term, r.name, len(r.got), cap(r.got), len(r.want), cap(r.want))
			}
		}
	}
}

// TestApplySharesIdentical applies one WSJ-shaped stream at share counts
// 1–4 through the internal entry point, forcing the count on every
// epoch, and requires every index to match the one-share index exactly
// after each epoch: a fill, a slide, a burst larger than the window
// (same-epoch transients, long lists merging runs larger than pending),
// an epoch of expirations that empties every list, and a refill over
// the parked runs.
func TestApplySharesIdentical(t *testing.T) {
	const win, epoch = 1000, 64
	synth, err := corpus.NewSynth(corpus.WSJConfig(), vsm.Cosine{})
	if err != nil {
		t.Fatal(err)
	}
	next := model.DocID(1)
	docs := func(n int) []*model.Document {
		ds := make([]*model.Document, n)
		for i := range ds {
			ds[i] = synth.Document(next, timeAt(int(next)))
			next++
		}
		return ds
	}
	window := func(_ *model.Document, count int) bool { return count > win }
	everything := func(*model.Document, int) bool { return true }
	type step struct {
		name    string
		docs    []*model.Document
		expired func(*model.Document, int) bool
	}
	var steps []step
	for i := 0; i < (win+4*epoch)/epoch; i++ {
		steps = append(steps, step{fmt.Sprintf("slide %d", i), docs(epoch), window})
	}
	steps = append(steps,
		step{"burst", docs(win + win/3), window},
		step{"empty", nil, everything},
		step{"refill", docs(epoch), window},
	)

	indexes := make([]*Index, 4)
	for i := range indexes {
		indexes[i] = NewIndex(1)
	}
	for _, s := range steps {
		var want BatchResult
		for i, x := range indexes {
			shares := i + 1
			res, err := x.applyEpoch(s.docs, s.expired, func(int) int { return shares })
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				want = res
				continue
			}
			if fmt.Sprint(res) != fmt.Sprint(want) {
				t.Fatalf("%s, %d shares: result %+v, want %+v", s.name, shares, res, want)
			}
			requireSameLayout(t, fmt.Sprintf("%s, %d shares", s.name, shares), x, indexes[0])
		}
	}
	if n := liveTerms(indexes[0]); n == 0 {
		t.Fatal("refill left no lists")
	}
}
