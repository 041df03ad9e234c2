package invindex

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"ita/internal/model"
)

// refList is the oracle: a flat sorted slice.
type refList struct{ entries []EntryKey }

func (r *refList) insert(e EntryKey) {
	i := sort.Search(len(r.entries), func(i int) bool { return !Before(r.entries[i], e) })
	r.entries = append(r.entries, EntryKey{})
	copy(r.entries[i+1:], r.entries[i:])
	r.entries[i] = e
}

// live returns the entries not below floor, in list order.
func (r *refList) live(floor model.DocID) []EntryKey {
	out := make([]EntryKey, 0, len(r.entries))
	for _, e := range r.entries {
		if e.Doc >= floor {
			out = append(out, e)
		}
	}
	return out
}

// listContents returns l's entries not below floor, read through the
// iterator; floor 0 reads every physical entry.
func listContents(l *List, floor model.DocID) []EntryKey {
	out := make([]EntryKey, 0, l.length)
	for it := l.scan(floor); it.Valid(); it.Next() {
		out = append(out, it.Key())
	}
	return out
}

// requireLive fails unless l's live entries at floor are exactly the
// reference's, in order.
func requireLive(t *testing.T, step int, l *List, ref *refList, floor model.DocID) {
	t.Helper()
	if got, want := listContents(l, floor), ref.live(floor); !slices.Equal(got, want) {
		t.Fatalf("step %d: %d live entries, reference %d (or contents differ)", step, len(got), len(want))
	}
}

// TestChunkedListAgainstReference drives the chunked list through a
// large random workload of inserts and floor raises, spanning many
// splits and chunk compactions, and compares the live entries against
// the flat-slice oracle; a final compaction must leave exactly them.
func TestChunkedListAgainstReference(t *testing.T) {
	l := newList()
	ref := &refList{}
	rng := rand.New(rand.NewSource(42))
	next, floor := model.DocID(0), model.DocID(0)

	for step := 0; step < 30000; step++ {
		if rng.Intn(3) != 0 || floor == next {
			e := EntryKey{W: float64(rng.Intn(500)+1) / 500, Doc: next} // ties likely
			next++
			l.insert(e, floor)
			ref.insert(e)
		} else {
			floor += model.DocID(1 + rng.Intn(2))
			floor = min(floor, next)
		}
		if step%97 == 0 {
			requireLive(t, step, l, ref, floor)
			ref.entries = ref.live(floor)
		}
	}
	requireLive(t, -1, l, ref, floor)
	l.compact(floor)
	if got, want := listContents(l, 0), ref.live(floor); !slices.Equal(got, want) {
		t.Fatalf("compacted list holds %d entries, %d live", len(got), len(want))
	}
	checkListInvariants(t, l, -1)
}

// TestChunkedListSplitBoundaries fills a list far past one chunk and
// checks structural invariants: chunks non-empty, within bounds,
// globally ordered.
func TestChunkedListSplitBoundaries(t *testing.T) {
	l := newList()
	const n = 4 * maxChunk
	for i := 0; i < n; i++ {
		l.insert(EntryKey{W: float64(i%97+1) / 97, Doc: model.DocID(i)}, 0)
	}
	if l.length != n {
		t.Fatalf("length = %d", l.length)
	}
	if len(l.chunks) < 2 {
		t.Fatalf("expected multiple chunks, got %d", len(l.chunks))
	}
	var prev EntryKey
	first := true
	for ci, ch := range l.chunks {
		if len(ch) == 0 {
			t.Fatalf("chunk %d empty", ci)
		}
		if len(ch) > maxChunk {
			t.Fatalf("chunk %d oversized: %d", ci, len(ch))
		}
		for _, e := range ch {
			if !first && !Before(prev, e) {
				t.Fatalf("order violation at chunk %d: %v then %v", ci, prev, e)
			}
			prev, first = e, false
		}
	}
	// Expire everything; compaction must shrink the directory to nothing.
	if examined := l.compact(n); examined != n {
		t.Fatalf("compaction examined %d entries, want %d", examined, n)
	}
	if l.length != 0 || l.chunks != nil {
		t.Fatalf("drained list: len=%d chunks=%d", l.length, len(l.chunks))
	}
	checkListInvariants(t, l, n)
}

// checkListInvariants holds l to the structural contract of the lean
// layout.
func checkListInvariants(t *testing.T, l *List, step int) {
	t.Helper()
	n := 0
	for ci, ch := range l.chunks {
		if len(ch) == 0 || len(ch) > maxChunk {
			t.Fatalf("step %d: chunk %d holds %d entries", step, ci, len(ch))
		}
		if cap(ch) > maxChunk {
			t.Fatalf("step %d: chunk %d cap %d", step, ci, cap(ch))
		}
		n += len(ch)
	}
	if n != l.length {
		t.Fatalf("step %d: chunks hold %d entries, length says %d", step, n, l.length)
	}
	switch len(l.chunks) {
	case 0:
		if l.chunks != nil || cap(l.one[0]) > parkMax || len(l.one[0]) != 0 {
			t.Fatalf("step %d: empty list keeps chunks=%v, parked len %d cap %d",
				step, l.chunks, len(l.one[0]), cap(l.one[0]))
		}
	case 1:
		if &l.chunks[0] != &l.one[0] {
			t.Fatalf("step %d: one-chunk list has a heap directory", step)
		}
	default:
		if l.one[0] != nil {
			t.Fatalf("step %d: %d-chunk list still pins a chunk inline", step, len(l.chunks))
		}
	}
}

// TestLeanListAgainstReference drives the list through a long random
// workload — point inserts, floor raises, batch applications on both
// sides of the rebuild cutoff and compactions, with drains back to
// empty — against a naive sorted slice, and checks the live entries and
// the structural invariants after every step.
func TestLeanListAgainstReference(t *testing.T) {
	l := newList()
	ref := &refList{}
	rng := rand.New(rand.NewSource(7))
	next, floor := model.DocID(0), model.DocID(0)

	randKey := func() EntryKey {
		e := EntryKey{W: float64(rng.Intn(25)+1) / 25, Doc: next} // ties likely
		next++
		return e
	}
	var scratch []EntryKey
	draining := false
	for step := 0; step < 20000; step++ {
		// Every so often run the list down to empty and back, so the
		// directory moves inline and the parked chunk gets exercised.
		if step%5000 == 2500 {
			draining = true
		}
		if draining && len(ref.entries) == 0 {
			draining = false
		}
		grew := -1
		switch r := rng.Intn(10); {
		case draining:
			floor = min(next, floor+model.DocID(1+rng.Intn(64)))
			if rng.Intn(4) == 0 {
				l.compact(floor)
			}
		case r < 5: // point insert
			e := randKey()
			before := 0
			if len(l.chunks) > 0 {
				c, _ := l.lowerBound(e)
				before = cap(l.chunks[c])
			}
			l.insert(e, floor)
			ref.insert(e)
			if c, _ := l.lowerBound(e); cap(l.chunks[c]) != before {
				grew = c // reallocated: grown or split
			}
		case r < 7: // expiry of about an eighth of the live entries
			floor += model.DocID(rng.Intn(int(next-floor)/4 + 1))
		case r < 8: // sweep
			l.compact(floor)
			if got, want := listContents(l, 0), ref.live(floor); !slices.Equal(got, want) {
				t.Fatalf("step %d: compacted list holds %d entries, %d live", step, len(got), len(want))
			}
		default: // batch, sized to sometimes cross the rebuild cutoff
			var ins []EntryKey
			for n := rng.Intn(200); n > 0; n-- {
				ins = append(ins, randKey())
			}
			sortEntries(ins)
			scratch = l.applyBatch(ins, floor, scratch)
			for _, e := range ins {
				ref.insert(e)
			}
		}

		ref.entries = ref.live(floor)
		if got := listContents(l, floor); !slices.Equal(got, ref.entries) {
			t.Fatalf("step %d: %d live entries, reference %d (or contents differ)", step, len(got), len(ref.entries))
		}
		checkListInvariants(t, l, step)
		if grew >= 0 {
			if ch := l.chunks[grew]; cap(ch) > len(ch)+len(ch)/8+1 {
				t.Fatalf("step %d: chunk %d grew to cap %d around %d entries", step, grew, cap(ch), len(ch))
			}
		}
	}
}

// TestListChurnDoesNotAllocate pins what the steady state of a sliding
// window relies on: once a list has grown to its working size, an
// arrival whose predecessor has expired allocates nothing, because the
// full chunk it lands in compacts first — including on a singleton list
// that refills over its stale entry.
func TestListChurnDoesNotAllocate(t *testing.T) {
	for _, size := range []int{0, 1, 5, 200, 5000} {
		l := newList()
		for i := 0; i < size; i++ {
			l.insert(EntryKey{W: float64(i%89 + 1), Doc: model.DocID(1<<40 + i)}, 0)
		}
		// The churning entries share one weight, so each lands next to
		// its expired predecessors.
		next := model.DocID(1)
		churn := func() {
			l.insert(EntryKey{W: 44.5, Doc: next}, next)
			next++
		}
		for range 2 * maxChunk { // warm: the touched chunk reaches its working size
			churn()
		}
		if got := testing.AllocsPerRun(200, churn); got != 0 {
			t.Errorf("list of %d: churn allocates %v times", size, got)
		}
		checkListInvariants(t, l, size)
	}
}

// Property: ascending-weight and descending-weight bulk inserts produce
// identical list contents.
func TestChunkedListOrderInsensitive(t *testing.T) {
	f := func(ws []uint16) bool {
		a, b := newList(), newList()
		for i, w := range ws {
			a.insert(EntryKey{W: float64(w), Doc: model.DocID(i)}, 0)
		}
		for i := len(ws) - 1; i >= 0; i-- {
			b.insert(EntryKey{W: float64(ws[i]), Doc: model.DocID(i)}, 0)
		}
		return slices.Equal(listContents(a, 0), listContents(b, 0))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
