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

func (r *refList) delete(e EntryKey) bool {
	i := sort.Search(len(r.entries), func(i int) bool { return !Before(r.entries[i], e) })
	if i >= len(r.entries) || r.entries[i] != e {
		return false
	}
	r.entries = append(r.entries[:i], r.entries[i+1:]...)
	return true
}

func listContents(l *List) []EntryKey {
	var out []EntryKey
	for it := l.First(); it.Valid(); it.Next() {
		out = append(out, it.Key())
	}
	return out
}

// TestChunkedListAgainstReference drives the chunked list through a
// large random workload spanning many splits and chunk removals and
// compares every observable against the flat-slice oracle.
func TestChunkedListAgainstReference(t *testing.T) {
	l := newList()
	ref := &refList{}
	rng := rand.New(rand.NewSource(42))
	live := make(map[EntryKey]bool)

	for step := 0; step < 30000; step++ {
		if rng.Intn(3) != 0 || len(live) == 0 {
			e := EntryKey{
				W:   float64(rng.Intn(500)+1) / 500, // ties likely
				Doc: model.DocID(rng.Intn(5000)),
			}
			if live[e] {
				continue
			}
			live[e] = true
			l.insert(e)
			ref.insert(e)
		} else {
			// Delete a random live entry (map order is fine).
			var victim EntryKey
			for e := range live {
				victim = e
				break
			}
			delete(live, victim)
			if !l.delete(victim) || !func() bool { return ref.delete(victim) }() {
				t.Fatalf("step %d: delete disagreement for %v", step, victim)
			}
		}
		if l.Len() != len(ref.entries) {
			t.Fatalf("step %d: Len %d vs ref %d", step, l.Len(), len(ref.entries))
		}
	}

	got := listContents(l)
	if len(got) != len(ref.entries) {
		t.Fatalf("iteration yielded %d entries, ref has %d", len(got), len(ref.entries))
	}
	for i := range got {
		if got[i] != ref.entries[i] {
			t.Fatalf("entry %d: %v vs ref %v", i, got[i], ref.entries[i])
		}
	}

	// Seeks and predecessors at random probes, including phantoms.
	for probe := 0; probe < 2000; probe++ {
		pos := EntryKey{W: float64(rng.Intn(510)) / 500, Doc: model.DocID(rng.Intn(5200))}
		i := sort.Search(len(ref.entries), func(i int) bool { return !Before(ref.entries[i], pos) })
		it := l.SeekGE(pos)
		if i == len(ref.entries) {
			if it.Valid() {
				t.Fatalf("SeekGE(%v) valid, ref exhausted", pos)
			}
		} else if !it.Valid() || it.Key() != ref.entries[i] {
			t.Fatalf("SeekGE(%v) = %v, ref %v", pos, it.Key(), ref.entries[i])
		}
		pk, ok := l.PredBefore(pos)
		if i == 0 {
			if ok {
				t.Fatalf("PredBefore(%v) = %v, ref has none", pos, pk)
			}
		} else if !ok || pk != ref.entries[i-1] {
			t.Fatalf("PredBefore(%v) = %v,%v, ref %v", pos, pk, ok, ref.entries[i-1])
		}
	}
}

// TestChunkedListSplitBoundaries fills a list far past one chunk and
// checks structural invariants: chunks non-empty, within bounds,
// globally ordered.
func TestChunkedListSplitBoundaries(t *testing.T) {
	l := newList()
	const n = 4 * maxChunk
	for i := 0; i < n; i++ {
		l.insert(EntryKey{W: float64(i%97+1) / 97, Doc: model.DocID(i)})
	}
	if l.Len() != n {
		t.Fatalf("Len = %d", l.Len())
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
	// Drain completely; chunk directory must shrink to nothing.
	for i := 0; i < n; i++ {
		if !l.delete(EntryKey{W: float64(i%97+1) / 97, Doc: model.DocID(i)}) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if l.Len() != 0 || l.chunks != nil {
		t.Fatalf("drained list: len=%d chunks=%d", l.Len(), len(l.chunks))
	}
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
// workload — point inserts, point deletes (present and phantom) and
// batch applications on both sides of the rebuild cutoff, with drains
// back to empty — against a naive sorted slice, and checks every
// observable and the structural invariants after every step.
func TestLeanListAgainstReference(t *testing.T) {
	l := newList()
	ref := &refList{}
	rng := rand.New(rand.NewSource(7))

	randKey := func() EntryKey {
		return EntryKey{
			W:   float64(rng.Intn(25)+1) / 25, // ties likely
			Doc: model.DocID(rng.Intn(120)),
		}
	}
	at := func(pos EntryKey) int {
		return sort.Search(len(ref.entries), func(i int) bool { return !Before(ref.entries[i], pos) })
	}
	live := func(e EntryKey) bool {
		i := at(e)
		return i < len(ref.entries) && ref.entries[i] == e
	}
	anyLive := func() EntryKey { return ref.entries[rng.Intn(len(ref.entries))] }
	probe := func(step int, pos EntryKey) {
		i := at(pos)
		it := l.SeekGE(pos)
		if i == len(ref.entries) {
			if it.Valid() {
				t.Fatalf("step %d: SeekGE(%v) valid at %v, reference exhausted", step, pos, it.Key())
			}
		} else if !it.Valid() || it.Key() != ref.entries[i] {
			t.Fatalf("step %d: SeekGE(%v) = %v,%v, reference %v", step, pos, it.Key(), it.Valid(), ref.entries[i])
		}
		pk, ok := l.PredBefore(pos)
		if i == 0 {
			if ok {
				t.Fatalf("step %d: PredBefore(%v) = %v, reference has none", step, pos, pk)
			}
		} else if !ok || pk != ref.entries[i-1] {
			t.Fatalf("step %d: PredBefore(%v) = %v,%v, reference %v", step, pos, pk, ok, ref.entries[i-1])
		}
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
			victim := anyLive()
			if !l.delete(victim) || !ref.delete(victim) {
				t.Fatalf("step %d: delete(%v) of a live entry failed", step, victim)
			}
		case r < 5 || len(ref.entries) == 0: // point insert
			e := randKey()
			if live(e) {
				continue
			}
			before := 0
			if l.Len() > 0 {
				c, _ := l.lowerBound(e)
				before = cap(l.chunks[c])
			}
			l.insert(e)
			ref.insert(e)
			if c, _ := l.lowerBound(e); cap(l.chunks[c]) != before {
				grew = c // reallocated: grown or split
			}
		case r < 8: // point delete, sometimes phantom
			victim := anyLive()
			if rng.Intn(4) == 0 {
				victim = randKey() // likely phantom
			}
			if got, want := l.delete(victim), ref.delete(victim); got != want {
				t.Fatalf("step %d: delete(%v) = %v, reference %v", step, victim, got, want)
			}
		default: // batch, sized to sometimes cross the rebuild cutoff
			var ins, del []EntryKey
			for n := rng.Intn(200); n > 0; n-- {
				if e := randKey(); !live(e) {
					ins = append(ins, e)
				}
			}
			for n := min(rng.Intn(60), len(ref.entries)); n > 0; n-- {
				del = append(del, anyLive())
			}
			if rng.Intn(4) == 0 {
				del = append(del, EntryKey{W: 2, Doc: 1}) // never present
			}
			sortEntries(ins)
			sortEntries(del)
			ins, del = slices.Compact(ins), slices.Compact(del)
			scratch = l.applyBatch(ins, del, scratch)
			for _, e := range del {
				ref.delete(e)
			}
			for _, e := range ins {
				ref.insert(e)
			}
		}

		if l.Len() != len(ref.entries) {
			t.Fatalf("step %d: Len %d, reference %d", step, l.Len(), len(ref.entries))
		}
		checkListInvariants(t, l, step)
		if grew >= 0 {
			if ch := l.chunks[grew]; cap(ch) > len(ch)+len(ch)/8+1 {
				t.Fatalf("step %d: chunk %d grew to cap %d around %d entries", step, grew, cap(ch), len(ch))
			}
		}
		i := 0
		for it := l.First(); it.Valid(); it.Next() {
			if i >= len(ref.entries) || it.Key() != ref.entries[i] {
				t.Fatalf("step %d: entry %d is %v, reference differs", step, i, it.Key())
			}
			i++
		}
		if i != len(ref.entries) {
			t.Fatalf("step %d: iteration yielded %d entries, reference has %d", step, i, len(ref.entries))
		}
		probe(step, EntryKey{W: float64(rng.Intn(27)) / 25, Doc: model.DocID(rng.Intn(130))})
		probe(step, Top())
		probe(step, Bottom())
	}
}

// TestListChurnDoesNotAllocate pins what the steady state of a sliding
// window relies on: once a list has grown to its working size, an
// insert+delete pair allocates nothing — including on a singleton list
// that empties and refills, whose parked chunk is why RemoveOldest can
// keep emptied lists around for free.
func TestListChurnDoesNotAllocate(t *testing.T) {
	for _, size := range []int{0, 1, 5, 200, 5000} {
		l := newList()
		for i := 0; i < size; i++ {
			l.insert(EntryKey{W: float64(i%89 + 1), Doc: model.DocID(i)})
		}
		e := EntryKey{W: 44.5, Doc: 1 << 40}
		l.insert(e) // warm: the touched chunk has room from here on
		l.delete(e)
		if got := testing.AllocsPerRun(200, func() {
			l.insert(e)
			l.delete(e)
		}); got != 0 {
			t.Errorf("list of %d: insert+delete allocates %v times", size, got)
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
			a.insert(EntryKey{W: float64(w), Doc: model.DocID(i)})
		}
		for i := len(ws) - 1; i >= 0; i-- {
			b.insert(EntryKey{W: float64(ws[i]), Doc: model.DocID(i)})
		}
		ca, cb := listContents(a), listContents(b)
		if len(ca) != len(cb) {
			return false
		}
		for i := range ca {
			if ca[i] != cb[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
