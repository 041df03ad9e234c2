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

// insertOne adds e to l as an epoch's only insert to it.
func insertOne(l *List, e EntryKey, floor model.DocID) { l.add([]EntryKey{e}, floor) }

// physical counts l's entries, stale ones included.
func physical(l *List) int { return len(l.main) + len(l.pending) }

// listContents returns l's entries not below floor, read through the
// iterator; floor 0 reads every physical entry.
func listContents(l *List, floor model.DocID) []EntryKey {
	out := make([]EntryKey, 0, physical(l))
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

// TestChunkedListAgainstReference drives the list through a large
// random workload of inserts and floor raises, spanning many merges of
// pending into main and compactions of full runs, and compares the live
// entries against the flat-slice oracle; a final compaction must leave
// exactly them.
func TestChunkedListAgainstReference(t *testing.T) {
	l := newList()
	ref := &refList{}
	rng := rand.New(rand.NewSource(42))
	next, floor := model.DocID(0), model.DocID(0)

	for step := 0; step < 30000; step++ {
		if rng.Intn(3) != 0 || floor == next {
			e := EntryKey{W: float64(rng.Intn(500)+1) / 500, Doc: next} // ties likely
			next++
			insertOne(l, e, floor)
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

// TestListRunBoundaries fills a list one insert at a time across the
// short-list bound and through many pending merges, and checks where
// each insert lands: in main while main is short, then in pending until
// it is full, when the next insert merges pending into main first. A
// run larger than pending goes straight to main, and expiring everything
// drains the list.
func TestListRunBoundaries(t *testing.T) {
	for m, want := range map[int]int{0: 64, 256: 64, 1023: 64, 1024: 128, 2048: 256, 4096: 512, 1 << 20: 512} {
		if got := pendingCap(m); got != want {
			t.Errorf("pendingCap(%d) = %d, want %d", m, got, want)
		}
	}
	l := newList()
	const n = 4 * shortList
	merges := 0
	for i := 0; i < n; i++ {
		main, pending, full := len(l.main), len(l.pending), len(l.pending) == cap(l.pending)
		insertOne(l, EntryKey{W: float64(i%97+1) / 97, Doc: model.DocID(i)}, 0)
		switch {
		case main < shortList:
			if len(l.main) != main+1 || len(l.pending) != 0 {
				t.Fatalf("insert %d into a short list of %d: main %d, pending %d", i, main, len(l.main), len(l.pending))
			}
		case full:
			merges++
			if len(l.main) != main+pending || len(l.pending) != 1 || cap(l.pending) != pendingCap(len(l.main)) {
				t.Fatalf("insert %d into a full pending of %d: main %d → %d, pending %d/%d, want %d, 1/%d",
					i, pending, main, len(l.main), len(l.pending), cap(l.pending), main+pending, pendingCap(len(l.main)))
			}
		default:
			if len(l.main) != main || len(l.pending) != pending+1 {
				t.Fatalf("insert %d into pending of %d: main %d → %d, pending %d", i, pending, main, len(l.main), len(l.pending))
			}
		}
		checkListInvariants(t, l, i)
	}
	if merges < 3 {
		t.Fatalf("%d inserts merged pending into main %d times", n, merges)
	}
	main, pending := len(l.main), len(l.pending)
	big := make([]EntryKey, n) // more than pending holds at this length
	for i := range big {
		big[i] = EntryKey{W: float64(i%89+1) / 89, Doc: model.DocID(n + i)}
	}
	sortEntries(big)
	l.add(big, 0)
	if len(l.main) != main+pending+len(big) || len(l.pending) != 0 {
		t.Fatalf("a run of %d beside pending %d: main %d → %d, pending %d", len(big), pending, main, len(l.main), len(l.pending))
	}
	checkListInvariants(t, l, n)
	// Expire everything; compaction must release both runs.
	total := physical(l)
	if examined := l.compact(model.DocID(total)); examined != total {
		t.Fatalf("compaction examined %d entries, want %d", examined, total)
	}
	if l.main != nil || l.pending != nil {
		t.Fatalf("drained list keeps main %d/%d, pending %d/%d", len(l.main), cap(l.main), len(l.pending), cap(l.pending))
	}
}

// checkListInvariants holds l to the structural contract of the
// two-run layout: both runs strictly in list order, pending empty while
// main is short and at most twice its capacity rule otherwise, and an
// empty list holding no more than a parked run.
func checkListInvariants(t *testing.T, l *List, step int) {
	t.Helper()
	for _, run := range [][]EntryKey{l.main, l.pending} {
		for i := 1; i < len(run); i++ {
			if !Before(run[i-1], run[i]) {
				t.Fatalf("step %d: order violation at %d: %v then %v", step, i, run[i-1], run[i])
			}
		}
	}
	switch {
	case len(l.main) < shortList && len(l.pending) > 0:
		t.Fatalf("step %d: a short main of %d beside %d pending entries", step, len(l.main), len(l.pending))
	case len(l.main) >= shortList && cap(l.pending) > 2*pendingCap(len(l.main)):
		t.Fatalf("step %d: pending cap %d over a main of %d", step, cap(l.pending), len(l.main))
	case physical(l) == 0 && (cap(l.main) > parkMax || l.pending != nil):
		t.Fatalf("step %d: empty list keeps main cap %d, pending cap %d", step, cap(l.main), cap(l.pending))
	}
}

// TestLeanListAgainstReference drives the list through a long random
// workload — point inserts, floor raises, runs of inserts on both sides
// of the short-list bound and of pending's capacity, and compactions,
// with drains back to empty — against a naive sorted slice, and checks
// the live entries and the structural invariants after every step, and
// that main grows by an eighth.
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
	draining := false
	for step := 0; step < 20000; step++ {
		// Every so often run the list down to empty and back, so the list
		// turns short again and the parked run gets exercised.
		if step%5000 == 2500 {
			draining = true
		}
		if draining && len(ref.entries) == 0 {
			draining = false
		}
		before := cap(l.main)
		switch r := rng.Intn(10); {
		case draining:
			floor = min(next, floor+model.DocID(1+rng.Intn(64)))
			if rng.Intn(4) == 0 {
				l.compact(floor)
			}
		case r < 5: // point insert
			e := randKey()
			insertOne(l, e, floor)
			ref.insert(e)
		case r < 7: // expiry of about an eighth of the live entries
			floor += model.DocID(rng.Intn(int(next-floor)/4 + 1))
		case r < 8: // sweep
			l.compact(floor)
			if got, want := listContents(l, 0), ref.live(floor); !slices.Equal(got, want) {
				t.Fatalf("step %d: compacted list holds %d entries, %d live", step, len(got), len(want))
			}
		default: // a run, sized to sometimes outgrow pending
			var ins []EntryKey
			for n := 1 + rng.Intn(200); n > 0; n-- {
				ins = append(ins, randKey())
			}
			sortEntries(ins)
			l.add(ins, floor)
			for _, e := range ins {
				ref.insert(e)
			}
		}

		ref.entries = ref.live(floor)
		if got := listContents(l, floor); !slices.Equal(got, ref.entries) {
			t.Fatalf("step %d: %d live entries, reference %d (or contents differ)", step, len(got), len(ref.entries))
		}
		checkListInvariants(t, l, step)
		if n := len(l.main); cap(l.main) > before && cap(l.main) > n+n/8 {
			t.Fatalf("step %d: main grew to cap %d around %d entries", step, cap(l.main), n)
		}
	}
}

// TestListChurnDoesNotAllocate pins what the steady state of a sliding
// window relies on: once a list has grown to its working size, an
// arrival whose predecessor has expired allocates nothing, because a
// full short list compacts before it grows and a long list's merge of
// pending into main drops the stale entries first — including on a
// singleton list that refills over its stale entry.
func TestListChurnDoesNotAllocate(t *testing.T) {
	for _, size := range []int{0, 1, 5, 200, 5000} {
		l := newList()
		for i := 0; i < size; i++ {
			insertOne(l, EntryKey{W: float64(i%89 + 1), Doc: model.DocID(1<<40 + i)}, 0)
		}
		// The churning entries share one weight, so each lands next to
		// its expired predecessors.
		next := model.DocID(1)
		churn := func() {
			insertOne(l, EntryKey{W: 44.5, Doc: next}, next)
			next++
		}
		for range 4 * pendingCap(size) { // warm: both runs reach their working size
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
			insertOne(a, EntryKey{W: float64(w), Doc: model.DocID(i)}, 0)
		}
		for i := len(ws) - 1; i >= 0; i-- {
			insertOne(b, EntryKey{W: float64(ws[i]), Doc: model.DocID(i)}, 0)
		}
		return slices.Equal(listContents(a, 0), listContents(b, 0))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
