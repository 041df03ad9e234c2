package invindex

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ita/internal/model"
)

// eagerIndex is the delete-on-expiry index that lazy expiry replaced,
// kept as the reference for live contents and for what the lists cost:
// an epoch deletes its expired documents' entries at once, by point
// deletes from whichever run holds them, and then adds each list's
// sorted run of inserts. Its floor stays 0 and its lists never hold a
// stale entry, so Scan reads them whole. It runs as one share.
type eagerIndex struct{ *Index }

func newEagerIndex() eagerIndex { return eagerIndex{NewIndex(1)} }

// apply is ApplyBatch with every expired entry deleted in the epoch.
func (e eagerIndex) apply(arrivals []*model.Document, expired func(oldest *model.Document, count int) bool) (BatchResult, error) {
	x := e.Index
	var res BatchResult
	if err := x.ascending(arrivals); err != nil {
		return res, err
	}
	x.fifo = append(x.fifo, arrivals...)
	for oldest := x.Oldest(); oldest != nil && expired(oldest, x.Len()); oldest = x.Oldest() {
		x.Store.RemoveOldest()
		if res.Dropped < len(arrivals) && oldest == arrivals[res.Dropped] {
			res.Dropped++
		} else {
			res.Expired = append(res.Expired, oldest)
		}
	}
	// Each term's deletes and inserts, in stream order.
	type mutations struct{ ins, del []EntryKey }
	byTerm := make(map[model.TermID]*mutations)
	var terms []model.TermID
	collect := func(docs []*model.Document, del bool) (postings int) {
		for _, d := range docs {
			for _, p := range d.Postings {
				mu := byTerm[p.Term]
				if mu == nil {
					mu = new(mutations)
					byTerm[p.Term] = mu
					terms = append(terms, p.Term)
				}
				if e := (EntryKey{W: p.Weight, Doc: d.ID}); del {
					mu.del = append(mu.del, e)
				} else {
					mu.ins = append(mu.ins, e)
				}
			}
			postings += len(d.Postings)
		}
		return postings
	}
	res.Deletes = collect(res.Expired, true)
	res.Inserts = collect(arrivals[res.Dropped:], false)
	x.live += res.Inserts - res.Deletes
	for _, t := range terms {
		x.lists = covering(x.lists, t)
		l, mu := x.listFor(t), byTerm[t]
		for _, e := range mu.del {
			eagerDelete(l, e)
		}
		if len(mu.ins) > 0 {
			sortEntries(mu.ins)
			l.add(mu.ins, 0)
		}
	}
	return res, nil
}

// eagerDelete removes e from l at once: a binary search and a memmove
// within the run that holds it. A main run that turns short takes
// pending in, and a list that empties releases both runs but a small
// main, which it parks.
func eagerDelete(l *List, e EntryKey) {
	run := &l.main
	i, ok := slices.BinarySearchFunc(l.main, e, compareKeys)
	if !ok {
		run = &l.pending
		i, ok = slices.BinarySearchFunc(l.pending, e, compareKeys)
	}
	if !ok {
		panic(fmt.Sprintf("eager reference: %v is not in its list", e))
	}
	*run = slices.Delete(*run, i, i+1)
	if len(l.main) < shortList && len(l.pending) > 0 {
		l.flush(0)
	}
	if physical(l) == 0 {
		if l.pending = nil; cap(l.main) > parkMax {
			l.main = nil
		}
	}
}

// physicalEntries counts every entry the lists hold, stale ones included.
func physicalEntries(x *Index) int {
	n := 0
	for _, l := range x.lists {
		if l != nil {
			n += physical(l)
		}
	}
	return n
}

// driftDoc builds a document over terms [base, base+vocab), skewed
// towards the low end so that a few lists grow long while most hold a
// handful of entries.
func driftDoc(rng *rand.Rand, id model.DocID, base model.TermID, vocab, terms int) *model.Document {
	used := map[model.TermID]bool{}
	var ps []model.Posting
	for len(ps) < terms {
		u := rng.Float64()
		t := base + model.TermID(float64(vocab)*u*u*u)
		if !used[t] {
			used[t] = true
			ps = append(ps, model.Posting{Term: t, Weight: rng.Float64()})
		}
	}
	d, err := model.NewDocument(id, timeAt(int(id)), ps)
	if err != nil {
		panic(err)
	}
	return d
}

// TestStaleMemoryBound drifts the vocabulary every window, so the terms
// of an expired window never come back and only the sweep can reclaim
// their lists. From the second window on, the lazy index's list storage
// must stay within 10 % of the eager reference's after every epoch; the
// terms of the window before last, absent for a whole window (many
// sweep cycles), must hold no physical entry; and an arrival-free epoch
// that empties the window must reclaim every list.
func TestStaleMemoryBound(t *testing.T) {
	const win, epoch, vocab, terms, windows = 1000, 16, 3000, 24, 6
	rng := rand.New(rand.NewSource(11))
	lazy, eager := NewIndex(1), newEagerIndex()
	apply := func(docs []*model.Document, expired func(*model.Document, int) bool) {
		t.Helper()
		if _, err := lazy.ApplyBatch(docs, expired); err != nil {
			t.Fatal(err)
		}
		if _, err := eager.apply(docs, expired); err != nil {
			t.Fatal(err)
		}
	}
	window := func(_ *model.Document, count int) bool { return count > win }
	next := model.DocID(1)
	worst := 0.0
	for w := 0; w < windows; w++ {
		for range win / epoch {
			docs := make([]*model.Document, epoch)
			for i := range docs {
				docs[i] = driftDoc(rng, next, model.TermID(w*vocab), vocab, terms)
				next++
			}
			apply(docs, window)
			if w < 2 {
				continue
			}
			ratio := float64(lazy.PostingBytes()) / float64(eager.PostingBytes())
			worst = max(worst, ratio)
			if ratio > 1.1 {
				t.Fatalf("window %d: lists take %d bytes, the eager reference %d (ratio %.3f)",
					w, lazy.PostingBytes(), eager.PostingBytes(), ratio)
			}
		}
		if w < 2 {
			continue
		}
		for term := (w - 2) * vocab; term < (w-1)*vocab; term++ {
			if l := lazy.lists[term]; l != nil && physical(l) > 0 {
				t.Fatalf("window %d: term %d, absent for a window, still holds %d entries", w, term, physical(l))
			}
		}
	}
	t.Logf("worst list storage against the eager reference: %.3f", worst)
	requireSameState(t, "before the idle epoch", lazy, eager.Index)

	apply(nil, func(*model.Document, int) bool { return true })
	if n := physicalEntries(lazy); n != 0 {
		t.Fatalf("an emptied window left %d entries", n)
	}
	if slices.ContainsFunc(lazy.occupied, func(w uint64) bool { return w != 0 }) {
		t.Fatal("an emptied window left lists marked occupied")
	}
	if lb, eb := lazy.PostingBytes(), eager.PostingBytes(); float64(lb) > 1.1*float64(eb) {
		t.Fatalf("an emptied window's lists take %d bytes, the eager reference's %d", lb, eb)
	}
}

// FuzzLazyExpiry runs random epochs against the eager reference, one per
// input byte — arrival batches under a count window, epochs that expire
// only the oldest document, arrival-free epochs that empty the window,
// and id restarts below the floor of an emptied window — and requires
// the same results and the same live lists, read through Scan, after
// every epoch, with every list structurally sound. The window is win's
// low ten bits, and its top two bits narrow the vocabulary from six
// terms to one or two, with twice the arrivals an op brings, so that
// lists grow long, fill pending and merge, and an epoch's run can
// outgrow pending.
func FuzzLazyExpiry(f *testing.F) {
	f.Add(int64(1), uint16(40), []byte{0x10, 0x41, 0x80, 0x03, 0x24, 0xff, 0x02, 0x33})
	f.Add(int64(2), uint16(700), []byte{0xfc, 0xfc, 0xfc, 0xfc, 0xfc, 0xfc, 0xfc, 0xfc, 0xfc, 0xfc, 0xfc, 0xfc, 0x01, 0x02, 0xfc})
	f.Add(int64(3), uint16(3), []byte{0x20, 0x40, 0x03, 0x04, 0x80, 0x02, 0x07, 0x10})
	// A window emptied one expiry at a time, then ids restarting low.
	f.Add(int64(4), uint16(1000), append(append([]byte{0x40}, slices.Repeat([]byte{0x01}, 17)...), 0x03, 0x20))
	// One term: its list crosses the short-list bound, then pending
	// fills and merges as the window slides, in large runs and small.
	f.Add(int64(5), uint16(1<<14|900), append(append(slices.Repeat([]byte{0xfc}, 20), slices.Repeat([]byte{0x04, 0x08, 0x01}, 60)...), 0xfc, 0xfc, 0x02, 0x00))
	// Two terms under a window the list outgrows, emptied and refilled
	// with ids restarting low.
	f.Add(int64(6), uint16(2<<14|1000), append(append(slices.Repeat([]byte{0xfc, 0x10}, 12), 0x02, 0x07), slices.Repeat([]byte{0xfc, 0x01, 0x0c}, 16)...))
	f.Fuzz(func(t *testing.T, seed int64, win uint16, ops []byte) {
		rng := rand.New(rand.NewSource(seed))
		vocab := [...]int{6, 1, 2, 6}[win>>14]
		arrivals := min(6/vocab, 2) // a run can outgrow a 64-entry pending
		window := func() func(*model.Document, int) bool {
			return func(_ *model.Document, count int) bool { return count > int(win%1024) }
		}
		oldest := func() func(*model.Document, int) bool { // as RemoveOldest
			calls := 0
			return func(*model.Document, int) bool { calls++; return calls == 1 }
		}
		everything := func() func(*model.Document, int) bool {
			return func(*model.Document, int) bool { return true }
		}
		lazy, eager := NewIndex(1), newEagerIndex()
		next := model.DocID(1)
		for i, op := range ops {
			var docs []*model.Document
			expired := window
			switch op % 4 {
			case 0: // arrivals, ids ascending with occasional gaps
				for range (1 + int(op>>2)) * arrivals {
					ps := make([]model.Posting, 0, 4)
					for _, t := range rng.Perm(vocab)[:1+rng.Intn(min(vocab, 4))] {
						ps = append(ps, model.Posting{Term: model.TermID(t), Weight: float64(1+rng.Intn(8)) / 8})
					}
					d, err := model.NewDocument(next, timeAt(int(next)), ps)
					if err != nil {
						t.Fatal(err)
					}
					docs = append(docs, d)
					next += 1 + model.DocID(rng.Intn(3)*rng.Intn(3))
				}
			case 1:
				expired = oldest
			case 2: // an arrival-free epoch that empties the window
				expired = everything
			case 3: // ids restart low once the window is empty
				if lazy.Len() == 0 {
					next = 1 + model.DocID(op>>2)
				}
				continue
			}
			got, err := lazy.ApplyBatch(docs, expired())
			if err != nil {
				t.Fatal(err)
			}
			want, err := eager.apply(docs, expired())
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("op %d: result %+v, eager reference %+v", i, got, want)
			}
			requireSameState(t, fmt.Sprintf("op %d", i), lazy, eager.Index)
			for _, l := range lazy.lists {
				if l != nil {
					checkListInvariants(t, l, i)
				}
			}
		}
	})
}
