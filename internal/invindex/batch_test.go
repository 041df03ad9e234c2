package invindex

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"ita/internal/model"
)

// sortEntries orders es in list order.
func sortEntries(es []EntryKey) { slices.SortFunc(es, compareKeys) }

// randomDoc builds a document with 1–6 random terms over the vocabulary.
func randomDoc(rng *rand.Rand, id model.DocID, seq, vocab int) *model.Document {
	n := 1 + rng.Intn(6)
	used := map[model.TermID]bool{}
	var ps []model.Posting
	for len(ps) < n {
		t := model.TermID(rng.Intn(vocab))
		if used[t] {
			continue
		}
		used[t] = true
		ps = append(ps, model.Posting{Term: t, Weight: rng.Float64()})
	}
	d, err := model.NewDocument(id, timeAt(seq), ps)
	if err != nil {
		panic(err)
	}
	return d
}

// indexState captures everything ApplyBatch is allowed to change.
func indexState(t *testing.T, x *Index) (fifo []model.DocID, lists map[model.TermID][]EntryKey) {
	t.Helper()
	x.Docs(func(d *model.Document) { fifo = append(fifo, d.ID) })
	lists = make(map[model.TermID][]EntryKey)
	for term, l := range x.lists {
		if l != nil && l.Len() > 0 {
			lists[model.TermID(term)] = listContents(l)
		}
	}
	return fifo, lists
}

// TestApplyBatchMatchesSerial drives a batched index and a serially
// maintained one through identical streams under a count window and
// requires identical store and list state after every epoch, including
// epochs larger than the window (same-epoch transients).
func TestApplyBatchMatchesSerial(t *testing.T) {
	for _, cfg := range []struct {
		vocab, win, batch, epochs int
	}{
		{vocab: 8, win: 10, batch: 4, epochs: 40},     // heavy term overlap
		{vocab: 50, win: 20, batch: 1, epochs: 60},    // single-event epochs
		{vocab: 20, win: 5, batch: 16, epochs: 30},    // batch > window: transients
		{vocab: 300, win: 200, batch: 64, epochs: 12}, // rebuild path on hot lists
	} {
		t.Run(fmt.Sprintf("v%d_w%d_b%d", cfg.vocab, cfg.win, cfg.batch), func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			batched, serial := NewIndex(1), NewIndex(1)
			nextID := model.DocID(1)
			seq := 0
			expire := func(oldest *model.Document, count int) bool { return count > cfg.win }

			for epoch := 0; epoch < cfg.epochs; epoch++ {
				docs := make([]*model.Document, cfg.batch)
				for i := range docs {
					docs[i] = randomDoc(rng, nextID, seq, cfg.vocab)
					nextID++
					seq++
				}
				res, err := batched.ApplyBatch(docs, expire)
				if err != nil {
					t.Fatal(err)
				}
				var wantExpired []model.DocID
				for _, d := range docs {
					if err := serial.Insert(d); err != nil {
						t.Fatal(err)
					}
					for serial.Len() > cfg.win {
						wantExpired = append(wantExpired, serial.RemoveOldest().ID)
					}
				}
				// Expired must list exactly the pre-epoch victims, in
				// order; transients are reported as Dropped instead.
				var gotExpired []model.DocID
				for _, d := range res.Expired {
					gotExpired = append(gotExpired, d.ID)
				}
				batchIDs := map[model.DocID]bool{}
				for _, d := range docs {
					batchIDs[d.ID] = true
				}
				var wantPre []model.DocID
				wantDropped := 0
				for _, id := range wantExpired {
					if batchIDs[id] {
						wantDropped++
					} else {
						wantPre = append(wantPre, id)
					}
				}
				if fmt.Sprint(gotExpired) != fmt.Sprint(wantPre) || res.Dropped != wantDropped {
					t.Fatalf("epoch %d: expired %v dropped %d, want %v / %d",
						epoch, gotExpired, res.Dropped, wantPre, wantDropped)
				}

				bFifo, bLists := indexState(t, batched)
				sFifo, sLists := indexState(t, serial)
				if fmt.Sprint(bFifo) != fmt.Sprint(sFifo) {
					t.Fatalf("epoch %d: fifo diverged\nbatch  %v\nserial %v", epoch, bFifo, sFifo)
				}
				if len(bLists) != len(sLists) {
					t.Fatalf("epoch %d: %d non-empty lists, serial has %d", epoch, len(bLists), len(sLists))
				}
				for term, want := range sLists {
					if got := bLists[term]; fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("epoch %d term %d:\nbatch  %v\nserial %v", epoch, term, got, want)
					}
				}
				if batched.Terms() != serial.Terms() {
					t.Fatalf("epoch %d: Terms() %d vs %d", epoch, batched.Terms(), serial.Terms())
				}
			}
		})
	}
}

// TestApplyBatchValidation checks the all-or-nothing ascending-id
// checks.
func TestApplyBatchValidation(t *testing.T) {
	x := NewIndex(1)
	d1 := randomDoc(rand.New(rand.NewSource(1)), 1, 0, 10)
	d5 := randomDoc(rand.New(rand.NewSource(5)), 5, 0, 10)
	if _, err := x.ApplyBatch([]*model.Document{d1, d5}, func(*model.Document, int) bool { return false }); err != nil {
		t.Fatal(err)
	}
	before, _ := indexState(t, x)

	// Duplicate against the store.
	d2 := randomDoc(rand.New(rand.NewSource(2)), 2, 1, 10)
	if _, err := x.ApplyBatch([]*model.Document{d2, d1}, func(*model.Document, int) bool { return false }); err == nil {
		t.Fatal("duplicate against store accepted")
	}
	// Duplicate within the batch.
	d3 := randomDoc(rand.New(rand.NewSource(3)), 3, 2, 10)
	if _, err := x.ApplyBatch([]*model.Document{d3, d3}, func(*model.Document, int) bool { return false }); err == nil {
		t.Fatal("duplicate within batch accepted")
	}
	// Below the newest live id, though no live document has it.
	d4 := randomDoc(rand.New(rand.NewSource(4)), 4, 3, 10)
	if _, err := x.ApplyBatch([]*model.Document{d4}, func(*model.Document, int) bool { return false }); err == nil || !strings.Contains(err.Error(), "ascend") {
		t.Fatalf("id below the newest live id: err %v, want the ascending-id rule", err)
	}
	// Descending within the batch.
	d7 := randomDoc(rand.New(rand.NewSource(7)), 7, 4, 10)
	d6 := randomDoc(rand.New(rand.NewSource(6)), 6, 4, 10)
	if _, err := x.ApplyBatch([]*model.Document{d7, d6}, func(*model.Document, int) bool { return false }); err == nil {
		t.Fatal("descending batch accepted")
	}
	after, _ := indexState(t, x)
	if fmt.Sprint(before) != fmt.Sprint(after) {
		t.Fatalf("failed batch mutated the store: %v -> %v", before, after)
	}
}

// TestListApplyBatchRebuild forces the merge-rebuild path and checks it
// against point operations on lists spanning multiple chunks.
func TestListApplyBatchRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a, b := newList(), newList()
	var present []EntryKey
	for i := 0; i < 2000; i++ {
		e := EntryKey{W: rng.Float64(), Doc: model.DocID(i)}
		a.insert(e)
		b.insert(e)
		present = append(present, e)
	}
	// Large mutation set relative to the list: half the entries deleted,
	// a thousand inserted.
	var ins, del []EntryKey
	for i := 0; i < 1000; i++ {
		ins = append(ins, EntryKey{W: rng.Float64(), Doc: model.DocID(10000 + i)})
	}
	rng.Shuffle(len(present), func(i, j int) { present[i], present[j] = present[j], present[i] })
	del = append(del, present[:1000]...)

	sortEntries(ins)
	sortEntries(del)
	a.applyBatch(ins, del, nil)
	for _, e := range del {
		b.delete(e)
	}
	for _, e := range ins {
		b.insert(e)
	}
	if got, want := listContents(a), listContents(b); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("rebuild diverged: %d vs %d entries", len(got), len(want))
	}
	checkListInvariants(t, a, 0)
}

// scratchCap is the largest merge scratch any share retains.
func scratchCap(x *Index) int {
	c := 0
	for _, s := range x.shares {
		c = max(c, cap(s.buf))
	}
	return c
}

// TestBatchScratchShrink verifies the index releases the hot-list merge
// scratch after sustained small epochs — one burst must not pin its
// high-water capacity forever, whichever share rebuilt the burst's list
// (term 7 is share 1's at two shares, and small epochs run on share 0
// alone, so an idle share must shrink too).
func TestBatchScratchShrink(t *testing.T) {
	x := NewIndex(1)
	docAt := func(id int, term model.TermID, n int) []*model.Document {
		docs := make([]*model.Document, n)
		for i := range docs {
			d, err := model.NewDocument(model.DocID(id+i), time.Unix(int64(id+i), 0),
				[]model.Posting{{Term: term, Weight: float64(id+i) + 1}})
			if err != nil {
				t.Fatal(err)
			}
			docs[i] = d
		}
		return docs
	}
	never := func(*model.Document, int) bool { return false }

	// A burst epoch rebuilds one hot list at several thousand entries.
	if _, err := x.ApplyBatch(docAt(0, 7, 4096), never); err != nil {
		t.Fatal(err)
	}
	high := scratchCap(x)
	if high < 4096 {
		t.Fatalf("burst did not grow scratch: cap=%d", high)
	}
	// Sustained small epochs: each rebuilds a tiny fresh hot term (8
	// mutations clears hotTermMutations; a new term keeps the list size
	// below the point-op cutoff).
	id := 1 << 20
	for epoch := 0; epoch < 40; epoch++ {
		if _, err := x.ApplyBatch(docAt(id, model.TermID(100+epoch), hotTermMutations), never); err != nil {
			t.Fatal(err)
		}
		id += hotTermMutations
	}
	if got := scratchCap(x); got >= high {
		t.Fatalf("scratch cap %d never shrank from high water %d", got, high)
	}
}
