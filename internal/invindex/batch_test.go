package invindex

import (
	"fmt"
	"math/rand"
	"runtime"
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

// scanTerm returns term t's live entries, read through Scan.
func scanTerm(x *Index, t model.TermID) []EntryKey {
	var out []EntryKey
	for it := x.Scan(t); it.Valid(); it.Next() {
		out = append(out, it.Key())
	}
	return out
}

// liveLists returns every term's live entries, leaving out the terms
// that have none.
func liveLists(x *Index) map[model.TermID][]EntryKey {
	lists := make(map[model.TermID][]EntryKey)
	for term := range x.lists {
		if es := scanTerm(x, model.TermID(term)); len(es) > 0 {
			lists[model.TermID(term)] = es
		}
	}
	return lists
}

// liveTerms counts the lists that hold a live entry.
func liveTerms(x *Index) int { return len(liveLists(x)) }

// indexState captures everything ApplyBatch is allowed to change that a
// reader can see: the FIFO and the live list entries.
func indexState(t *testing.T, x *Index) (fifo []model.DocID, lists map[model.TermID][]EntryKey) {
	t.Helper()
	x.Docs(func(d *model.Document) { fifo = append(fifo, d.ID) })
	return fifo, liveLists(x)
}

// requireSameState fails unless a and b hold the same FIFO and the same
// live entries in every list.
func requireSameState(t *testing.T, what string, a, b *Index) {
	t.Helper()
	aFifo, aLists := indexState(t, a)
	bFifo, bLists := indexState(t, b)
	if !slices.Equal(aFifo, bFifo) {
		t.Fatalf("%s: fifo diverged\n%v\n%v", what, aFifo, bFifo)
	}
	if len(aLists) != len(bLists) {
		t.Fatalf("%s: %d lists with a live entry, want %d", what, len(aLists), len(bLists))
	}
	for term, want := range bLists {
		if got := aLists[term]; !slices.Equal(got, want) {
			t.Fatalf("%s, term %d:\n%v\nwant %v", what, term, got, want)
		}
	}
	if a.PostingCount() != b.PostingCount() {
		t.Fatalf("%s: %d live postings, want %d", what, a.PostingCount(), b.PostingCount())
	}
}

// TestApplyBatchMatchesSerial drives a batched index, a serially
// maintained one and the eager reference through identical streams and
// requires the same results, the same store and the same live list
// entries after every epoch: under count windows, including epochs
// larger than the window (same-epoch transients); under a time window
// that arrival-free epochs empty; and over sparse ids.
func TestApplyBatchMatchesSerial(t *testing.T) {
	const tick = 5 * time.Millisecond // timeAt's spacing
	for _, cfg := range []struct {
		name                      string
		vocab, win, batch, epochs int
		gap                       int // ids advance by 1 + [0, gap)
		idle                      int // time window: every idle-th epoch is arrival-free and empties it
	}{
		{vocab: 8, win: 10, batch: 4, epochs: 40},     // heavy term overlap
		{vocab: 50, win: 20, batch: 1, epochs: 60},    // single-event epochs
		{vocab: 20, win: 5, batch: 16, epochs: 30},    // batch > window: transients
		{vocab: 300, win: 200, batch: 64, epochs: 12}, // many runs per epoch
		{name: "epochs_over_window", vocab: 12, win: 3, batch: 40, epochs: 30},
		{name: "time_window_idle", vocab: 10, win: 30, batch: 12, epochs: 60, idle: 5},
		{name: "sparse_ids", vocab: 10, win: 25, batch: 9, epochs: 50, gap: 4096},
	} {
		name := cfg.name
		if name == "" {
			name = fmt.Sprintf("v%d_w%d_b%d", cfg.vocab, cfg.win, cfg.batch)
		}
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			batched, serial, eager := NewIndex(1), NewIndex(1), newEagerIndex()
			nextID := model.DocID(1)
			seq := 0
			// policy is the window at time now: the last win documents,
			// or for a time window those under win ticks old.
			policy := func(now time.Time) func(*model.Document, int) bool {
				if cfg.idle > 0 {
					return func(oldest *model.Document, _ int) bool {
						return now.Sub(oldest.Arrival) >= time.Duration(cfg.win)*tick
					}
				}
				return func(_ *model.Document, count int) bool { return count > cfg.win }
			}
			var wantExpired []model.DocID
			expireSerial := func(now time.Time) {
				for oldest := serial.Oldest(); oldest != nil && policy(now)(oldest, serial.Len()); oldest = serial.Oldest() {
					wantExpired = append(wantExpired, serial.RemoveOldest().ID)
				}
			}

			for epoch := 0; epoch < cfg.epochs; epoch++ {
				var docs []*model.Document
				if cfg.idle > 0 && epoch%cfg.idle == cfg.idle-1 {
					seq += 2 * cfg.win // time passes with no arrival
				} else {
					docs = make([]*model.Document, cfg.batch)
					for i := range docs {
						docs[i] = randomDoc(rng, nextID, seq, cfg.vocab)
						nextID += 1 + model.DocID(rng.Intn(max(cfg.gap, 1)))
						seq++
					}
				}
				now := timeAt(seq)
				res, err := batched.ApplyBatch(docs, policy(now))
				if err != nil {
					t.Fatal(err)
				}
				want, err := eager.apply(docs, policy(now))
				if err != nil {
					t.Fatal(err)
				}
				wantExpired = wantExpired[:0]
				for _, d := range docs {
					if err := serial.Insert(d); err != nil {
						t.Fatal(err)
					}
					expireSerial(d.Arrival)
				}
				expireSerial(now)
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
				if fmt.Sprint(res) != fmt.Sprint(want) {
					t.Fatalf("epoch %d: result %+v, eager reference %+v", epoch, res, want)
				}
				requireSameState(t, fmt.Sprintf("epoch %d, batched against eager", epoch), batched, eager.Index)
				requireSameState(t, fmt.Sprintf("epoch %d, serial against eager", epoch), serial, eager.Index)
				for _, l := range batched.lists {
					if l != nil {
						checkListInvariants(t, l, epoch)
					}
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

// TestListApplyBatchRebuild adds a run larger than pending to a long
// list whose older half has expired, which merges pending and then the
// run into main, and checks it against point inserts: the same live
// entries, and no stale one left.
func TestListApplyBatchRebuild(t *testing.T) {
	const floor = 1000
	rng := rand.New(rand.NewSource(9))
	a, b := newList(), newList()
	for i := 0; i < 2*floor; i++ {
		e := EntryKey{W: rng.Float64(), Doc: model.DocID(i)}
		insertOne(a, e, 0)
		insertOne(b, e, 0)
	}
	// A large batch relative to the list: a thousand inserts.
	var ins []EntryKey
	for i := 0; i < 1000; i++ {
		ins = append(ins, EntryKey{W: rng.Float64(), Doc: model.DocID(10000 + i)})
	}
	sortEntries(ins)
	a.add(ins, floor)
	for _, e := range ins {
		insertOne(b, e, floor)
	}
	if got, want := listContents(a, 0), listContents(b, floor); !slices.Equal(got, want) {
		t.Fatalf("merge diverged: %d vs %d entries", len(got), len(want))
	}
	checkListInvariants(t, a, 0)
}

// TestBatchScratchShrink verifies the index releases the epoch's
// grouping scratch after sustained small epochs — one burst must not pin
// its high-water capacity forever — and that the run table goes with
// it.
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

	// A burst epoch groups tens of thousands of inserts to one term.
	const burst = 1 << 15
	if _, err := x.ApplyBatch(docAt(0, 7, burst), never); err != nil {
		t.Fatal(err)
	}
	high := cap(x.grouped)
	if high < burst {
		t.Fatalf("burst did not grow scratch: cap=%d", high)
	}
	// Sustained small epochs, each of 8 inserts to a fresh term.
	const small = 8
	id := 1 << 20
	for epoch := 0; epoch < 40; epoch++ {
		if _, err := x.ApplyBatch(docAt(id, model.TermID(100+epoch), small), never); err != nil {
			t.Fatal(err)
		}
		id += small
	}
	if got := cap(x.grouped); got >= high {
		t.Fatalf("scratch cap %d never shrank from high water %d", got, high)
	}
	if len(x.runs) != 1 || cap(x.runs) >= high {
		t.Fatalf("run table %d/%d after one-term epochs", len(x.runs), cap(x.runs))
	}
}

// TestApplyBatchAllocations pins the index's steady-state allocations on
// a 10,000-document window of WSJ-shaped documents, slid a full window
// past its fill so that every list has met its largest size: an epoch
// of 64 documents makes no more allocations than its Expired slice's
// growth, a single-document epoch one, and neither allocates more than
// a few kilobytes per epoch. Merges reuse their runs' capacity; a merge
// that laid main down afresh would allocate the list's size each time.
func TestApplyBatchAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("fills two 10k-document windows")
	}
	for _, c := range []struct {
		epoch  int
		allocs float64
		bytes  uint64
	}{{64, 8, 16 << 10}, {1, 1, 2 << 10}} {
		const window, steps = 10000, 100
		step := slider(t, window, c.epoch)
		if got := testing.AllocsPerRun(steps, step); got > c.allocs {
			t.Errorf("%d-document epoch: %v allocations, want at most %v", c.epoch, got, c.allocs)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range steps {
			step()
		}
		runtime.ReadMemStats(&after)
		if got := (after.TotalAlloc - before.TotalAlloc) / steps; got > c.bytes {
			t.Errorf("%d-document epoch: %d bytes allocated per epoch, want at most %d", c.epoch, got, c.bytes)
		}
	}
}
