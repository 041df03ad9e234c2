package invindex

import (
	"fmt"
	"runtime"
	"testing"

	"ita/internal/corpus"
	"ita/internal/model"
	"ita/internal/vsm"
)

// liveHeap returns the bytes of live heap objects after a full
// collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC() // a second cycle frees what the first one's sweep left
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestMemoryBytesMatchesLiveHeap holds the index's footprint gauge
// against the collector: an index over WSJ-shaped documents is filled
// to its window and slid well past it in 64-document epochs (so lists
// have emptied, parked, regrown and merged pending into main), and
// MemoryBytes must then be within 10 % of the live heap the index
// accounts for — as a whole, and for the inverted lists alone, which is
// the share that decides what a layout costs. The benchmark's serve-http workload reports this
// gauge as its heap_mb.
func TestMemoryBytesMatchesLiveHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates a 10k-document window")
	}
	for _, win := range []int{2000, 10000} {
		t.Run(fmt.Sprintf("window=%d", win), func(t *testing.T) {
			synth, err := corpus.NewSynth(corpus.WSJConfig(), vsm.Cosine{})
			if err != nil {
				t.Fatal(err)
			}
			before := liveHeap()
			x := NewIndex(1)
			expire := func(_ *model.Document, count int) bool { return count > win }
			next := model.DocID(1)
			for next <= model.DocID(win+win/4) {
				batch := make([]*model.Document, 64)
				for i := range batch {
					batch[i] = synth.Document(next, timeAt(int(next)))
					next++
				}
				if _, err := x.ApplyBatch(batch, expire); err != nil {
					t.Fatal(err)
				}
			}
			total, lists := x.MemoryBytes(), x.MemoryBytes()-x.Store.MemoryBytes()
			t.Logf("%d postings in %d lists, %.1f B/posting", x.PostingCount(), liveTerms(x),
				float64(x.PostingBytes())/float64(x.PostingCount()))
			withIndex := liveHeap()
			// Drop everything but the store: what the heap loses is what
			// the lists, the term table, the occupied-list bitmap and
			// the epoch's grouping scratch held.
			x.lists, x.occupied, x.batchCounts, x.runs, x.grouped = nil, nil, nil, nil, nil
			withStore := liveHeap()
			runtime.KeepAlive(x)
			runtime.KeepAlive(synth)

			check := func(what string, gauge, heap uint64) {
				ratio := float64(gauge) / float64(heap)
				t.Logf("%s: gauge %.1f MB, heap %.1f MB, ratio %.3f", what, float64(gauge)/1e6, float64(heap)/1e6, ratio)
				if ratio < 0.9 || ratio > 1.1 {
					t.Errorf("%s: MemoryBytes says %d, the collector says %d (ratio %.3f, want within 10%%)",
						what, gauge, heap, ratio)
				}
			}
			check("lists", lists, withIndex-withStore)
			check("index", total, withIndex-before)
		})
	}
}
