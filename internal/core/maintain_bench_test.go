package core

import (
	"runtime"
	"testing"
	"time"

	"ita/internal/corpus"
	"ita/internal/invindex"
	"ita/internal/model"
	"ita/internal/vsm"
)

// epochRig is one maintainer over a count window of WSJ-shaped
// documents, driven as ITA drives a shard: the index applies an epoch,
// then the maintainer handles it. The documents that expire are
// recycled as the next epoch's arrivals, so a slide allocates only what
// the index and the maintainer do.
type epochRig struct {
	index *invindex.Index
	m     *Maintainer
	stats Stats

	pool    []*model.Document
	queries []*model.Query
	window  int
	next    model.DocID
	spare   []*model.Document
}

// newEpochRig fills a window of the given size in 64-document epochs,
// registers nq uniform ten-term top-10 queries against it (the bench's
// many-queries shape), arms publication, and slides one more window.
func newEpochRig(tb testing.TB, window, nq int) *epochRig {
	synth, err := corpus.NewSynth(corpus.WSJConfig(), vsm.Cosine{})
	if err != nil {
		tb.Fatal(err)
	}
	r := &epochRig{index: invindex.NewIndex(0), window: window, next: 1}
	r.m = NewMaintainer(r.index, &r.stats, MaintainerConfig{})
	r.pool = make([]*model.Document, window+64)
	for i := range r.pool {
		r.pool[i] = synth.Document(model.DocID(i+1), time.Unix(0, 0))
	}
	for range window / 64 {
		r.slide(tb, 64)
	}
	r.queries = make([]*model.Query, nq)
	for i := range r.queries {
		r.queries[i] = synth.Query(model.QueryID(i+1), 10, 10)
		if err := r.m.Register(r.queries[i]); err != nil {
			tb.Fatal(err)
		}
	}
	r.m.Publish()
	for range window / 64 {
		r.slide(tb, 64)
	}
	return r
}

// apply slides the index by n arrivals and returns the epoch the
// maintainer must handle.
func (r *epochRig) apply(tb testing.TB, n int) (arrived, expired []*model.Document) {
	arrived = make([]*model.Document, 0, n)
	for range n {
		var d *model.Document
		if k := len(r.spare); k > 0 {
			d, r.spare = r.spare[k-1], r.spare[:k-1]
		} else {
			d = new(model.Document)
		}
		d.ID, d.Arrival = r.next, time.Unix(0, int64(r.next))
		d.Postings = r.pool[int(r.next)%len(r.pool)].Postings
		r.next++
		arrived = append(arrived, d)
	}
	res, err := r.index.ApplyBatch(arrived, func(_ *model.Document, count int) bool { return count > r.window })
	if err != nil {
		tb.Fatal(err)
	}
	return arrived, res.Expired
}

// slide applies and handles one epoch of n documents.
func (r *epochRig) slide(tb testing.TB, n int) {
	arrived, expired := r.apply(tb, n)
	r.m.HandleEpoch(arrived, expired)
	r.m.Publish()
	r.spare = append(r.spare, expired...)
}

// TestHandleEpochAllocations bounds the allocations of HandleEpoch on a
// many-queries-shaped maintainer (10 000 uniform ten-term queries over
// a 1 000-document window) slid one window past its fill: 64 epochs of
// 64 documents, then 64 of one. The tree slice, the term table and R
// allocate nothing at steady state. What remains is the epoch queue's
// per-query arrival and expiry lists: a queue entry whose list outgrows
// its capacity appends, and once a run of small epochs shrinks the
// queue (see reuse) its entries start without capacity. That reads
// 209.6 and 11.9 allocations per epoch, the same as with the trees in
// a map and R in two slices.
func TestHandleEpochAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("registers 10 000 queries")
	}
	r := newEpochRig(t, 1000, 10000)
	for _, c := range []struct {
		epoch  int
		allocs float64
	}{{64, 256}, {1, 16}} {
		const runs = 64
		var before, after runtime.MemStats
		var mallocs uint64
		for range runs {
			arrived, expired := r.apply(t, c.epoch)
			runtime.ReadMemStats(&before)
			r.m.HandleEpoch(arrived, expired)
			runtime.ReadMemStats(&after)
			mallocs += after.Mallocs - before.Mallocs
			r.m.Publish()
			r.spare = append(r.spare, expired...)
		}
		if got := float64(mallocs) / runs; got > c.allocs {
			t.Errorf("%d-document epoch: %.2f allocations, want at most %v", c.epoch, got, c.allocs)
		} else {
			t.Logf("%d-document epoch: %.2f allocations", c.epoch, got)
		}
	}
}

// BenchmarkMaintainEpoch times one shard's maintenance alone —
// HandleEpoch plus Publish, not the index apply — at the bench's
// many-queries shape: 40 000 uniform ten-term top-10 queries over a
// 1 000-document window, slid in 64-document epochs.
func BenchmarkMaintainEpoch(b *testing.B) {
	r := newEpochRig(b, 1000, 40000)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		b.StopTimer()
		arrived, expired := r.apply(b, 64)
		b.StartTimer()
		r.m.HandleEpoch(arrived, expired)
		r.m.Publish()
		r.spare = append(r.spare, expired...)
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*64), "us/doc")
}
