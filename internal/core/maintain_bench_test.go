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
// then the maintainer handles it. Arrivals take their postings from a
// pool of four windows' worth of documents in turn, so a posting list
// returns only three windows after it expired and no window holds it
// twice: to the queries the stream looks fresh, and results drain and
// refill as they would on new text. The documents that expire are
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

// Query shapes of the bench's workloads: many-queries draws ten terms
// uniformly from the dictionary, hot-terms four from the corpus Zipf;
// both ask for the top 10.
func uniformQuery(s *corpus.Synth, id model.QueryID) *model.Query { return s.Query(id, 10, 10) }
func hotQuery(s *corpus.Synth, id model.QueryID) *model.Query     { return s.PopularQuery(id, 10, 4) }

// newEpochRig fills a window of the given size in 64-document epochs,
// registers nq queries drawn by query against it, arms publication, and
// slides one more window.
func newEpochRig(tb testing.TB, window, nq int, query func(*corpus.Synth, model.QueryID) *model.Query) *epochRig {
	synth, err := corpus.NewSynth(corpus.WSJConfig(), vsm.Cosine{})
	if err != nil {
		tb.Fatal(err)
	}
	r := &epochRig{index: invindex.NewIndex(0), window: window, next: 1}
	r.m = NewMaintainer(r.index, &r.stats, MaintainerConfig{})
	r.pool = make([]*model.Document, 4*window)
	for i := range r.pool {
		r.pool[i] = synth.Document(model.DocID(i+1), time.Unix(0, 0))
	}
	for range window / 64 {
		r.slide(tb, 64)
	}
	r.queries = make([]*model.Query, nq)
	for i := range r.queries {
		r.queries[i] = query(synth, model.QueryID(i+1))
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
// 64 documents, then 64 of one. The tree slice, the term table and the
// epoch queue allocate nothing at steady state: expiries and arrivals
// are applied to R as they are found, so the queue holds one pointer
// per changed query and no per-query lists. What remains is an R (most
// of it) or an admit list reaching a length its capacity has not held
// before. That reads 96.05 and 0.31 allocations per epoch; with
// per-query arrival and expiry lists in the queue, and the refill and
// raise depths of k+4, it read 300.19 and 13.64.
func TestHandleEpochAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("registers 10 000 queries")
	}
	r := newEpochRig(t, 1000, 10000, uniformQuery)
	for _, c := range []struct {
		epoch  int
		allocs float64
	}{{64, 112}, {1, 1}} {
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
	benchmarkMaintainEpoch(b, newEpochRig(b, 1000, 40000, uniformQuery))
}

// BenchmarkMaintainEpochHot is BenchmarkMaintainEpoch at the bench's
// hot-terms shape, where refills are most of the maintenance: 4 000
// Zipf-drawn four-term top-10 queries over a 2 000-document window.
func BenchmarkMaintainEpochHot(b *testing.B) {
	benchmarkMaintainEpoch(b, newEpochRig(b, 2000, 4000, hotQuery))
}

// benchmarkMaintainEpoch slides r in 64-document epochs and reports the
// time and the refills per document.
func benchmarkMaintainEpoch(b *testing.B, r *epochRig) {
	refills := r.stats.Refills
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
	docs := float64(b.N * 64)
	b.ReportMetric(float64(b.Elapsed().Microseconds())/docs, "us/doc")
	b.ReportMetric(float64(r.stats.Refills-refills)*1000/docs, "refills/kdoc")
}
