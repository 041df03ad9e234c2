package invindex

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ita/internal/corpus"
	"ita/internal/model"
	"ita/internal/vsm"
)

func timeAt(i int) time.Time {
	return time.Unix(0, int64(i)*int64(5*time.Millisecond))
}

// Benchmarks for the two-run inverted list at the two size regimes that
// matter: the ~1-entry lists that dominate realistic dictionaries, and
// the Zipf-head lists that reach the window size at N = 100,000.

// BenchmarkListChurn inserts into a list of a given live size whose
// oldest entry expires with every arrival: the steady state of a
// sliding window at list level.
func BenchmarkListChurn(b *testing.B) {
	for _, size := range []int{4, 256, 8192, 100000} {
		b.Run(fmt.Sprintf("len=%d", size), func(b *testing.B) {
			l := newList()
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < size; i++ {
				insertOne(l, EntryKey{W: rng.Float64(), Doc: model.DocID(i)}, 0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				insertOne(l, EntryKey{W: rng.Float64(), Doc: model.DocID(size + i)}, model.DocID(i+1))
			}
		})
	}
}

// slider fills an index with WSJ-shaped documents to a window of the
// given size, in epochs of the given size, slides it one more window,
// and returns a step that slides it by one more epoch. The documents
// that expire are recycled as the next epoch's arrivals, so a step
// allocates only what the index does. The second window is what makes
// the step a steady-state one: the first slide after the fill is where
// lists outgrow their fill-time capacity.
func slider(tb testing.TB, window, epoch int) (step func()) {
	synth, err := corpus.NewSynth(corpus.WSJConfig(), vsm.Cosine{})
	if err != nil {
		tb.Fatal(err)
	}
	pool := make([]*model.Document, window+epoch)
	for i := range pool {
		pool[i] = synth.Document(model.DocID(i+1), timeAt(i))
	}
	x := NewIndex(1)
	expire := func(_ *model.Document, count int) bool { return count > window }
	next := model.DocID(1)
	batch := make([]*model.Document, epoch)
	arrive := func() {
		for _, d := range batch {
			d.ID, d.Arrival, d.Postings = next, timeAt(int(next)), pool[int(next)%len(pool)].Postings
			next++
		}
	}
	for range window / epoch {
		for i := range batch {
			batch[i] = new(model.Document)
		}
		arrive()
		if _, err := x.ApplyBatch(batch, expire); err != nil {
			tb.Fatal(err)
		}
	}
	for i := range batch {
		batch[i] = new(model.Document)
	}
	step = func() {
		arrive()
		res, err := x.ApplyBatch(batch, expire)
		if err != nil {
			tb.Fatal(err)
		}
		batch = res.Expired
	}
	for range window / epoch {
		step()
	}
	return step
}

// slideWindow times slider's steps, per document.
func slideWindow(b *testing.B, window, epoch int) {
	step := slider(b, window, epoch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*epoch), "us/doc")
}

// BenchmarkApplyBatchEpoch slides 64-document epochs over a
// 10,000-document window: the index phase of the benchmark's
// wide-window workload. An epoch is ≈11,000 inserts,
// so -cpu 1,2 compares the one-share pass with the term-partitioned one.
func BenchmarkApplyBatchEpoch(b *testing.B) { slideWindow(b, 10000, 64) }

// BenchmarkApplyBatchShortWindow slides 64-document epochs over a
// 1,000-document window: the window of the benchmark's many-queries
// workload, where lists are short and the sweep is a large part of the
// index phase.
func BenchmarkApplyBatchShortWindow(b *testing.B) { slideWindow(b, 1000, 64) }

// BenchmarkApplyBatchPoint slides single-document epochs, one arrival
// and one expiry each, over a 10,000-document window: the index phase
// of a paced or HTTP-fed engine.
func BenchmarkApplyBatchPoint(b *testing.B) { slideWindow(b, 10000, 1) }

func BenchmarkIndexProcessDocument(b *testing.B) {
	// Insert + remove a realistic 175-term document against a warm
	// window — the fixed per-event index cost of ITA.
	for _, window := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("N=%d", window), func(b *testing.B) {
			x := NewIndex(1)
			rng := rand.New(rand.NewSource(3))
			mk := func(id model.DocID) *model.Document {
				seen := map[model.TermID]bool{}
				var ps []model.Posting
				for len(ps) < 175 {
					t := model.TermID(rng.Intn(181978))
					if seen[t] {
						continue
					}
					seen[t] = true
					ps = append(ps, model.Posting{Term: t, Weight: rng.Float64()})
				}
				d, err := model.NewDocument(id, timeAt(int(id)), ps)
				if err != nil {
					b.Fatal(err)
				}
				return d
			}
			pool := make([]*model.Document, 2048)
			for i := range pool {
				pool[i] = mk(model.DocID(i + 1))
			}
			next := model.DocID(1)
			for i := 0; i < window; i++ {
				base := pool[int(next)%len(pool)]
				if err := x.Insert(&model.Document{ID: next, Arrival: base.Arrival, Postings: base.Postings}); err != nil {
					b.Fatal(err)
				}
				next++
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				base := pool[int(next)%len(pool)]
				if err := x.Insert(&model.Document{ID: next, Arrival: base.Arrival, Postings: base.Postings}); err != nil {
					b.Fatal(err)
				}
				next++
				x.RemoveOldest()
			}
		})
	}
}
