package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ita/internal/model"
	"ita/internal/window"
)

// Micro-benchmarks of the individual maintenance paths, complementing
// the figure-level benchmarks in the repository root. Each isolates one
// event type at a controlled hit rate.

func benchDocs(n, vocab, termsPerDoc int, seed int64) []*model.Document {
	rng := rand.New(rand.NewSource(seed))
	docs := make([]*model.Document, n)
	for i := range docs {
		freqs := map[model.TermID]bool{}
		var ps []model.Posting
		for len(ps) < termsPerDoc {
			t := model.TermID(rng.Intn(vocab))
			if freqs[t] {
				continue
			}
			freqs[t] = true
			ps = append(ps, model.Posting{Term: t, Weight: float64(rng.Intn(1000)+1) / 1000})
		}
		d, err := model.NewDocument(model.DocID(i+1), time.Unix(0, int64(i)*int64(5*time.Millisecond)), ps)
		if err != nil {
			panic(err)
		}
		docs[i] = d
	}
	return docs
}

// BenchmarkITAIndexOnly measures pure index maintenance: arrivals and
// expirations with zero registered queries.
func BenchmarkITAIndexOnly(b *testing.B) {
	for _, terms := range []int{20, 175} {
		b.Run(fmt.Sprintf("terms=%d", terms), func(b *testing.B) {
			e := NewITA(window.Count{N: 1000})
			docs := benchDocs(4096, 50000, terms, 1)
			for i := 0; i < 1000; i++ {
				if err := e.Process(docs[i]); err != nil {
					b.Fatal(err)
				}
			}
			next := model.DocID(100000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				base := docs[i%len(docs)]
				d := &model.Document{ID: next, Arrival: base.Arrival, Postings: base.Postings}
				next++
				if err := e.Process(d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkITAProbeHit measures the arrival path when every arrival
// affects a query (worst case: the query monitors the whole space).
func BenchmarkITAProbeHit(b *testing.B) {
	e := NewITA(window.Count{N: 1000})
	q, err := model.NewQuery(1, 10, []model.QueryTerm{{Term: 1, Weight: 1}})
	if err != nil {
		b.Fatal(err)
	}
	if err := e.Register(q); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	next := model.DocID(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := model.NewDocument(next, time.Unix(0, int64(i)*int64(time.Millisecond)),
			[]model.Posting{{Term: 1, Weight: float64(rng.Intn(1000)+1) / 1000}})
		if err != nil {
			b.Fatal(err)
		}
		next++
		if err := e.Process(d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkITARegister measures the initial top-k search over a warm
// window.
func BenchmarkITARegister(b *testing.B) {
	e := NewITA(window.Count{N: 1000})
	docs := benchDocs(1000, 2000, 50, 3)
	for _, d := range docs {
		if err := e.Process(d); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		terms := make([]model.QueryTerm, 0, 10)
		seen := map[model.TermID]bool{}
		for len(terms) < 10 {
			t := model.TermID(rng.Intn(2000))
			if seen[t] {
				continue
			}
			seen[t] = true
			terms = append(terms, model.QueryTerm{Term: t, Weight: 0.316})
		}
		q, err := model.NewQuery(model.QueryID(i+1), 10, terms)
		if err != nil {
			b.Fatal(err)
		}
		if err := e.Register(q); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		e.Unregister(q.ID)
		b.StartTimer()
	}
}

// BenchmarkITARegisterHot measures the initial top-k search when the
// scan goes deep: documents of ~180 postings over a Zipf-distributed
// vocabulary, and queries of 4 terms drawn from the same Zipf, so
// query terms are popular and their lists run through most of the
// window. BenchmarkITARegister's uniform 2 000-term vocabulary keeps
// lists too short to show the per-read cost.
func BenchmarkITARegisterHot(b *testing.B) {
	const (
		windowN = 2000
		vocab   = 20000
		terms   = 180
	)
	rng := rand.New(rand.NewSource(6))
	zipf := rand.NewZipf(rng, 1.1, 1, vocab-1)
	e := NewITA(window.Count{N: windowN})
	for i := 0; i < windowN; i++ {
		seen := map[model.TermID]bool{}
		var ps []model.Posting
		for len(ps) < terms {
			t := model.TermID(zipf.Uint64())
			if seen[t] {
				continue
			}
			seen[t] = true
			ps = append(ps, model.Posting{Term: t, Weight: float64(rng.Intn(1000)+1) / 1000})
		}
		d, err := model.NewDocument(model.DocID(i+1), time.Unix(0, int64(i)), ps)
		if err != nil {
			b.Fatal(err)
		}
		if err := e.Process(d); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		seen := map[model.TermID]bool{}
		var qts []model.QueryTerm
		for len(qts) < 4 {
			t := model.TermID(zipf.Uint64())
			if seen[t] {
				continue
			}
			seen[t] = true
			qts = append(qts, model.QueryTerm{Term: t, Weight: 0.5})
		}
		q, err := model.NewQuery(model.QueryID(i+1), 10, qts)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := e.Register(q); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		e.Unregister(q.ID)
		b.StartTimer()
	}
}

// BenchmarkNaiveRescan measures one full-window recomputation.
func BenchmarkNaiveRescan(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			e := NewNaive(window.Count{N: n})
			docs := benchDocs(n, 2000, 50, 5)
			for _, d := range docs {
				if err := e.Process(d); err != nil {
					b.Fatal(err)
				}
			}
			q, err := model.NewQuery(1, 10, []model.QueryTerm{
				{Term: 3, Weight: 0.5}, {Term: 7, Weight: 0.5}, {Term: 11, Weight: 0.5},
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := e.Register(q); err != nil {
				b.Fatal(err)
			}
			st := e.queries[1]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.rescan(st)
			}
		})
	}
}
