// Benchmarks regenerating every figure of the paper's evaluation plus
// the repository's ablations, at bench scale: per-event
// steady-state cost of Process (arrival + expiration + all query
// maintenance), measured with Go's benchmark harness.
//
// Bench scale means 300 standing queries over a 50,000-term dictionary
// (the paper: 1,000 queries over 181,978 terms) so that each
// sub-benchmark warms up in about a second. The full published
// configuration — including the N = 100,000 point at which Naïve stops
// being real-time — is regenerated by `go run ./cmd/itabench -profile
// paper`.
package ita_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"ita"
	"ita/internal/core"
	"ita/internal/corpus"
	"ita/internal/model"
	"ita/internal/vsm"
	"ita/internal/window"
)

const (
	benchQueries = 300
	benchDict    = 50000
	benchK       = 10
	poolSize     = 2048
)

type benchEnv struct {
	eng    core.ServingEngine
	pool   []*model.Document
	clock  time.Time
	nextID model.DocID
}

// newBenchEnv builds an engine at steady state: a pre-generated
// composition pool (document generation stays outside the measured
// loop), a warmed window, and benchQueries registered queries.
func newBenchEnv(b *testing.B, build func(window.Policy) core.ServingEngine, pol window.Policy, queryLen, warm int, weighter vsm.Weighter) *benchEnv {
	b.Helper()
	return newBenchEnvQ(b, build, pol, queryLen, warm, weighter, benchQueries)
}

// newBenchEnvQ is newBenchEnv with an explicit query count, for the
// many-query throughput benchmarks.
func newBenchEnvQ(b *testing.B, build func(window.Policy) core.ServingEngine, pol window.Policy, queryLen, warm int, weighter vsm.Weighter, numQueries int) *benchEnv {
	b.Helper()
	cfg := corpus.WSJConfig()
	cfg.DictSize = benchDict
	synthD, err := corpus.NewSynth(cfg, weighter)
	if err != nil {
		b.Fatal(err)
	}
	qcfg := cfg
	qcfg.Seed = 7777
	synthQ, err := corpus.NewSynth(qcfg, weighter)
	if err != nil {
		b.Fatal(err)
	}

	env := &benchEnv{
		eng:    build(pol),
		pool:   make([]*model.Document, poolSize),
		clock:  time.Unix(0, 0),
		nextID: 1,
	}
	for i := range env.pool {
		env.pool[i] = synthD.Document(0, time.Time{})
	}
	for i := 0; i < warm; i++ {
		if err := env.eng.Process(env.nextDoc()); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < numQueries; i++ {
		if err := env.eng.Register(synthQ.Query(model.QueryID(i+1), benchK, queryLen)); err != nil {
			b.Fatal(err)
		}
	}
	return env
}

// nextDoc reuses pooled compositions under fresh ids and a 5ms-spaced
// clock (the paper's 200 docs/second).
func (env *benchEnv) nextDoc() *model.Document {
	base := env.pool[int(env.nextID)%len(env.pool)]
	env.clock = env.clock.Add(5 * time.Millisecond)
	d := &model.Document{ID: env.nextID, Arrival: env.clock, Postings: base.Postings}
	env.nextID++
	return d
}

func runSteadyState(b *testing.B, env *benchEnv) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := env.eng.Process(env.nextDoc()); err != nil {
			b.Fatal(err)
		}
	}
}

// runSteadyStateEpochs is runSteadyState through the epoch pipeline:
// b.N events processed in epochs of the given size. Per-iteration time
// stays directly comparable with runSteadyState — both report
// time/event.
func runSteadyStateEpochs(b *testing.B, env *benchEnv, epoch int) {
	b.Helper()
	docs := make([]*model.Document, epoch)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := epoch
		if rem := b.N - done; n > rem {
			n = rem
		}
		for i := 0; i < n; i++ {
			docs[i] = env.nextDoc()
		}
		if err := env.eng.ProcessEpoch(docs[:n]); err != nil {
			b.Fatal(err)
		}
		done += n
	}
}

func itaBuild(pol window.Policy) core.ServingEngine   { return core.NewITA(pol) }
func naiveBuild(pol window.Policy) core.ServingEngine { return core.NewNaive(pol) }

// BenchmarkFig3a — processing time vs query length (paper Figure 3(a)):
// N=1000, n ∈ {4, 10, 20, 40}.
func BenchmarkFig3a(b *testing.B) {
	for _, engine := range []struct {
		name  string
		build func(window.Policy) core.ServingEngine
	}{{"Naive", naiveBuild}, {"ITA", itaBuild}} {
		for _, n := range []int{4, 10, 20, 40} {
			b.Run(fmt.Sprintf("%s/n=%d", engine.name, n), func(b *testing.B) {
				env := newBenchEnv(b, engine.build, window.Count{N: 1000}, n, 1000, vsm.Cosine{})
				runSteadyState(b, env)
			})
		}
	}
}

// BenchmarkFig3b — processing time vs window size (paper Figure 3(b)):
// n=10, N ∈ {10, 100, 1000, 10000}. The paper's N=100,000 point, at
// which Naïve saturates the CPU, runs via cmd/itabench -profile paper.
func BenchmarkFig3b(b *testing.B) {
	for _, engine := range []struct {
		name  string
		build func(window.Policy) core.ServingEngine
	}{{"Naive", naiveBuild}, {"ITA", itaBuild}} {
		for _, n := range []int{10, 100, 1000, 10000} {
			b.Run(fmt.Sprintf("%s/N=%d", engine.name, n), func(b *testing.B) {
				env := newBenchEnv(b, engine.build, window.Count{N: n}, 10, n, vsm.Cosine{})
				runSteadyState(b, env)
			})
		}
	}
}

// BenchmarkFig3aTimeWindow — experiment E3: the paper's "results for a
// time-based window are similar" claim; Fig 3(a)'s midpoint with a span
// window covering the same expected 1,000 documents at 200 docs/s.
func BenchmarkFig3aTimeWindow(b *testing.B) {
	span := 5 * time.Second // 1000 docs × 5ms
	for _, engine := range []struct {
		name  string
		build func(window.Policy) core.ServingEngine
	}{{"Naive", naiveBuild}, {"ITA", itaBuild}} {
		b.Run(engine.name+"/n=10", func(b *testing.B) {
			env := newBenchEnv(b, engine.build, window.Span{D: span}, 10, 1000, vsm.Cosine{})
			runSteadyState(b, env)
		})
	}
}

// BenchmarkHeadline — experiment E4: the abstract's "at least an order
// of magnitude faster" configuration (n=10, N=1000), including the
// plain kmax = k baseline.
func BenchmarkHeadline(b *testing.B) {
	engines := []struct {
		name  string
		build func(window.Policy) core.ServingEngine
	}{
		{"NaivePlain", func(pol window.Policy) core.ServingEngine {
			return core.NewNaive(pol, core.WithKmax(func(k int) int { return k }))
		}},
		{"NaiveKmax", naiveBuild},
		{"ITA", itaBuild},
	}
	for _, engine := range engines {
		b.Run(engine.name, func(b *testing.B) {
			env := newBenchEnv(b, engine.build, window.Count{N: 1000}, 10, 1000, vsm.Cosine{})
			runSteadyState(b, env)
		})
	}
}

// BenchmarkAblationProbeOrder — A1: the paper's greedy w_{Q,t}·c_t list
// probing versus the original threshold algorithm's round-robin.
func BenchmarkAblationProbeOrder(b *testing.B) {
	engines := []struct {
		name  string
		build func(window.Policy) core.ServingEngine
	}{
		{"RoundRobin", func(pol window.Policy) core.ServingEngine {
			return core.NewITA(pol, core.WithRoundRobinProbe())
		}},
		{"Greedy", itaBuild},
	}
	for _, engine := range engines {
		b.Run(engine.name, func(b *testing.B) {
			env := newBenchEnv(b, engine.build, window.Count{N: 1000}, 10, 1000, vsm.Cosine{})
			runSteadyState(b, env)
		})
	}
}

// BenchmarkAblationRollup — A2: threshold roll-up on arrivals enabled
// versus disabled.
func BenchmarkAblationRollup(b *testing.B) {
	engines := []struct {
		name  string
		build func(window.Policy) core.ServingEngine
	}{
		{"Disabled", func(pol window.Policy) core.ServingEngine {
			return core.NewITA(pol, core.WithoutRollup())
		}},
		{"Enabled", itaBuild},
	}
	for _, engine := range engines {
		b.Run(engine.name, func(b *testing.B) {
			env := newBenchEnv(b, engine.build, window.Count{N: 1000}, 10, 1000, vsm.Cosine{})
			runSteadyState(b, env)
		})
	}
}

// BenchmarkAblationKmax — A3: the Naïve competitor's view size.
func BenchmarkAblationKmax(b *testing.B) {
	for _, factor := range []int{1, 2, 4} {
		factor := factor
		b.Run(fmt.Sprintf("kmax=%dk", factor), func(b *testing.B) {
			build := func(pol window.Policy) core.ServingEngine {
				return core.NewNaive(pol, core.WithKmax(func(k int) int { return factor * k }))
			}
			env := newBenchEnv(b, build, window.Count{N: 1000}, 10, 1000, vsm.Cosine{})
			runSteadyState(b, env)
		})
	}
}

// BenchmarkShardedThroughput measures steady-state per-event
// cost with a heavy standing-query load (10,000 queries), comparing
// ITA's one-shard default against several shard counts. The two-phase
// shard fan-out parallelizes the
// per-query maintenance that dominates at this scale; on a
// GOMAXPROCS=1 host the fan-out degrades to synchronization overhead,
// so interpret results together with the CPU count.
func BenchmarkShardedThroughput(b *testing.B) {
	const nq = 10000
	engines := []struct {
		name  string
		build func(window.Policy) core.ServingEngine
	}{
		{"Single", itaBuild},
		{"Shards=2", func(pol window.Policy) core.ServingEngine { return core.NewITA(pol, core.WithShards(2)) }},
		{"Shards=4", func(pol window.Policy) core.ServingEngine { return core.NewITA(pol, core.WithShards(4)) }},
		{"Shards=8", func(pol window.Policy) core.ServingEngine { return core.NewITA(pol, core.WithShards(8)) }},
	}
	for _, engine := range engines {
		b.Run(engine.name, func(b *testing.B) {
			env := newBenchEnvQ(b, engine.build, window.Count{N: 1000}, 10, 1000, vsm.Cosine{}, nq)
			if c, ok := env.eng.(interface{ Close() error }); ok {
				defer c.Close()
			}
			runSteadyState(b, env)
		})
	}
}

// BenchmarkBatchedThroughput measures steady-state per-event
// cost of the epoch pipeline at several epoch sizes B, on the same
// heavy standing-query load as BenchmarkShardedThroughput. B=1 is an
// epoch per document; larger epochs amortize index mutation,
// batch-wide affected-query deduplication (net-effect maintenance: at
// most one refill and one roll-up per query per epoch) and, for a
// sharded ITA, the two-phase fan-out barrier.
func BenchmarkBatchedThroughput(b *testing.B) {
	const nq = 10000
	engines := []struct {
		name  string
		build func(window.Policy) core.ServingEngine
	}{
		{"Single", itaBuild},
		{"Shards=4", func(pol window.Policy) core.ServingEngine { return core.NewITA(pol, core.WithShards(4)) }},
	}
	for _, engine := range engines {
		for _, epoch := range []int{1, 8, 64, 256} {
			b.Run(fmt.Sprintf("%s/B=%d", engine.name, epoch), func(b *testing.B) {
				env := newBenchEnvQ(b, engine.build, window.Count{N: 1000}, 10, 1000, vsm.Cosine{}, nq)
				if c, ok := env.eng.(interface{ Close() error }); ok {
					defer c.Close()
				}
				if epoch == 1 {
					runSteadyState(b, env)
				} else {
					runSteadyStateEpochs(b, env, epoch)
				}
			})
		}
	}
}

// BenchmarkAblationScorer — A4 variant: ITA under cosine versus Okapi
// impact weights (the paper's "applicable to other measures" claim).
func BenchmarkAblationScorer(b *testing.B) {
	for _, scorer := range []struct {
		name string
		w    vsm.Weighter
	}{
		{"Cosine", vsm.Cosine{}},
		{"Okapi", vsm.NewOkapi(300)},
	} {
		b.Run(scorer.name, func(b *testing.B) {
			env := newBenchEnv(b, itaBuild, window.Count{N: 1000}, 10, 1000, scorer.w)
			runSteadyState(b, env)
		})
	}
}

// BenchmarkPublishedReads measures the cost of the wait-free read
// path. "idle" measures the pure read: one atomic load of the published
// state plus one caller-owned copy of the frozen view — no engine lock,
// no allocation under any lock. "under-ingest" runs the same read while
// a writer goroutine saturates the write path with 64-document epochs;
// before the published views this configuration collapsed, since every
// Results call queued behind the ingest mutex. The benchmark's
// read_p50_us metric measures the same read end to end.
func BenchmarkPublishedReads(b *testing.B) {
	for _, mode := range []string{"idle", "under-ingest"} {
		b.Run(mode, func(b *testing.B) {
			eng, err := ita.New(ita.WithCountWindow(1000))
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			feed := ita.NewNewsFeed(1)
			start := time.Now()
			for i := 0; i < 1000; i++ {
				_, text := feed.Mixed()
				if _, err := eng.IngestText(text, start.Add(time.Duration(i)*time.Millisecond)); err != nil {
					b.Fatal(err)
				}
			}
			var qids []ita.QueryID
			for _, topic := range ita.NewsTopics() {
				id, err := eng.Register(topic, benchK)
				if err != nil {
					b.Fatal(err)
				}
				qids = append(qids, id)
			}

			stop := make(chan struct{})
			var wg sync.WaitGroup
			if mode == "under-ingest" {
				wg.Add(1)
				go func() {
					defer wg.Done()
					clock := start.Add(time.Second)
					batch := make([]ita.TimedText, 64)
					for {
						select {
						case <-stop:
							return
						default:
						}
						for j := range batch {
							_, text := feed.Mixed()
							clock = clock.Add(time.Millisecond)
							batch[j] = ita.TimedText{Text: text, At: clock}
						}
						if _, err := eng.IngestBatch(batch); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					if res := eng.Results(qids[i%len(qids)]); res == nil {
						b.Error("known query returned nil")
						return
					}
					i++
				}
			})
			b.StopTimer()
			close(stop)
			wg.Wait()
		})
	}
}
