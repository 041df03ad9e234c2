package harness

import (
	"testing"
	"time"

	"ita/internal/core"
	"ita/internal/corpus"
	"ita/internal/model"
	"ita/internal/stream"
	"ita/internal/vsm"
	"ita/internal/window"
)

// TestScaleIngestCliffGuard is the CI ingest-cliff guard: steady-state
// ingest throughput at 100k standing queries may not fall below 0.35×
// the 10k-query rate (typical measured ratio 0.6–0.8; the slack
// absorbs GC noise on the fast 10k side). Before the θ-ordered probe
// index, a 10× query-count step cost ~17× in ingest throughput (76 →
// 4.4 events/s) because every probe visited every query registered on
// a term; with θ-ordering plus admit-list expiry the per-event cost
// tracks the queries a document can actually affect, and the curve must
// stay near flat. Queries draw their terms uniformly from the
// dictionary, the paper's continuous-query workload. It runs in short
// mode by design, like TestScaleSmoke100k.
func TestScaleIngestCliffGuard(t *testing.T) {
	if !testing.Short() {
		t.Skip("ingest-cliff guard runs in short mode only (go test -short -run TestScaleIngestCliffGuard)")
	}
	const (
		win      = 32768
		queryLen = 4
		k        = 10
		events   = 2000
	)
	cfg := QuickProfile().corpusCfg()
	rate := func(nq int) float64 {
		qSynth, err := corpus.NewSynth(withSeed(cfg, 7777), vsm.Cosine{})
		if err != nil {
			t.Fatal(err)
		}
		dSynth, err := corpus.NewSynth(cfg, vsm.Cosine{})
		if err != nil {
			t.Fatal(err)
		}
		str := stream.New(dSynth.Document, 200, cfg.Seed+1, time.Unix(0, 0))
		eng := core.NewITA(window.Count{N: win})
		for i := 0; i < win; i++ {
			if err := eng.Process(str.Next()); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < nq; i++ {
			if err := eng.Register(qSynth.Query(model.QueryID(i+1), k, queryLen)); err != nil {
				t.Fatalf("register %d: %v", i+1, err)
			}
		}
		// Pre-generate the measured documents so the guard times engine
		// work under a stopwatch that both query counts share equally.
		docs := make([]*model.Document, events)
		for i := range docs {
			docs[i] = str.Next()
		}
		start := time.Now()
		for _, d := range docs {
			if err := eng.Process(d); err != nil {
				t.Fatal(err)
			}
		}
		return float64(events) / time.Since(start).Seconds()
	}

	small := rate(10_000)
	large := rate(100_000)
	t.Logf("ingest events/s: %.1f at 10k queries, %.1f at 100k (ratio %.2f)", small, large, large/small)
	if large < 0.35*small {
		t.Fatalf("ingest cliff: %.1f events/s at 100k queries vs %.1f at 10k (ratio %.2f, want >= 0.35)",
			large, small, large/small)
	}
}
