package harness

import (
	"runtime"
	"testing"
	"time"

	"ita/internal/core"
	"ita/internal/corpus"
	"ita/internal/model"
	"ita/internal/stream"
	"ita/internal/vsm"
	"ita/internal/window"
)

// TestScaleSmoke100k is the CI scale smoke: 100,000 standing queries on
// a two-shard ITA, driven through the full dense-id life cycle —
// register, ingest, unregister half, re-register into the freed slots,
// ingest again — with a brute-force equivalence spot-check at the end.
// The registration step also keeps the dense layout's memory claim
// live: the forced-GC heap delta around registering the 100,000
// prebuilt queries must stay at or under maxBytesPerQuery (the dense
// layout measures about 1,700 B/query here; the dense-arena and
// pointer-map layouts it replaced recorded 4,537 and 11,584). It runs
// in short mode by design (CI invokes it directly).
func TestScaleSmoke100k(t *testing.T) {
	if !testing.Short() {
		// ~2 CPU-minutes: far too heavy to ride along in the race-enabled
		// full suite. CI runs it as its own short-mode step.
		t.Skip("scale smoke runs in short mode only (go test -short -run TestScaleSmoke100k)")
	}
	const (
		nq               = 100_000
		win              = 128
		queryLen         = 4
		k                = 5
		maxBytesPerQuery = 3000
	)
	cfg := QuickProfile().corpusCfg()
	qSynth, err := corpus.NewSynth(withSeed(cfg, 7777), vsm.Cosine{})
	if err != nil {
		t.Fatal(err)
	}
	dSynth, err := corpus.NewSynth(cfg, vsm.Cosine{})
	if err != nil {
		t.Fatal(err)
	}
	str := stream.New(dSynth.Document, 200, cfg.Seed+1, time.Unix(0, 0))

	eng := core.NewITA(window.Count{N: win}, core.WithShards(2))
	defer eng.Close()
	for i := 0; i < win; i++ {
		if err := eng.Process(str.Next()); err != nil {
			t.Fatal(err)
		}
	}
	queries := make([]*model.Query, nq)
	for i := range queries {
		queries[i] = qSynth.PopularQuery(model.QueryID(i+1), k, queryLen)
	}
	before := heapAlloc()
	for i, q := range queries {
		if err := eng.Register(q); err != nil {
			t.Fatalf("register %d: %v", i+1, err)
		}
	}
	after := heapAlloc()
	runtime.KeepAlive(queries)
	perQuery := (float64(after) - float64(before)) / nq
	t.Logf("engine heap: %.0f B/query over %d registered queries", perQuery, nq)
	if perQuery > maxBytesPerQuery {
		t.Fatalf("engine heap %.0f B/query, want <= %d", perQuery, maxBytesPerQuery)
	}
	if got := eng.Queries(); got != nq {
		t.Fatalf("Queries = %d, want %d", got, nq)
	}

	ingest := func(n int) {
		t.Helper()
		docs := make([]*model.Document, n)
		for i := range docs {
			docs[i] = str.Next()
		}
		if err := eng.ProcessEpoch(docs); err != nil {
			t.Fatal(err)
		}
	}
	ingest(48)

	// Unregister every other query: 50k dense slots hit the free list.
	for id := model.QueryID(1); id <= nq; id += 2 {
		if !eng.Unregister(id) {
			t.Fatalf("unregister %d reported unknown", id)
		}
	}
	// Re-register fresh external ids into the freed slots.
	const reborn = 25_000
	for i := 0; i < reborn; i++ {
		id := model.QueryID(nq + 1 + i)
		if err := eng.Register(qSynth.PopularQuery(id, k, queryLen)); err != nil {
			t.Fatalf("re-register %d: %v", id, err)
		}
	}
	ingest(48)
	if got, want := eng.Queries(), nq/2+reborn; got != want {
		t.Fatalf("Queries = %d, want %d", got, want)
	}

	// Equivalence spot-check against a brute-force scan of the live
	// window, across survivors, freed ids and re-registered ids.
	var docs []*model.Document
	eng.EachDoc(func(d *model.Document) { docs = append(docs, d) })
	if len(docs) != win {
		t.Fatalf("window holds %d docs, want %d", len(docs), win)
	}
	bruteForce := func(q *model.Query) []model.ScoredDoc {
		var all []model.ScoredDoc
		for _, d := range docs {
			if s := model.Score(q, d); s > 0 {
				all = append(all, model.ScoredDoc{Doc: d.ID, Score: s})
			}
		}
		model.SortScored(all)
		if len(all) > q.K {
			all = all[:q.K]
		}
		return all
	}
	queryByID := make(map[model.QueryID]*model.Query)
	eng.EachQuery(func(q *model.Query) { queryByID[q.ID] = q })
	checked := 0
	for id := model.QueryID(2); id <= nq+reborn; id += 3571 { // scattered sample
		q, live := queryByID[id]
		got, ok := eng.Result(id)
		if !live {
			if ok {
				t.Fatalf("dead query %d still served %v", id, got)
			}
			continue
		}
		if !ok {
			t.Fatalf("live query %d has no result", id)
		}
		want := bruteForce(q)
		if len(got) != len(want) {
			t.Fatalf("query %d: got %d results, brute force %d\n got %v\nwant %v", id, len(got), len(want), got, want)
		}
		for i := range got {
			// Compare by score only at the k-th tie group boundary; the
			// engine's answer must be score-identical (any member of a
			// tie at the k-th score is a correct top-k).
			if got[i].Score != want[i].Score {
				t.Fatalf("query %d: rank %d: score %g, brute force %g", id, i, got[i].Score, want[i].Score)
			}
			if got[i].Doc != want[i].Doc && (i == 0 || got[i].Score != got[i-1].Score) &&
				(i+1 == len(got) || got[i].Score != want[i+1].Score) {
				t.Fatalf("query %d: rank %d: doc %d, brute force %d (not a tie)", id, i, got[i].Doc, want[i].Doc)
			}
		}
		checked++
	}
	if checked < 20 {
		t.Fatalf("spot-check covered only %d queries", checked)
	}
	// Every unregistered id must have gone dark.
	for id := model.QueryID(1); id <= nq; id += 9973 {
		if id%2 == 1 {
			if _, ok := eng.Result(id); ok {
				t.Fatalf("unregistered query %d still has a result", id)
			}
		}
	}
}

// heapAlloc returns the live heap after settling the collector. Two GC
// cycles let finalizer-freed memory actually return to the heap stats.
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
