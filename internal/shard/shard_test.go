package shard_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"ita/internal/core"
	"ita/internal/model"
	"ita/internal/shard"
	"ita/internal/window"
)

// gen builds small random documents and queries over a narrow vocabulary
// with quantized weights, provoking score ties, shared terms and top-k
// churn — the same adversarial shape as core's equivalence suite.
type gen struct {
	r      *rand.Rand
	nextID model.DocID
	seq    int
	vocab  int
}

func newGen(seed int64, vocab int) *gen {
	return &gen{r: rand.New(rand.NewSource(seed)), nextID: 1, vocab: vocab}
}

func (g *gen) doc(t *testing.T) *model.Document {
	t.Helper()
	nTerms := 1 + g.r.Intn(5)
	used := map[model.TermID]bool{}
	var ps []model.Posting
	for len(ps) < nTerms {
		term := model.TermID(g.r.Intn(g.vocab))
		if used[term] {
			continue
		}
		used[term] = true
		w := float64(1+g.r.Intn(8)) / 16
		ps = append(ps, model.Posting{Term: term, Weight: w})
	}
	d, err := model.NewDocument(g.nextID, time.Unix(0, 0).Add(time.Duration(g.seq)*5*time.Millisecond), ps)
	if err != nil {
		t.Fatal(err)
	}
	g.nextID++
	g.seq++
	return d
}

func (g *gen) query(t *testing.T, id model.QueryID) *model.Query {
	t.Helper()
	n := 1 + g.r.Intn(4)
	used := map[model.TermID]bool{}
	var ts []model.QueryTerm
	for len(ts) < n {
		term := model.TermID(g.r.Intn(g.vocab))
		if used[term] {
			continue
		}
		used[term] = true
		ts = append(ts, model.QueryTerm{Term: term, Weight: float64(1+g.r.Intn(4)) / 4})
	}
	q, err := model.NewQuery(id, 1+g.r.Intn(5), ts)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

var shardCounts = []int{1, 2, 8}

// TestShardedMatchesITAAndOracle drives the sharded engine (S ∈ {1, 2, 8})
// through randomized arrival/expiration/register/unregister streams in
// lock-step with the single-threaded ITA and the brute-force oracle.
// The sharded results must be *identical* to single-threaded ITA's (same
// documents, same scores, same order — the equivalence claim of the
// two-phase design), must agree with the oracle, and the merged shard
// stats must equal the single-threaded counters. Run under -race this is
// also the concurrency-safety test for the fan-out.
func TestShardedMatchesITAAndOracle(t *testing.T) {
	configs := []struct {
		seed  int64
		vocab int
		win   int
		docs  int
	}{
		{seed: 11, vocab: 10, win: 8, docs: 150}, // tiny vocab: heavy overlap, ties
		{seed: 12, vocab: 25, win: 15, docs: 200},
		{seed: 13, vocab: 100, win: 30, docs: 250}, // sparse matches
		{seed: 14, vocab: 6, win: 5, docs: 150},    // extreme churn
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(fmt.Sprintf("seed%d_v%d_w%d", cfg.seed, cfg.vocab, cfg.win), func(t *testing.T) {
			g := newGen(cfg.seed, cfg.vocab)
			pol := window.Count{N: cfg.win}

			oracle := core.NewOracle(pol)
			single := core.NewITA(pol)
			var sharded []*shard.Engine
			for _, s := range shardCounts {
				eng := shard.New(pol, s)
				defer eng.Close()
				sharded = append(sharded, eng)
			}

			var queries []*model.Query
			for i := 0; i < 8; i++ {
				queries = append(queries, g.query(t, model.QueryID(i+1)))
			}
			register := func(q *model.Query) {
				if err := oracle.Register(q); err != nil {
					t.Fatal(err)
				}
				if err := single.Register(q); err != nil {
					t.Fatal(err)
				}
				for _, eng := range sharded {
					if err := eng.Register(q); err != nil {
						t.Fatalf("S=%d: %v", eng.Shards(), err)
					}
				}
			}
			for _, q := range queries[:4] {
				register(q)
			}

			for step := 0; step < cfg.docs; step++ {
				if step == cfg.docs/2 {
					for _, q := range queries[4:] {
						register(q)
					}
				}
				if step == 3*cfg.docs/4 {
					oracle.Unregister(queries[1].ID)
					single.Unregister(queries[1].ID)
					for _, eng := range sharded {
						if !eng.Unregister(queries[1].ID) {
							t.Fatalf("S=%d: Unregister(%d) = false", eng.Shards(), queries[1].ID)
						}
					}
				}
				d := g.doc(t)
				if err := oracle.Process(d); err != nil {
					t.Fatal(err)
				}
				if err := single.Process(d); err != nil {
					t.Fatal(err)
				}
				for _, eng := range sharded {
					if err := eng.Process(d); err != nil {
						t.Fatalf("S=%d: %v", eng.Shards(), err)
					}
					if err := eng.CheckInvariants(); err != nil {
						t.Fatalf("step %d S=%d: %v", step, eng.Shards(), err)
					}
				}
				for _, q := range queries {
					oracleRes, known := oracle.Result(q.ID)
					singleRes, sKnown := single.Result(q.ID)
					if known != sKnown {
						t.Fatalf("step %d query %d: ita known=%v oracle known=%v", step, q.ID, sKnown, known)
					}
					for _, eng := range sharded {
						got, gKnown := eng.Result(q.ID)
						if gKnown != known {
							t.Fatalf("step %d S=%d query %d: known=%v, want %v", step, eng.Shards(), q.ID, gKnown, known)
						}
						if !known {
							continue
						}
						// Identical to the single-threaded ITA, score-equal
						// to the oracle.
						if !reflect.DeepEqual(got, singleRes) {
							t.Fatalf("step %d S=%d query %d:\nsharded %v\nita     %v", step, eng.Shards(), q.ID, got, singleRes)
						}
						if len(got) != len(oracleRes) {
							t.Fatalf("step %d S=%d query %d: %d results, oracle %d", step, eng.Shards(), q.ID, len(got), len(oracleRes))
						}
						for i := range got {
							if got[i].Score != oracleRes[i].Score {
								t.Fatalf("step %d S=%d query %d pos %d: score %g, oracle %g", step, eng.Shards(), q.ID, i, got[i].Score, oracleRes[i].Score)
							}
						}
					}
				}
			}

			want := *single.Stats()
			for _, eng := range sharded {
				if got := *eng.Stats(); got != want {
					t.Fatalf("S=%d merged stats diverge:\nsharded %+v\nita     %+v", eng.Shards(), got, want)
				}
			}
		})
	}
}

// TestShardedTimeWindow repeats the agreement check with a time-based
// window and bursty arrival times, exercising multi-document expirations
// per event and explicit ExpireUntil advances with no arrival.
func TestShardedTimeWindow(t *testing.T) {
	g := newGen(77, 15)
	span := 40 * time.Millisecond
	pol := window.Span{D: span}

	single := core.NewITA(pol)
	var sharded []*shard.Engine
	for _, s := range shardCounts {
		eng := shard.New(pol, s)
		defer eng.Close()
		sharded = append(sharded, eng)
	}

	var queries []*model.Query
	for i := 0; i < 5; i++ {
		q := g.query(t, model.QueryID(i+1))
		queries = append(queries, q)
		if err := single.Register(q); err != nil {
			t.Fatal(err)
		}
		for _, eng := range sharded {
			if err := eng.Register(q); err != nil {
				t.Fatal(err)
			}
		}
	}

	r := rand.New(rand.NewSource(7))
	now := time.Unix(0, 0)
	for step := 0; step < 200; step++ {
		gap := time.Duration(r.Intn(10)) * time.Millisecond
		if r.Intn(10) == 0 {
			gap = span + 10*time.Millisecond
		}
		now = now.Add(gap)
		if r.Intn(8) == 0 {
			// Clock advance with no arrival.
			single.ExpireUntil(now)
			for _, eng := range sharded {
				eng.ExpireUntil(now)
			}
		} else {
			base := g.doc(t)
			d, err := model.NewDocument(base.ID, now, base.Postings)
			if err != nil {
				t.Fatal(err)
			}
			if err := single.Process(d); err != nil {
				t.Fatal(err)
			}
			for _, eng := range sharded {
				if err := eng.Process(d); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, eng := range sharded {
			if err := eng.CheckInvariants(); err != nil {
				t.Fatalf("step %d S=%d: %v", step, eng.Shards(), err)
			}
			for _, q := range queries {
				want, _ := single.Result(q.ID)
				got, _ := eng.Result(q.ID)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d S=%d query %d:\nsharded %v\nita     %v", step, eng.Shards(), q.ID, got, want)
				}
			}
		}
	}
}

// TestShardedBatch checks one 60-document epoch against 60 epochs of
// one: the results must match, and so must the stream counters.
func TestShardedBatch(t *testing.T) {
	pol := window.Count{N: 20}
	a := shard.New(pol, 4)
	defer a.Close()
	b := shard.New(pol, 4)
	defer b.Close()

	ga, gb := newGen(5, 12), newGen(5, 12)
	for i := 0; i < 5; i++ {
		qa, qb := ga.query(t, model.QueryID(i+1)), gb.query(t, model.QueryID(i+1))
		if err := a.Register(qa); err != nil {
			t.Fatal(err)
		}
		if err := b.Register(qb); err != nil {
			t.Fatal(err)
		}
	}
	var batch []*model.Document
	for i := 0; i < 60; i++ {
		da, db := ga.doc(t), gb.doc(t)
		if err := a.Process(da); err != nil {
			t.Fatal(err)
		}
		batch = append(batch, db)
	}
	if err := b.ProcessEpoch(batch); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		ra, _ := a.Result(model.QueryID(i))
		rb, _ := b.Result(model.QueryID(i))
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("query %d: batch %v, loop %v", i, rb, ra)
		}
	}
	sa, sb := a.Stats(), b.Stats()
	if sa.Arrivals != sb.Arrivals || sa.Expirations != sb.Expirations || sa.Epochs != 60 || sb.Epochs != 1 {
		t.Fatalf("stream counters: loop %+v, epoch %+v", *sa, *sb)
	}
}

// TestShardedErrors covers duplicate registration, duplicate documents
// and unknown-query lookups.
func TestShardedErrors(t *testing.T) {
	eng := shard.New(window.Count{N: 4}, 2)
	defer eng.Close()

	q, err := model.NewQuery(1, 2, []model.QueryTerm{{Term: 1, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Register(q); err != nil {
		t.Fatal(err)
	}
	if err := eng.Register(q); err == nil {
		t.Fatal("duplicate Register succeeded")
	}
	if _, ok := eng.Result(99); ok {
		t.Fatal("Result(99) reported known")
	}
	if eng.Unregister(99) {
		t.Fatal("Unregister(99) returned true")
	}
	d, err := model.NewDocument(1, time.Unix(0, 0), []model.Posting{{Term: 1, Weight: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Process(d); err != nil {
		t.Fatal(err)
	}
	if err := eng.Process(d); err == nil {
		t.Fatal("duplicate Process succeeded")
	}
	if res, ok := eng.Result(1); !ok || len(res) != 1 {
		t.Fatalf("Result(1) = %v, %v", res, ok)
	}
	if eng.Queries() != 1 || eng.WindowLen() != 1 {
		t.Fatalf("Queries=%d WindowLen=%d", eng.Queries(), eng.WindowLen())
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// TestAdmitListsFreedOnEmptyShards: a shard whose last query leaves is
// never fanned out to again, so it must drop its documents' admit lists
// at that moment. After every query is gone and the window has turned
// over, the query-state gauge must match an engine that held the same
// queries but never saw a document.
func TestAdmitListsFreedOnEmptyShards(t *testing.T) {
	const win = 50
	run := func(docs bool) uint64 {
		e := shard.New(window.Count{N: win}, 4)
		defer e.Close()
		g := newGen(27, 40)
		ingest := func(n int) {
			for i := 0; i < n; i++ {
				d := g.doc(t)
				if !docs {
					continue
				}
				if err := e.Process(d); err != nil {
					t.Fatal(err)
				}
			}
		}
		ingest(win)
		for id := model.QueryID(1); id <= 30; id++ {
			if err := e.Register(g.query(t, id)); err != nil {
				t.Fatal(err)
			}
		}
		ingest(win)
		for id := model.QueryID(1); id <= 30; id++ {
			e.Unregister(id)
		}
		ingest(4 * win)
		return e.MemoryUsage().QueryStateBytes
	}
	if got, want := run(true), run(false); got != want {
		t.Fatalf("QueryStateBytes with no queries = %d, want %d (stale admit lists)", got, want)
	}
}
