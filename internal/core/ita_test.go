package core

import (
	"testing"
	"time"

	"ita/internal/invindex"
	"ita/internal/model"
	"ita/internal/window"
)

// Term ids for the narrative tests. A and B are the query terms (the
// paper's "tower" and "white"); C is background noise.
const (
	termA model.TermID = 1
	termB model.TermID = 2
	termC model.TermID = 3
)

func doc(t *testing.T, id model.DocID, seq int, ps ...model.Posting) *model.Document {
	t.Helper()
	arr := time.Unix(0, 0).Add(time.Duration(seq) * 5 * time.Millisecond)
	d, err := model.NewDocument(id, arr, ps)
	if err != nil {
		t.Fatalf("doc %d: %v", id, err)
	}
	return d
}

func query(t *testing.T, id model.QueryID, k int, terms ...model.QueryTerm) *model.Query {
	t.Helper()
	q, err := model.NewQuery(id, k, terms)
	if err != nil {
		t.Fatalf("query %d: %v", id, err)
	}
	return q
}

func wantResult(t *testing.T, e Engine, id model.QueryID, want []model.ScoredDoc) {
	t.Helper()
	got, ok := e.Result(id)
	if !ok {
		t.Fatalf("%s: query %d unknown", e.Name(), id)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: result %v, want %v", e.Name(), got, want)
	}
	for i := range want {
		if got[i].Doc != want[i].Doc || !approx(got[i].Score, want[i].Score) {
			t.Fatalf("%s: result[%d] = {%d %g}, want {%d %g} (full: %v)",
				e.Name(), i, got[i].Doc, got[i].Score, want[i].Doc, want[i].Score, got)
		}
	}
}

func approx(a, b float64) bool {
	d := a - b
	return d < 1e-12 && d > -1e-12
}

func mustCheck(t *testing.T, e *ITA) {
	t.Helper()
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// TestITANarrative walks the engine through the full floor lifecycle
// with self-consistent numbers: an initial top-k rebuild that sets the
// floor and purges the sub-floor tail, an arrival that enters the
// top-2, a second arrival that trips the raise margin (the roll-up
// analog of §III-B), a sub-bound arrival the probe index must skip
// without scoring, and expirations exercising the non-member fast path,
// the member-removal-without-rebuild path, and the refill rebuild. All
// intermediate floors, R contents, results and counters are pinned.
// Margins (1,1) make the rebuild target k+1=3 and the raise trigger
// |R| > 4.
func TestITANarrative(t *testing.T) {
	e := NewITA(window.Count{N: 8}, WithFloorMargins(1, 1))
	// Initial window: impact lists
	//   L_A: (0.10,d1) (0.08,d2) (0.07,d5)
	//   L_B: (0.08,d3) (0.06,d2) (0.04,d4)
	for _, d := range []*model.Document{
		doc(t, 1, 0, model.Posting{Term: termA, Weight: 0.10}),
		doc(t, 2, 1, model.Posting{Term: termA, Weight: 0.08}, model.Posting{Term: termB, Weight: 0.06}),
		doc(t, 3, 2, model.Posting{Term: termB, Weight: 0.08}),
		doc(t, 4, 3, model.Posting{Term: termB, Weight: 0.04}),
		doc(t, 5, 4, model.Posting{Term: termA, Weight: 0.07}),
	} {
		if err := e.Process(d); err != nil {
			t.Fatal(err)
		}
	}
	q := query(t, 1, 2,
		model.QueryTerm{Term: termA, Weight: 0.5},
		model.QueryTerm{Term: termB, Weight: 1.0})
	if err := e.Register(q); err != nil {
		t.Fatal(err)
	}
	mustCheck(t, e)

	// Initial rebuild, greedy w·c order: reads d3 (S=0.08), d2 (S=0.10),
	// d1 (S=0.05), d2 again (Contains-skip), d4 (S=0.04); then τ =
	// 0.5·0.07 = 0.035 ≤ Kth(3) = 0.05 stops the scan with d5 unread.
	// F = Kth(3) = 0.05 purges d4.
	wantResult(t, e, 1, []model.ScoredDoc{{Doc: 2, Score: 0.10}, {Doc: 3, Score: 0.08}})
	qs := e.shards[0].m.lookup(1)
	if qs.r.Len() != 3 {
		t.Fatalf("|R| = %d, want 3 (d2, d3, d1)", qs.r.Len())
	}
	if !approx(qs.f, 0.05) {
		t.Fatalf("floor = %g, want 0.05", qs.f)
	}
	if e.Stats().SearchReads != 5 || e.Stats().ScoreComputations != 4 {
		t.Fatalf("search reads/scores = %d/%d, want 5/4",
			e.Stats().SearchReads, e.Stats().ScoreComputations)
	}
	if e.Stats().RollupDrops != 1 {
		t.Fatalf("rollup drops = %d, want 1 (d4 purged)", e.Stats().RollupDrops)
	}

	// Arrival of d9 (A:0.16, B:0.05): S(d9)=0.13 enters the top-2.
	// |R| grows to 4, which does not pass the raise trigger.
	if err := e.Process(doc(t, 9, 5,
		model.Posting{Term: termA, Weight: 0.16},
		model.Posting{Term: termB, Weight: 0.05})); err != nil {
		t.Fatal(err)
	}
	mustCheck(t, e)
	wantResult(t, e, 1, []model.ScoredDoc{{Doc: 9, Score: 0.13}, {Doc: 2, Score: 0.10}})
	if qs.r.Len() != 4 || e.Stats().RollupSteps != 0 {
		t.Fatalf("|R| = %d, rollup steps = %d; want 4, 0", qs.r.Len(), e.Stats().RollupSteps)
	}

	// Arrival of d10 (A:0.12): S(d10)=0.06 ≥ F joins R, |R|=5 > 4 trips
	// the raise: F = Kth(3) of {.13,.10,.08,.06,.05} = 0.08, purging d1
	// (0.05) and d10 (0.06) right back out.
	if err := e.Process(doc(t, 10, 6, model.Posting{Term: termA, Weight: 0.12})); err != nil {
		t.Fatal(err)
	}
	mustCheck(t, e)
	wantResult(t, e, 1, []model.ScoredDoc{{Doc: 9, Score: 0.13}, {Doc: 2, Score: 0.10}})
	if !approx(qs.f, 0.08) {
		t.Fatalf("floor after raise = %g, want 0.08", qs.f)
	}
	if e.Stats().RollupSteps != 1 || e.Stats().RollupDrops != 3 {
		t.Fatalf("rollup steps/drops = %d/%d, want 1/3", e.Stats().RollupSteps, e.Stats().RollupDrops)
	}
	if qs.r.Len() != 3 {
		t.Fatalf("|R| = %d, want 3 (d9, d2, d3)", qs.r.Len())
	}

	// Arrival of d11 (A:0.05): its contribution is below the A bound
	// F·fac_A ≈ 0.08, so the θ-ordered probe must skip the query without
	// touching it — no probe hit, no score computation.
	probes, scores := e.Stats().ProbeHits, e.Stats().ScoreComputations
	if err := e.Process(doc(t, 11, 7, model.Posting{Term: termA, Weight: 0.05})); err != nil {
		t.Fatal(err)
	}
	mustCheck(t, e)
	if e.Stats().ProbeHits != probes || e.Stats().ScoreComputations != scores {
		t.Fatalf("probe hits/scores moved to %d/%d on a sub-bound arrival (were %d/%d)",
			e.Stats().ProbeHits, e.Stats().ScoreComputations, probes, scores)
	}
	wantResult(t, e, 1, []model.ScoredDoc{{Doc: 9, Score: 0.13}, {Doc: 2, Score: 0.10}})

	// Window is at 8: the next arrival expires d1, which was purged at
	// the raise. Its A weight still beats the bound, so the probe finds
	// the query, but the R removal is a miss and nothing rebuilds.
	if err := e.Process(doc(t, 12, 8, model.Posting{Term: termC, Weight: 0.5})); err != nil {
		t.Fatal(err)
	}
	mustCheck(t, e)
	if e.Stats().Refills != 0 {
		t.Fatal("expiring a non-member must not trigger a refill")
	}
	wantResult(t, e, 1, []model.ScoredDoc{{Doc: 9, Score: 0.13}, {Doc: 2, Score: 0.10}})

	// Next arrival expires d2 — ranked 2nd — but |R| drops only to 2 = k,
	// so the margin absorbs it with no rebuild.
	if err := e.Process(doc(t, 13, 9, model.Posting{Term: termC, Weight: 0.5})); err != nil {
		t.Fatal(err)
	}
	mustCheck(t, e)
	if e.Stats().Refills != 0 {
		t.Fatal("an expiration absorbed by the margin must not trigger a refill")
	}
	wantResult(t, e, 1, []model.ScoredDoc{{Doc: 9, Score: 0.13}, {Doc: 3, Score: 0.08}})

	// Next arrival expires d3: |R|=1 < k forces the refill rebuild. The
	// scan keeps d9 (Contains-skip), re-admits d10 (0.06) and d4 (0.04),
	// and stops with d5 and d11 unread (τ=0.035 ≤ Kth(3)=0.04); the
	// floor comes back down to 0.04.
	if err := e.Process(doc(t, 14, 10, model.Posting{Term: termC, Weight: 0.5})); err != nil {
		t.Fatal(err)
	}
	mustCheck(t, e)
	if e.Stats().Refills != 1 {
		t.Fatalf("refills = %d, want 1", e.Stats().Refills)
	}
	wantResult(t, e, 1, []model.ScoredDoc{{Doc: 9, Score: 0.13}, {Doc: 10, Score: 0.06}})
	if !approx(qs.f, 0.04) {
		t.Fatalf("floor after refill = %g, want 0.04", qs.f)
	}
	if qs.r.Len() != 3 {
		t.Fatalf("|R| = %d, want 3 (d9, d10, d4)", qs.r.Len())
	}
}

func TestITAInitialSearchKeepsMargin(t *testing.T) {
	// The initial rebuild must retain the margin of below-top-k
	// documents in R; without it every near-top expiration would force
	// a rebuild.
	e := NewITA(window.Count{N: 100})
	for i := 1; i <= 10; i++ {
		w := float64(i) / 20 // 0.05 .. 0.50
		if err := e.Process(doc(t, model.DocID(i), i, model.Posting{Term: termA, Weight: w})); err != nil {
			t.Fatal(err)
		}
	}
	q := query(t, 1, 3, model.QueryTerm{Term: termA, Weight: 1})
	if err := e.Register(q); err != nil {
		t.Fatal(err)
	}
	mustCheck(t, e)
	// Ten matches exceed the register target k+4, so the scan stops
	// there: R holds the target count — four below-top-k members —
	// with the floor at the target-th score. Register searches
	// shallower than a refill (k+tgtMargin) does.
	wantResult(t, e, 1, []model.ScoredDoc{{Doc: 10, Score: 0.50}, {Doc: 9, Score: 0.45}, {Doc: 8, Score: 0.40}})
	qs := e.shards[0].m.lookup(1)
	const target = 3 + 4
	if qs.r.Len() != target || qs.f <= 0 || qs.f != qs.r.Kth(target) {
		t.Fatalf("|R| = %d floor = %g, want %d members with the floor at the %d-th score %g",
			qs.r.Len(), qs.f, target, target, qs.r.Kth(target))
	}
}

// TestRefillSearchesDeeperThanRegister pins the default depths: a query
// registers at k+4, an expiry that drains R below k refills it to k+12
// (or to every match, at floor 0), and arrivals then grow R without a
// floor raise until it passes k+20, when the floor rises back to the
// (k+12)-th score. Query A's term is in all 40 documents, query B's in
// the first 12; document i weighs (41-i)/100 for both, so the oldest
// score best and expiring them drains both results.
func TestRefillSearchesDeeperThanRegister(t *testing.T) {
	const k = 3
	index := invindex.NewIndex(0)
	var stats Stats
	m := NewMaintainer(index, &stats, MaintainerConfig{})
	insert := func(d *model.Document) {
		t.Helper()
		if err := index.Insert(d); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 40; i++ {
		w := float64(41-i) / 100
		ps := []model.Posting{{Term: termA, Weight: w}}
		if i <= 12 {
			ps = append(ps, model.Posting{Term: termB, Weight: w})
		}
		insert(doc(t, model.DocID(i), i, ps...))
	}
	for _, q := range []*model.Query{
		query(t, 1, k, model.QueryTerm{Term: termA, Weight: 1}),
		query(t, 2, k, model.QueryTerm{Term: termB, Weight: 1}),
	} {
		if err := m.Register(q); err != nil {
			t.Fatal(err)
		}
	}
	qa, qb := m.lookup(1), m.lookup(2)
	// depth checks that R holds n members with the floor at the n-th.
	depth := func(qs *queryState, n int, what string) {
		t.Helper()
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if qs.r.Len() != n || qs.f <= 0 || qs.f != qs.r.Kth(n) {
			t.Fatalf("%s: query %d |R| = %d, floor %g; want %d members, floor at the %d-th score",
				what, qs.q.ID, qs.r.Len(), qs.f, n, n)
		}
	}
	depth(qa, k+4, "register")
	depth(qb, k+4, "register")

	// Expiring the five best leaves both with two members: each refills.
	var expired []*model.Document
	for range 5 {
		expired = append(expired, index.RemoveOldest())
	}
	m.HandleEpoch(nil, expired)
	if stats.Refills != 2 {
		t.Fatalf("refills = %d, want 2", stats.Refills)
	}
	depth(qa, k+12, "refill")
	// B has 7 matches left, under k+12: R holds them all at floor 0.
	if qb.r.Len() != 7 || qb.f != 0 {
		t.Fatalf("refill: query 2 |R| = %d, floor %g; want all 7 matches at floor 0", qb.r.Len(), qb.f)
	}

	// Arrivals above the floor grow A's R one by one; the ninth takes it
	// past k+20 and raises the floor back to the (k+12)-th score.
	for i := 1; i <= 9; i++ {
		d := doc(t, model.DocID(40+i), 40+i, model.Posting{Term: termA, Weight: 0.5 + float64(i)/100})
		insert(d)
		floor := qa.f
		m.HandleEpoch([]*model.Document{d}, nil)
		if i < 9 {
			if stats.RollupSteps != 0 || qa.f != floor || qa.r.Len() != k+12+i {
				t.Fatalf("arrival %d: %d raises, floor %g (was %g), |R| = %d; want no raise and %d members",
					i, stats.RollupSteps, qa.f, floor, qa.r.Len(), k+12+i)
			}
			continue
		}
		if stats.RollupSteps != 1 {
			t.Fatalf("arrival %d: %d raises, want 1", i, stats.RollupSteps)
		}
		depth(qa, k+12, "raise")
	}
}

func TestITAQueryTermAbsentFromWindow(t *testing.T) {
	// A query over a term no valid document contains must still monitor
	// future arrivals of that term.
	e := NewITA(window.Count{N: 10})
	if err := e.Process(doc(t, 1, 0, model.Posting{Term: termC, Weight: 0.9})); err != nil {
		t.Fatal(err)
	}
	q := query(t, 1, 2, model.QueryTerm{Term: termA, Weight: 1})
	if err := e.Register(q); err != nil {
		t.Fatal(err)
	}
	mustCheck(t, e)
	wantResult(t, e, 1, nil)

	if err := e.Process(doc(t, 2, 1, model.Posting{Term: termA, Weight: 0.3})); err != nil {
		t.Fatal(err)
	}
	mustCheck(t, e)
	wantResult(t, e, 1, []model.ScoredDoc{{Doc: 2, Score: 0.3}})
}

func TestITAEmptyWindowRegistration(t *testing.T) {
	e := NewITA(window.Count{N: 5})
	q := query(t, 7, 3, model.QueryTerm{Term: termA, Weight: 1})
	if err := e.Register(q); err != nil {
		t.Fatal(err)
	}
	mustCheck(t, e)
	wantResult(t, e, 7, nil)
	if err := e.Process(doc(t, 1, 0, model.Posting{Term: termA, Weight: 0.4})); err != nil {
		t.Fatal(err)
	}
	mustCheck(t, e)
	wantResult(t, e, 7, []model.ScoredDoc{{Doc: 1, Score: 0.4}})
}

func TestITAKLargerThanWindow(t *testing.T) {
	e := NewITA(window.Count{N: 3})
	for i := 1; i <= 3; i++ {
		if err := e.Process(doc(t, model.DocID(i), i, model.Posting{Term: termA, Weight: float64(i) / 10})); err != nil {
			t.Fatal(err)
		}
	}
	q := query(t, 1, 10, model.QueryTerm{Term: termA, Weight: 1})
	if err := e.Register(q); err != nil {
		t.Fatal(err)
	}
	mustCheck(t, e)
	wantResult(t, e, 1, []model.ScoredDoc{{Doc: 3, Score: 0.3}, {Doc: 2, Score: 0.2}, {Doc: 1, Score: 0.1}})
}

func TestITADuplicateDocumentRejected(t *testing.T) {
	e := NewITA(window.Count{N: 5})
	d := doc(t, 1, 0, model.Posting{Term: termA, Weight: 0.5})
	if err := e.Process(d); err != nil {
		t.Fatal(err)
	}
	if err := e.Process(doc(t, 1, 1, model.Posting{Term: termB, Weight: 0.5})); err == nil {
		t.Fatal("duplicate doc id accepted")
	}
	if e.WindowLen() != 1 {
		t.Fatalf("window len = %d after rejected insert", e.WindowLen())
	}
}

func TestITADuplicateQueryRejected(t *testing.T) {
	e := NewITA(window.Count{N: 5})
	q := query(t, 1, 1, model.QueryTerm{Term: termA, Weight: 1})
	if err := e.Register(q); err != nil {
		t.Fatal(err)
	}
	if err := e.Register(q); err == nil {
		t.Fatal("duplicate query id accepted")
	}
}

func TestITAUnregister(t *testing.T) {
	e := NewITA(window.Count{N: 5})
	for i := 1; i <= 3; i++ {
		if err := e.Process(doc(t, model.DocID(i), i, model.Posting{Term: termA, Weight: float64(i) / 10})); err != nil {
			t.Fatal(err)
		}
	}
	q := query(t, 1, 2, model.QueryTerm{Term: termA, Weight: 1})
	if err := e.Register(q); err != nil {
		t.Fatal(err)
	}
	if !e.Unregister(1) {
		t.Fatal("Unregister returned false")
	}
	if e.Unregister(1) {
		t.Fatal("second Unregister returned true")
	}
	if _, ok := e.Result(1); ok {
		t.Fatal("Result after Unregister succeeded")
	}
	if m := e.shards[0].m; len(m.freeTrees) != len(m.trees) {
		t.Fatalf("threshold trees leaked: %d of %d not freed", len(m.trees)-len(m.freeTrees), len(m.trees))
	}
	mustCheck(t, e)
	// The stream keeps flowing without the query.
	if err := e.Process(doc(t, 9, 9, model.Posting{Term: termA, Weight: 0.9})); err != nil {
		t.Fatal(err)
	}
}

func TestITATimeWindow(t *testing.T) {
	e := NewITA(window.Span{D: 100 * time.Millisecond})
	base := time.Unix(0, 0)
	mk := func(id model.DocID, at time.Duration, w float64) *model.Document {
		d, err := model.NewDocument(id, base.Add(at), []model.Posting{{Term: termA, Weight: w}})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	if err := e.Process(mk(1, 0, 0.9)); err != nil {
		t.Fatal(err)
	}
	if err := e.Process(mk(2, 50*time.Millisecond, 0.5)); err != nil {
		t.Fatal(err)
	}
	q := query(t, 1, 2, model.QueryTerm{Term: termA, Weight: 1})
	if err := e.Register(q); err != nil {
		t.Fatal(err)
	}
	wantResult(t, e, 1, []model.ScoredDoc{{Doc: 1, Score: 0.9}, {Doc: 2, Score: 0.5}})

	// d1 ages out at +100ms even without a new arrival.
	e.ExpireUntil(base.Add(120 * time.Millisecond))
	mustCheck(t, e)
	wantResult(t, e, 1, []model.ScoredDoc{{Doc: 2, Score: 0.5}})
	if e.WindowLen() != 1 {
		t.Fatalf("window len = %d, want 1", e.WindowLen())
	}

	// An arrival at +200ms expires d2 as a side effect.
	if err := e.Process(mk(3, 200*time.Millisecond, 0.1)); err != nil {
		t.Fatal(err)
	}
	mustCheck(t, e)
	wantResult(t, e, 1, []model.ScoredDoc{{Doc: 3, Score: 0.1}})
}

func TestITAZeroScoreArrivalIgnored(t *testing.T) {
	e := NewITA(window.Count{N: 10})
	q := query(t, 1, 2, model.QueryTerm{Term: termA, Weight: 1})
	if err := e.Register(q); err != nil {
		t.Fatal(err)
	}
	probesBefore := e.Stats().ProbeHits
	// Documents sharing no terms with the query must be filtered by the
	// threshold trees, not scored.
	for i := 1; i <= 5; i++ {
		if err := e.Process(doc(t, model.DocID(i), i, model.Posting{Term: termC, Weight: 0.5})); err != nil {
			t.Fatal(err)
		}
	}
	if e.Stats().ProbeHits != probesBefore {
		t.Fatalf("probe hits = %d, want %d: disjoint documents must not touch the query",
			e.Stats().ProbeHits, probesBefore)
	}
	if e.Stats().ScoreComputations != 0 {
		t.Fatalf("score computations = %d, want 0", e.Stats().ScoreComputations)
	}
	mustCheck(t, e)
}

func TestITARollupDisabledStaysCorrect(t *testing.T) {
	e := NewITA(window.Count{N: 20}, WithoutRollup())
	q := query(t, 1, 2,
		model.QueryTerm{Term: termA, Weight: 0.5},
		model.QueryTerm{Term: termB, Weight: 1.0})
	if err := e.Register(q); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 30; i++ {
		ps := []model.Posting{{Term: termA, Weight: float64(i%7+1) / 10}}
		if i%3 == 0 {
			ps = append(ps, model.Posting{Term: termB, Weight: float64(i%5+1) / 10})
		}
		if err := e.Process(doc(t, model.DocID(i), i, ps...)); err != nil {
			t.Fatal(err)
		}
		mustCheck(t, e)
	}
	if e.Stats().RollupSteps != 0 {
		t.Fatalf("rollup steps = %d with rollup disabled", e.Stats().RollupSteps)
	}
	// Cross-check the final answer against the oracle.
	o := NewOracle(window.Count{N: 20})
	if err := o.Register(q); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 30; i++ {
		ps := []model.Posting{{Term: termA, Weight: float64(i%7+1) / 10}}
		if i%3 == 0 {
			ps = append(ps, model.Posting{Term: termB, Weight: float64(i%5+1) / 10})
		}
		if err := o.Process(doc(t, model.DocID(i), i, ps...)); err != nil {
			t.Fatal(err)
		}
	}
	want, _ := o.Result(1)
	wantResult(t, e, 1, want)
}
