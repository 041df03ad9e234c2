package core

import (
	"fmt"
	"time"

	"ita/internal/invindex"
	"ita/internal/model"
	"ita/internal/topk"
	"ita/internal/window"
)

// Naive is the baseline of §II enhanced, as in the paper's evaluation,
// with the top-kmax materialized-view maintenance of Yi et al. (ICDE
// 2003, the paper's reference [6]): every rescan retrieves the top-kmax
// documents (kmax ≥ k) so that the view tolerates kmax−k+1 top-k
// deletions before the next full-window rescan.
//
// With kmax = k it degenerates to the plain Naïve algorithm. Either
// way, every arriving document is scored against every registered query
// and every expiring document triggers a per-query membership check —
// the costs ITA's threshold trees avoid.
type Naive struct {
	policy  window.Policy
	store   *invindex.Store
	queries map[model.QueryID]*naiveState
	kmaxFn  func(k int) int
	stats   Stats
}

type naiveState struct {
	q    *model.Query
	view *topk.ResultSet
	kmax int
	// fence is the least upper bound on the score of any valid document
	// outside the view: min of the initial top-kmax at the last rescan,
	// raised to each evicted score since. A document whose score is at
	// most the fence can be ignored without losing view exactness.
	fence float64
}

// NaiveOption configures a Naive engine.
type NaiveOption func(*Naive)

// WithKmax sets the view size returned by rescans as a function of k.
// The default is Yi et al.'s recommended doubling, kmax = 2k; WithKmax
// (func(k int) int { return k }) yields the plain Naïve baseline.
func WithKmax(fn func(k int) int) NaiveOption { return func(e *Naive) { e.kmaxFn = fn } }

// NewNaive returns an empty Naïve engine over the given window policy.
func NewNaive(policy window.Policy, opts ...NaiveOption) *Naive {
	e := &Naive{
		policy:  policy,
		store:   invindex.NewStore(),
		queries: make(map[model.QueryID]*naiveState),
		kmaxFn:  func(k int) int { return 2 * k },
	}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Name implements Engine.
func (e *Naive) Name() string {
	return "naive"
}

// Queries implements Engine.
func (e *Naive) Queries() int { return len(e.queries) }

// EachQuery implements Engine.
func (e *Naive) EachQuery(fn func(q *model.Query)) {
	for _, st := range e.queries {
		fn(st.q)
	}
}

// WindowLen implements Engine.
func (e *Naive) WindowLen() int { return e.store.Len() }

// EachDoc implements Engine.
func (e *Naive) EachDoc(fn func(d *model.Document)) { e.store.Docs(fn) }

// Stats implements Engine.
func (e *Naive) Stats() *Stats { return &e.stats }

// Register implements Engine.
func (e *Naive) Register(q *model.Query) error {
	if _, dup := e.queries[q.ID]; dup {
		return fmt.Errorf("core: duplicate query id %d", q.ID)
	}
	st := &naiveState{
		q:    q,
		view: topk.NewResultSet(q.ID),
		kmax: e.kmaxFn(q.K),
	}
	if st.kmax < q.K {
		st.kmax = q.K
	}
	e.queries[q.ID] = st
	e.rescan(st)
	return nil
}

// Unregister implements Engine.
func (e *Naive) Unregister(id model.QueryID) bool {
	if _, ok := e.queries[id]; !ok {
		return false
	}
	delete(e.queries, id)
	return true
}

// Result implements Engine.
func (e *Naive) Result(id model.QueryID) ([]model.ScoredDoc, bool) {
	st, ok := e.queries[id]
	if !ok {
		return nil, false
	}
	return st.view.Top(st.q.K), true
}

// Process implements Engine.
func (e *Naive) Process(d *model.Document) error {
	if err := e.store.Insert(d); err != nil {
		return err
	}
	e.stats.Arrivals++
	for _, st := range e.queries {
		e.stats.ScoreComputations++
		score := model.Score(st.q, d)
		if score <= st.fence || score <= 0 {
			continue
		}
		st.view.Add(d.ID, score)
		if st.view.Len() > st.kmax {
			worst, _ := st.view.Worst()
			st.view.Remove(worst.Doc)
			st.fence = worst.Score
		}
	}
	e.expireWhile(d.Arrival)
	return nil
}

// ExpireUntil implements Engine.
func (e *Naive) ExpireUntil(now time.Time) { e.expireWhile(now) }

func (e *Naive) expireWhile(now time.Time) {
	for {
		oldest := e.store.Oldest()
		if oldest == nil || !e.policy.Expired(oldest.Arrival, now, e.store.Len()) {
			return
		}
		d := e.store.RemoveOldest()
		e.stats.Expirations++
		for _, st := range e.queries {
			if !st.view.Remove(d.ID) {
				continue
			}
			if st.view.Len() < st.q.K {
				e.rescan(st)
			}
		}
	}
}

// rescan recomputes the view from scratch: a full window scan retaining
// the kmax highest-scoring documents.
func (e *Naive) rescan(st *naiveState) {
	e.stats.Rescans++
	st.view = topk.NewResultSet(st.q.ID)
	e.store.Docs(func(d *model.Document) {
		e.stats.ScoreComputations++
		score := model.Score(st.q, d)
		if score <= 0 {
			return
		}
		if st.view.Len() < st.kmax {
			st.view.Add(d.ID, score)
			return
		}
		worst, _ := st.view.Worst()
		if score > worst.Score || (score == worst.Score && d.ID < worst.Doc) {
			st.view.Remove(worst.Doc)
			st.view.Add(d.ID, score)
		}
	})
	if st.view.Len() == st.kmax {
		worst, _ := st.view.Worst()
		st.fence = worst.Score
	} else {
		st.fence = 0
	}
}
