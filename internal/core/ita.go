package core

import (
	"time"

	"ita/internal/invindex"
	"ita/internal/model"
	"ita/internal/window"
)

// ITA is the paper's Incremental Threshold Algorithm, maintained
// through a score floor. Per query it keeps the result list R of every
// valid document scoring at least the floor F, with exact scores, plus
// one floor-derived probe bound per query term registered in the
// θ-ordered per-term probe trees (see floor.go for the invariants and
// the soundness argument). R's best k entries are a true top-k of the
// window whenever |R| ≥ k, because any document outside R scores at
// most F ≤ Sk.
//
// Arrivals whose term contribution beats a probe bound are scored and
// added to R when they reach the floor (raising the floor — the roll-up
// analog of §III-B — once R outgrows its margins); expirations of R
// members are removed (rebuilding R with a threshold-algorithm scan,
// §III-A, when they leave fewer than k members).
//
// Structurally ITA is a coordinator (window policy + inverted index)
// over a single Maintainer holding every query; the sharded engine in
// internal/shard reuses the same Maintainer across many parallel
// shards.
type ITA struct {
	policy window.Policy
	index  *invindex.Index
	m      *Maintainer
	stats  Stats

	cfg MaintainerConfig
}

// ITAOption configures an ITA engine.
type ITAOption func(*ITA)

// WithoutRollup disables arrival-driven floor raises (ablation A2, the
// roll-up analog): the floor then moves only at rebuilds, so the
// monitored region grows monotonically between expirations.
func WithoutRollup() ITAOption { return func(e *ITA) { e.cfg.DisableRollup = true } }

// WithRoundRobinProbe replaces the paper's greedy w_{Q,t}·c_t probe
// order with the original threshold algorithm's round-robin order
// (ablation A1).
func WithRoundRobinProbe() ITAOption { return func(e *ITA) { e.cfg.RoundRobinProbe = true } }

// WithScanAllTrees pins every probe tree to the entry-ordered scan-all
// representation, where a probe tests every registered query instead of
// walking the θ-ordered beatable prefix. It exists so equivalence
// suites can prove the θ-ordered probe visits exactly the same queries;
// it is not a production configuration.
func WithScanAllTrees() ITAOption { return func(e *ITA) { e.cfg.ScanAllTrees = true } }

// WithFloorMargins overrides the floor maintenance margins (see
// floor.go). Tests use small margins to exercise floor raises and
// rebuilds densely inside small windows; zero keeps a default.
func WithFloorMargins(target, raise int) ITAOption {
	return func(e *ITA) {
		e.cfg.FloorTargetMargin = target
		e.cfg.FloorRaiseMargin = raise
	}
}

// NewITA returns an empty ITA engine over the given window policy.
func NewITA(policy window.Policy, opts ...ITAOption) *ITA {
	e := &ITA{policy: policy}
	for _, o := range opts {
		o(e)
	}
	e.index = invindex.NewIndex(0)
	e.m = NewMaintainer(e.index, &e.stats, e.cfg)
	return e
}

// Name implements Engine.
func (e *ITA) Name() string { return "ita" }

// Queries implements Engine.
func (e *ITA) Queries() int { return e.m.Len() }

// EachQuery implements Engine.
func (e *ITA) EachQuery(fn func(q *model.Query)) { e.m.EachQuery(fn) }

// WindowLen implements Engine.
func (e *ITA) WindowLen() int { return e.index.Len() }

// EachDoc implements Engine.
func (e *ITA) EachDoc(fn func(d *model.Document)) { e.index.Docs(fn) }

// Stats implements Engine.
func (e *ITA) Stats() *Stats { return &e.stats }

// MemoryUsage implements MemoryReporter: the coordinator-owned index
// plus the maintainer's per-query structures.
func (e *ITA) MemoryUsage() Memory {
	mem := e.m.MemoryUsage()
	mem.IndexBytes = e.index.MemoryBytes()
	mem.PostingBytes = e.index.PostingBytes()
	mem.Postings = uint64(e.index.PostingCount())
	return mem
}

// Register implements Engine: it runs the initial top-k search of
// §III-A and installs the resulting local thresholds.
func (e *ITA) Register(q *model.Query) error { return e.m.Register(q) }

// Unregister implements Engine.
func (e *ITA) Unregister(id model.QueryID) bool { return e.m.Unregister(id) }

// Result implements Engine.
func (e *ITA) Result(id model.QueryID) ([]model.ScoredDoc, bool) { return e.m.Result(id) }

// PublishViews implements ViewPublisher: every query whose result
// changed since the previous call gets its frozen epoch-boundary
// snapshot swapped into the published slot. Like all of Engine, it must
// be called from the single writer — and only at a boundary, never
// between an arrival and the expirations it derives.
func (e *ITA) PublishViews() ViewReader {
	e.m.Publish()
	return e.m.Views()
}

// Process implements Engine: the arrival is an epoch of its own.
func (e *ITA) Process(d *model.Document) error {
	return e.ProcessEpoch([]*model.Document{d})
}

// ProcessEpoch implements EpochProcessor: the whole batch of arrivals,
// and every expiration the window policy derives from it, is applied as
// one epoch. The index absorbs the net mutations in a single ApplyBatch
// pass, then the maintainer runs one net-effect pass over the affected
// queries (HandleEpoch). Per-query results at the epoch boundary do not
// depend on how the stream is cut into epochs; intermediate states are
// simply never materialized. Arrival times must be non-decreasing
// within the batch.
func (e *ITA) ProcessEpoch(docs []*model.Document) error {
	if len(docs) == 0 {
		return nil
	}
	return e.epoch(docs, docs[len(docs)-1].Arrival)
}

// ExpireUntil implements Engine: an epoch without arrivals, which
// cannot fail (only an arriving duplicate id can).
func (e *ITA) ExpireUntil(now time.Time) { _ = e.epoch(nil, now) }

func (e *ITA) epoch(docs []*model.Document, now time.Time) error {
	arrived, expired, err := StageEpoch(e.index, e.policy, &e.stats, docs, now)
	if err != nil {
		return err
	}
	e.m.HandleEpoch(arrived, expired)
	return nil
}

// StageEpoch is the coordinator's half of an epoch, shared by ITA and
// the sharded engine: it applies docs (possibly none) and every
// expiration the window policy derives at time now to the index in one
// ApplyBatch pass, counts the epoch into st, and returns the net
// arrivals and expirations the maintainers must see. A batch with
// arrivals counts as one epoch; a clock advance (no docs) does not.
func StageEpoch(x *invindex.Index, p window.Policy, st *Stats, docs []*model.Document, now time.Time) (arrived, expired []*model.Document, err error) {
	res, err := x.ApplyBatch(docs, func(oldest *model.Document, count int) bool {
		return p.Expired(oldest.Arrival, now, count)
	})
	if err != nil {
		return nil, nil, err
	}
	if len(docs) > 0 {
		st.Epochs++
		st.Arrivals += uint64(len(docs))
	}
	st.Expirations += uint64(len(res.Expired) + res.Dropped)
	st.IndexInserts += uint64(res.Inserts)
	st.IndexDeletes += uint64(res.Deletes)
	return docs[res.Dropped:], res.Expired, nil
}
