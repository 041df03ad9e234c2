package core

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"ita/internal/invindex"
	"ita/internal/model"
	"ita/internal/topk"
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
// over S ≥ 1 query shards, each a Maintainer owning the queries
// Placement assigns it (see the package documentation for the two-phase
// epoch and why S changes no result). An epoch with little maintenance
// work runs every shard inline on the caller; a larger one runs them
// side by side on goroutines that exit before the epoch returns (see
// fanOut), so the engine holds no goroutine between calls.
type ITA struct {
	policy window.Policy
	index  *invindex.Index
	shards []*shardState
	total  int // registered queries across all shards

	// coord holds the coordinator's counters (arrivals, expirations,
	// index mutations); merged is the scratch block Stats merges the
	// per-shard counters into.
	coord  Stats
	merged Stats

	// views is the engine's stable wait-free read handle (per-shard
	// published views, merged lazily at read time).
	views *mergedViews

	cfg MaintainerConfig

	fannedOut int // epochs maintained on several goroutines (tests; Stats must not depend on S)
}

// shardState is one shard: a maintainer plus its private stats block.
// Keeping the stats per shard makes counting contention-free during the
// fan-out.
type shardState struct {
	m     *Maintainer
	stats Stats
}

// ITAOption configures an ITA engine.
type ITAOption func(*ITA)

// WithShards partitions the registered queries across n shards;
// n <= 0 selects runtime.GOMAXPROCS(0). Results and merged counters are
// identical at any n. Without it the engine has one shard, which keeps
// all maintenance on the caller's goroutine: the paper's single-threaded
// algorithm, as the figure harness measures it. The ita facade defaults
// to one shard per CPU instead.
func WithShards(n int) ITAOption {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return func(e *ITA) { e.shards = make([]*shardState, n) }
}

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
	e := &ITA{policy: policy, index: invindex.NewIndex(0)}
	for _, o := range opts {
		o(e)
	}
	if e.shards == nil {
		e.shards = make([]*shardState, 1)
	}
	for i := range e.shards {
		s := &shardState{}
		s.m = NewMaintainer(e.index, &s.stats, e.cfg)
		e.shards[i] = s
	}
	e.views = &mergedViews{shards: e.shards}
	return e
}

// Close is a no-op: no goroutine outlives the epoch that started it, so
// an engine holds nothing to release and may simply be dropped.
func (e *ITA) Close() error { return nil }

// Shards returns the shard count.
func (e *ITA) Shards() int { return len(e.shards) }

// Name implements Engine.
func (e *ITA) Name() string { return "ita" }

// Queries implements Engine.
func (e *ITA) Queries() int { return e.total }

// EachQuery implements Engine.
func (e *ITA) EachQuery(fn func(q *model.Query)) {
	for _, s := range e.shards {
		s.m.EachQuery(fn)
	}
}

// WindowLen implements Engine.
func (e *ITA) WindowLen() int { return e.index.Len() }

// EachDoc implements Engine.
func (e *ITA) EachDoc(fn func(d *model.Document)) { e.index.Docs(fn) }

// Stats implements Engine: the coordinator's counters plus every
// shard's, merged. The totals do not depend on the shard count, since
// each query's maintenance performs identical operations whichever
// shard runs it.
func (e *ITA) Stats() *Stats {
	e.merged = e.coord
	for _, s := range e.shards {
		e.merged.Add(&s.stats)
	}
	return &e.merged
}

// MemoryUsage implements ServingEngine: the coordinator-owned index
// plus every shard's per-query structures.
func (e *ITA) MemoryUsage() Memory {
	var mem Memory
	mem.IndexBytes = e.index.MemoryBytes()
	mem.PostingBytes = e.index.PostingBytes()
	mem.Postings = uint64(e.index.PostingCount())
	for _, s := range e.shards {
		mem.Merge(s.m.MemoryUsage())
	}
	return mem
}

// Placement maps a query id to one of n partitions with a
// multiplicative hash, so clustered id patterns (all-even ids,
// striding registrants) still balance. It places queries on an ITA's
// shards and on a cluster's nodes alike, so both agree on ownership by
// construction. It is a pure function of (id, n): a reader resolves a
// query's owner without consulting any assignment map.
func Placement(id model.QueryID, n int) int {
	return int((uint64(id) * 0x9e3779b97f4a7c15 >> 32) % uint64(n))
}

func (e *ITA) shard(id model.QueryID) *shardState {
	return e.shards[Placement(id, len(e.shards))]
}

// mergedViews is the wait-free read handle: the per-shard view sets,
// merged lazily at read time. No cross-shard barrier or copy happens at
// publication — each shard publishes its own queries, and a read
// resolves the owning shard by Placement and loads that shard's slot.
type mergedViews struct {
	shards []*shardState
}

// Result implements ViewReader.
func (v *mergedViews) Result(id model.QueryID) (*topk.Frozen, bool) {
	return v.shards[Placement(id, len(v.shards))].m.Views().Result(id)
}

// Each implements ViewReader.
func (v *mergedViews) Each(fn func(id model.QueryID, top *topk.Frozen)) {
	for _, s := range v.shards {
		s.m.Views().Each(fn)
	}
}

// PublishViews implements ServingEngine: every query whose result
// changed since the previous call gets its frozen epoch-boundary
// snapshot swapped into the published slot. Like all of Engine, it must
// be called from the single writer — and only at a boundary, with no
// fan-out in flight. A fanned-out epoch already froze its shards'
// changed results on their goroutines (WarmViews), so after one this is
// S short pointer-swap passes.
func (e *ITA) PublishViews() ViewReader {
	for _, s := range e.shards {
		s.m.Publish()
	}
	return e.views
}

// Register implements Engine: the query lands on the shard Placement
// dictates, where its initial top-k search of §III-A runs inline
// (registration is not a stream event and needs no fan-out).
func (e *ITA) Register(q *model.Query) error {
	if err := e.shard(q.ID).m.Register(q); err != nil {
		return err
	}
	e.total++
	return nil
}

// Unregister implements Engine.
func (e *ITA) Unregister(id model.QueryID) bool {
	if !e.shard(id).m.Unregister(id) {
		return false
	}
	e.total--
	return true
}

// Result implements Engine.
func (e *ITA) Result(id model.QueryID) ([]model.ScoredDoc, bool) {
	return e.shard(id).m.Result(id)
}

// Process implements Engine: the arrival is an epoch of its own.
func (e *ITA) Process(d *model.Document) error {
	return e.ProcessEpoch([]*model.Document{d})
}

// ProcessEpoch implements ServingEngine: the whole batch of arrivals,
// and every expiration the window policy derives from it, is applied as
// one epoch. The index absorbs the net mutations in a single ApplyBatch
// pass, then every shard runs one net-effect pass over its affected
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
// cannot fail (only an arriving id out of order can).
func (e *ITA) ExpireUntil(now time.Time) { _ = e.epoch(nil, now) }

// epoch applies docs (possibly none) and every expiration the window
// policy derives at time now to the index in one ApplyBatch pass, then
// fans the net arrivals and expirations out to the shards. A batch with
// arrivals counts as one epoch; a clock advance (no docs) does not.
func (e *ITA) epoch(docs []*model.Document, now time.Time) error {
	res, err := e.index.ApplyBatch(docs, func(oldest *model.Document, count int) bool {
		return e.policy.Expired(oldest.Arrival, now, count)
	})
	if err != nil {
		return err
	}
	if len(docs) > 0 {
		e.coord.Epochs++
		e.coord.Arrivals += uint64(len(docs))
	}
	e.coord.Expirations += uint64(len(res.Expired) + res.Dropped)
	e.coord.IndexInserts += uint64(res.Inserts)
	e.coord.IndexDeletes += uint64(res.Deletes)
	if arrived := docs[res.Dropped:]; len(arrived) > 0 || len(res.Expired) > 0 {
		e.fanOut(arrived, res.Expired)
	}
	return nil
}

// fanOutWork is the least maintenance work, in live queries × (net
// arrivals + expirations), worth running the shards side by side: the
// maintenance counterpart of invindex.shareMutations. Waking a goroutine
// on an idle core costs a few microseconds; a unit of work costs about
// ten nanoseconds, so below this an epoch is done sooner inline. A
// one-document epoch stays inline over a thousand queries and fans out
// over forty thousand, as does a 64-document epoch over a few dozen.
const fanOutWork = 4096

// fanOut runs one epoch's per-query maintenance on every shard that
// owns at least one query. Below fanOutWork the caller runs them one
// after another. Above it a goroutine per non-empty shard runs that
// shard and freezes its changed results (WarmViews) while the caller
// waits for all of them. The caller takes no shard itself: the
// goroutine started last waits in its P's next-to-run slot, which an
// idle P steals only after a back-off, so a busy caller would often run
// it late; a blocked caller's P runs it at once. The index is quiescent
// for the duration: only the coordinator mutates it, and it is blocked
// here.
func (e *ITA) fanOut(arrived, expired []*model.Document) {
	if len(e.shards) == 1 || e.total*(len(arrived)+len(expired)) < fanOutWork {
		for _, s := range e.shards {
			s.m.HandleEpoch(arrived, expired)
		}
		return
	}
	e.fannedOut++
	var wg sync.WaitGroup
	for _, s := range e.shards {
		if s.m.Len() == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.m.HandleEpoch(arrived, expired)
			s.m.WarmViews()
		}()
	}
	wg.Wait()
}

// ExportQueryState implements StateSnapshotter.
func (e *ITA) ExportQueryState(id model.QueryID) (QueryState, bool) {
	return e.shard(id).m.ExportState(id)
}

// RestoreWindow implements StateSnapshotter: the documents enter the
// inverted index and FIFO store as one epoch that expires nothing, with
// no per-query maintenance and no counter movement — the restored
// counters arrive via SetStats. One epoch lets a large window take
// ApplyBatch's term-partitioned path; the restored lists hold the same
// entries a document-at-a-time insert would, in runs of their own.
func (e *ITA) RestoreWindow(docs []*model.Document) error {
	_, err := e.index.ApplyBatch(docs, func(*model.Document, int) bool { return false })
	return err
}

// RestoreQueryState implements StateSnapshotter: the query lands on the
// shard Placement dictates (so a restored engine shards identically to
// one that registered the query live) with its exported floor and
// result list installed verbatim.
func (e *ITA) RestoreQueryState(q *model.Query, st QueryState) error {
	if err := e.shard(q.ID).m.RestoreQuery(q, st); err != nil {
		return err
	}
	e.total++
	return nil
}

// SetStats implements StateSnapshotter. Counter noise from the restore
// calls themselves is overwritten wholesale, which is why restore runs
// it last. The restored totals land on the coordinator and the
// per-shard blocks restart from zero; later maintenance increments
// distribute across shards exactly as they would have on an engine that
// never restarted, so the merged view stays byte-identical whatever the
// shard count before and after.
func (e *ITA) SetStats(s Stats) {
	e.coord = s
	for _, sh := range e.shards {
		sh.stats = Stats{}
	}
}

// CheckInvariants verifies every shard's floor invariants (see
// check.go), the coordinator's live-query count and the Placement of
// every owned query. It costs a full index scan per query and exists
// for tests and debugging, not production paths.
func (e *ITA) CheckInvariants() error {
	owned := 0
	for si, s := range e.shards {
		owned += s.m.Len()
		if err := s.m.CheckInvariants(); err != nil {
			return err
		}
		var placeErr error
		s.m.EachQuery(func(q *model.Query) {
			if want := Placement(q.ID, len(e.shards)); want != si && placeErr == nil {
				placeErr = fmt.Errorf("query %d owned by shard %d, Placement puts it on %d", q.ID, si, want)
			}
		})
		if placeErr != nil {
			return placeErr
		}
	}
	if owned != e.total {
		return fmt.Errorf("shards own %d queries, coordinator counts %d", owned, e.total)
	}
	return nil
}
