// Package shard implements the sharded parallel ITA engine: registered
// queries are partitioned across S shards, each owning the threshold
// trees, result sets and local thresholds (a core.Maintainer) for its
// queries, while the inverted index and FIFO document store remain a
// single-writer structure owned by the coordinator.
//
// Event processing is a two-phase pipeline per arrival or expiration:
//
//  1. The coordinator mutates the index (insert the arriving document,
//     or pop the expired one), on the caller's goroutine.
//  2. All shards concurrently run their per-query maintenance —
//     probe → score → add/roll-up for arrivals, probe → remove → refill
//     for expirations — against the now-quiescent index.
//
// ProcessEpoch lifts the same two phases from per-event to per-epoch:
// the coordinator stages a whole batch's net index mutations in one
// pass, then all shards fan out exactly once, each applying the epoch's
// net effect to its queries. One barrier per epoch instead of one per
// event is what lets the sharded engine scale past the per-event
// synchronization floor.
//
// The fan-out is exact, not approximate: ITA's maintenance state is
// strictly per-query (the paper's threshold trees and result lists R
// never couple two queries), and within one event every shard only
// *reads* the shared index. The sharded engine therefore returns
// results identical to the single-threaded ITA for every query at every
// instant; internal/shard's equivalence tests drive both against the
// brute-force oracle to enforce exactly that.
//
// Like every core.Engine, the sharded engine's public methods must be
// called from one goroutine at a time (the ita facade adds locking);
// parallelism lives entirely inside Process/ProcessBatch.
package shard

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"ita/internal/core"
	"ita/internal/invindex"
	"ita/internal/model"
	"ita/internal/topk"
	"ita/internal/window"
)

// Engine is the sharded parallel ITA. It implements core.Engine plus
// ProcessBatch and Close.
type Engine struct {
	policy window.Policy
	index  *invindex.Index
	shards []*shardState
	total  int // registered queries across all shards

	// coord holds the coordinator's counters (arrivals, expirations,
	// index mutations); merged is the scratch block Stats() merges the
	// per-shard counters into.
	coord  core.Stats
	merged core.Stats

	// views is the engine's stable wait-free read handle (per-shard
	// published views, merged lazily at read time).
	views *mergedViews

	pending  sync.WaitGroup // per-event completion barrier
	workers  sync.WaitGroup // worker lifetime
	stopOnce sync.Once
}

// shardState is one shard: a maintainer plus its private stats block
// and the channel its worker goroutine receives events on. Keeping the
// stats per shard makes counting contention-free during the fan-out.
type shardState struct {
	m     *core.Maintainer
	stats core.Stats
	ch    chan event // nil when the engine runs inline (S == 1)
}

// event is one unit of fan-out work: either a single arrival or
// expiration (doc != nil), or a whole epoch's net arrivals and
// expirations (doc == nil).
type event struct {
	arrival bool
	doc     *model.Document
	arrived []*model.Document
	expired []*model.Document
}

// handle dispatches one event on this shard's maintainer.
func (s *shardState) handle(ev event) {
	switch {
	case ev.doc == nil:
		s.m.HandleEpoch(ev.arrived, ev.expired)
	case ev.arrival:
		s.m.HandleArrival(ev.doc)
	default:
		s.m.HandleExpire(ev.doc)
	}
}

// Option configures New.
type Option func(*core.MaintainerConfig)

// WithSeed fixes the skip-list randomness seed, matching
// core.WithITASeed so sharded and single-threaded runs are structurally
// comparable.
func WithSeed(seed uint64) Option {
	return func(c *core.MaintainerConfig) { c.Seed = seed }
}

// WithoutRollup disables the threshold roll-up (ablation A2), matching
// core.WithoutRollup.
func WithoutRollup() Option {
	return func(c *core.MaintainerConfig) { c.DisableRollup = true }
}

// WithRoundRobinProbe selects the round-robin probe order (ablation A1),
// matching core.WithRoundRobinProbe.
func WithRoundRobinProbe() Option {
	return func(c *core.MaintainerConfig) { c.RoundRobinProbe = true }
}

// WithScanAllTrees pins probe trees to the entry-ordered scan-all
// representation, matching core.WithScanAllTrees (equivalence testing
// only).
func WithScanAllTrees() Option {
	return func(c *core.MaintainerConfig) { c.ScanAllTrees = true }
}

// WithFloorMargins overrides the floor maintenance margins, matching
// core.WithFloorMargins (zero keeps a default).
func WithFloorMargins(target, raise int) Option {
	return func(c *core.MaintainerConfig) {
		c.FloorTargetMargin = target
		c.FloorRaiseMargin = raise
	}
}

// New returns an empty sharded engine with the given shard count;
// shards <= 0 selects runtime.GOMAXPROCS(0). With one shard the engine
// runs maintenance inline on the caller's goroutine (no workers, no
// synchronization); with more it starts one worker goroutine per shard,
// released per event and joined on a barrier before Process returns.
// Call Close when done to stop the workers.
func New(policy window.Policy, shards int, opts ...Option) *Engine {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	cfg := core.MaintainerConfig{Seed: 1}
	for _, o := range opts {
		o(&cfg)
	}
	e := &Engine{
		policy: policy,
		index:  invindex.NewIndex(cfg.Seed),
		shards: make([]*shardState, shards),
	}
	for i := range e.shards {
		s := &shardState{}
		s.m = core.NewMaintainer(e.index, &s.stats, cfg)
		e.shards[i] = s
	}
	e.views = &mergedViews{shards: e.shards}
	if shards > 1 {
		for _, s := range e.shards {
			s.ch = make(chan event, 1)
			e.workers.Add(1)
			go e.worker(s)
		}
	}
	return e
}

func (e *Engine) worker(s *shardState) {
	defer e.workers.Done()
	for ev := range s.ch {
		s.handle(ev)
		// After an epoch event, freeze this shard's changed results while
		// still on the worker: the copy-on-publish work parallelizes with
		// the other shards, and the coordinator's later PublishViews
		// degenerates to pure pointer swaps. Nothing becomes visible to
		// readers yet. Per-event fan-outs skip the warm — several events
		// (an arrival plus its expirations) may share one publication
		// boundary, and only the last freeze would survive; the
		// coordinator freezes each dirty query exactly once instead.
		if ev.doc == nil {
			s.m.WarmViews()
		}
		e.pending.Done()
	}
}

// Close stops the worker goroutines. The engine must be quiescent (no
// Process in flight); further Process calls panic. Close is idempotent.
func (e *Engine) Close() error {
	e.stopOnce.Do(func() {
		for _, s := range e.shards {
			if s.ch != nil {
				close(s.ch)
			}
		}
		e.workers.Wait()
	})
	return nil
}

// Shards returns the shard count.
func (e *Engine) Shards() int { return len(e.shards) }

// Name implements core.Engine.
func (e *Engine) Name() string { return "ita-sharded" }

// Queries implements core.Engine.
func (e *Engine) Queries() int { return e.total }

// EachQuery implements core.Engine.
func (e *Engine) EachQuery(fn func(q *model.Query)) {
	for _, s := range e.shards {
		s.m.EachQuery(fn)
	}
}

// WindowLen implements core.Engine.
func (e *Engine) WindowLen() int { return e.index.Len() }

// EachDoc implements core.Engine.
func (e *Engine) EachDoc(fn func(d *model.Document)) { e.index.Docs(fn) }

// MemoryUsage implements core.MemoryReporter: the shared index plus
// every shard's per-query structures.
func (e *Engine) MemoryUsage() core.Memory {
	var mem core.Memory
	mem.IndexBytes = e.index.MemoryBytes()
	mem.PostingBytes = e.index.PostingBytes()
	mem.Postings = uint64(e.index.PostingCount())
	for _, s := range e.shards {
		mem.Merge(s.m.MemoryUsage())
	}
	return mem
}

// Stats implements core.Engine: the coordinator's counters plus every
// shard's, merged. The merged totals equal the single-threaded ITA's
// counters on the same stream, since each query's maintenance performs
// identical operations regardless of which shard runs it.
func (e *Engine) Stats() *core.Stats {
	e.merged = e.coord
	for _, s := range e.shards {
		e.merged.Add(&s.stats)
	}
	return &e.merged
}

// shardIndex spreads query ids across n shards with a multiplicative
// hash, so clustered id patterns (all-even ids, striding registrants)
// still balance. It is a pure function of (id, n): the merged view
// reader resolves a query to its owning shard with it, without touching
// the coordinator's assignment map.
func shardIndex(id model.QueryID, n int) int {
	return Placement(id, n)
}

// Placement is the cluster-wide query placement function: it maps a
// query id to one of n partitions with the same multiplicative hash the
// sharded engine uses internally, so a multi-node deployment and the
// in-process sharded engine agree on ownership by construction. It is a
// pure function of (id, n).
func Placement(id model.QueryID, n int) int {
	return int((uint64(id) * 0x9e3779b97f4a7c15 >> 32) % uint64(n))
}

func (e *Engine) shardFor(id model.QueryID) int { return shardIndex(id, len(e.shards)) }

// mergedViews is the sharded engine's wait-free read handle: the
// per-shard view sets, merged lazily at read time. No cross-shard
// barrier or copy happens at publication — each shard publishes its own
// queries, and a read resolves the owning shard by hash and loads that
// shard's slot.
type mergedViews struct {
	shards []*shardState
}

// Result implements core.ViewReader.
func (v *mergedViews) Result(id model.QueryID) (*topk.Frozen, bool) {
	return v.shards[shardIndex(id, len(v.shards))].m.Views().Result(id)
}

// Each implements core.ViewReader.
func (v *mergedViews) Each(fn func(id model.QueryID, top *topk.Frozen)) {
	for _, s := range v.shards {
		s.m.Views().Each(fn)
	}
}

// PublishViews implements core.ViewPublisher. The workers already froze
// their shards' changed results during the last fan-out (WarmViews), so
// this is S short pointer-swap passes on the coordinator. Must be
// called while the engine is quiescent (no fan-out in flight).
func (e *Engine) PublishViews() core.ViewReader {
	for _, s := range e.shards {
		s.m.Publish()
	}
	return e.views
}

// Register implements core.Engine: the query is routed to its shard by
// the assignment hash — a pure function of the id, so there is no
// coordinator-side assignment map to grow with the query population —
// and its initial top-k search runs there (inline — registration is
// not a stream event and needs no fan-out).
func (e *Engine) Register(q *model.Query) error {
	if err := e.shards[e.shardFor(q.ID)].m.Register(q); err != nil {
		return err
	}
	e.total++
	return nil
}

// Unregister implements core.Engine.
func (e *Engine) Unregister(id model.QueryID) bool {
	if !e.shards[e.shardFor(id)].m.Unregister(id) {
		return false
	}
	e.total--
	return true
}

// Result implements core.Engine.
func (e *Engine) Result(id model.QueryID) ([]model.ScoredDoc, bool) {
	return e.shards[e.shardFor(id)].m.Result(id)
}

// Process implements core.Engine: phase 1 mutates the index on the
// caller's goroutine, phase 2 fans the per-query maintenance out across
// the shards, then the window policy expires documents the same way.
func (e *Engine) Process(d *model.Document) error {
	if err := e.index.Insert(d); err != nil {
		return err
	}
	e.coord.Arrivals++
	e.coord.IndexInserts += uint64(len(d.Postings))
	e.fanOut(event{arrival: true, doc: d})
	e.expireWhile(d.Arrival)
	return nil
}

// ProcessBatch processes a batch of arrivals in order, with their
// interleaved expirations, exactly as a loop over Process would — one
// fan-out barrier per event, each event's maintenance seeing the exact
// per-event index state of the single-threaded algorithm. It is the
// strict event-serial batch entry; ProcessEpoch is the amortized one.
// On error, documents before the failing one remain processed.
func (e *Engine) ProcessBatch(docs []*model.Document) error {
	for _, d := range docs {
		if err := e.Process(d); err != nil {
			return err
		}
	}
	return nil
}

// ProcessEpoch implements core.EpochProcessor: the whole batch is one
// epoch, processed with a single two-phase barrier instead of one per
// event. Phase 1 stages every index mutation on the caller's goroutine
// (one ApplyBatch pass: insert the surviving arrivals, pop everything
// the window policy expires, net per-term list edits); phase 2 fans the
// epoch out once, each shard running its net per-query maintenance
// (core.Maintainer.HandleEpoch) against the quiescent epoch-end index.
// Results at the epoch boundary are identical to ProcessBatch; the
// per-event synchronization cost — the dominant scaling limit of the
// per-event pipeline — is paid once per epoch. Arrival times must be
// non-decreasing within the batch.
func (e *Engine) ProcessEpoch(docs []*model.Document) error {
	if len(docs) == 0 {
		return nil
	}
	if len(docs) == 1 {
		return e.Process(docs[0])
	}
	now := docs[len(docs)-1].Arrival
	res, err := e.index.ApplyBatch(docs, func(oldest *model.Document, count int) bool {
		return e.policy.Expired(oldest.Arrival, now, count)
	})
	if err != nil {
		return err
	}
	e.coord.Epochs++
	e.coord.Arrivals += uint64(len(docs))
	e.coord.Expirations += uint64(len(res.Expired) + res.Dropped)
	e.coord.IndexInserts += uint64(res.Inserts)
	e.coord.IndexDeletes += uint64(res.Deletes)
	if arrived := docs[res.Dropped:]; len(arrived) > 0 || len(res.Expired) > 0 {
		e.fanOut(event{arrived: arrived, expired: res.Expired})
	}
	return nil
}

// ExpireUntil implements core.Engine.
func (e *Engine) ExpireUntil(now time.Time) { e.expireWhile(now) }

func (e *Engine) expireWhile(now time.Time) {
	for {
		oldest := e.index.Oldest()
		if oldest == nil || !e.policy.Expired(oldest.Arrival, now, e.index.Len()) {
			return
		}
		d := e.index.RemoveOldest()
		e.coord.Expirations++
		e.coord.IndexDeletes += uint64(len(d.Postings))
		e.fanOut(event{arrival: false, doc: d})
	}
}

// fanOut runs one event's per-query maintenance on every shard that
// owns at least one query and waits for all of them. The index is
// quiescent for the duration: the coordinator blocks here and only it
// may mutate the index.
func (e *Engine) fanOut(ev event) {
	if e.total == 0 {
		return
	}
	if len(e.shards) == 1 {
		e.shards[0].handle(ev)
		return
	}
	active := 0
	for _, s := range e.shards {
		if s.m.Len() > 0 {
			active++
		}
	}
	e.pending.Add(active)
	for _, s := range e.shards {
		if s.m.Len() > 0 {
			s.ch <- ev
		}
	}
	e.pending.Wait()
}

// ExportQueryState implements core.StateSnapshotter.
func (e *Engine) ExportQueryState(id model.QueryID) (core.QueryState, bool) {
	return e.shards[e.shardFor(id)].m.ExportState(id)
}

// RestoreWindow implements core.StateSnapshotter: documents enter the
// shared index with no fan-out and no counter movement.
func (e *Engine) RestoreWindow(docs []*model.Document) error {
	for _, d := range docs {
		if err := e.index.Insert(d); err != nil {
			return err
		}
	}
	return nil
}

// RestoreQueryState implements core.StateSnapshotter: the query lands
// on the shard the assignment hash dictates (so a restored engine
// shards identically to one that registered the query live) with its
// exported thresholds and result list installed verbatim.
func (e *Engine) RestoreQueryState(q *model.Query, st core.QueryState) error {
	if err := e.shards[e.shardFor(q.ID)].m.RestoreQuery(q, st); err != nil {
		return err
	}
	e.total++
	return nil
}

// SetStats implements core.StateSnapshotter. The sharded engine only
// ever exposes the merged block, so the restored total lands on the
// coordinator and the per-shard blocks restart from zero; later
// maintenance increments distribute across shards exactly as they would
// have on an engine that never restarted, keeping the merged view
// byte-identical.
func (e *Engine) SetStats(s core.Stats) {
	e.coord = s
	for _, sh := range e.shards {
		sh.stats = core.Stats{}
	}
}

// CheckInvariants verifies every shard's maintenance invariants plus the
// coordinator's live-query count and the hash placement of every owned
// query. Test/debug only.
func (e *Engine) CheckInvariants() error {
	owned := 0
	for si, s := range e.shards {
		owned += s.m.Len()
		if err := s.m.CheckInvariants(); err != nil {
			return err
		}
		var placeErr error
		s.m.EachQuery(func(q *model.Query) {
			if want := e.shardFor(q.ID); want != si && placeErr == nil {
				placeErr = fmt.Errorf("shard: query %d owned by shard %d, hash places it on %d", q.ID, si, want)
			}
		})
		if placeErr != nil {
			return placeErr
		}
	}
	if owned != e.total {
		return fmt.Errorf("shard: shards own %d queries, coordinator counts %d", owned, e.total)
	}
	return nil
}
