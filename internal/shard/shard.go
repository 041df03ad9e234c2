// Package shard implements the sharded parallel ITA engine: registered
// queries are partitioned across S shards, each owning the threshold
// trees, result sets and local thresholds (a core.Maintainer) for its
// queries, while the inverted index and FIFO document store are owned
// by the coordinator.
//
// Every write is an epoch — a batch of arrivals (one document is a
// batch of one) or an ExpireUntil clock advance — processed as a
// two-phase pipeline:
//
//  1. The coordinator stages the epoch's net index mutations in one
//     ApplyBatch pass (insert the surviving arrivals, pop everything the
//     window policy expires), on the caller's goroutine; a large epoch's
//     list edits are split by term across short-lived goroutines inside
//     ApplyBatch while the shards are idle.
//  2. All shards fan out exactly once and concurrently apply the
//     epoch's net effect to their queries — probe → score → add/roll-up
//     for arrivals, remove → refill for expirations — against the
//     now-quiescent index.
//
// The fan-out is exact, not approximate: ITA's maintenance state is
// strictly per-query (the paper's threshold trees and result lists R
// never couple two queries), and within one epoch every shard only
// *reads* the shared index. The sharded engine therefore returns
// results identical to the single-threaded ITA for every query at every
// epoch boundary; internal/shard's equivalence tests drive both against
// the brute-force oracle to enforce exactly that.
//
// Like every core.Engine, the sharded engine's public methods must be
// called from one goroutine at a time (the ita facade adds locking);
// parallelism lives entirely inside ProcessEpoch.
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
// core.EpochProcessor and Close.
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

	pending  sync.WaitGroup // per-epoch completion barrier
	workers  sync.WaitGroup // worker lifetime
	stopOnce sync.Once
}

// shardState is one shard: a maintainer plus its private stats block
// and the channel its worker goroutine receives epochs on. Keeping the
// stats per shard makes counting contention-free during the fan-out.
type shardState struct {
	m     *core.Maintainer
	stats core.Stats
	ch    chan epoch // nil when the engine runs inline (S == 1)
}

// epoch is one unit of fan-out work: an epoch's net arrivals and
// expirations.
type epoch struct {
	arrived []*model.Document
	expired []*model.Document
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
// released per epoch and joined on a barrier before ProcessEpoch returns.
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
			s.ch = make(chan epoch, 1)
			e.workers.Add(1)
			go e.worker(s)
		}
	}
	return e
}

func (e *Engine) worker(s *shardState) {
	defer e.workers.Done()
	for ep := range s.ch {
		s.m.HandleEpoch(ep.arrived, ep.expired)
		// Freeze this shard's changed results while still on the worker:
		// the copy-on-publish work parallelizes with the other shards, and
		// the coordinator's later PublishViews degenerates to pure pointer
		// swaps. Nothing becomes visible to readers yet.
		s.m.WarmViews()
		e.pending.Done()
	}
}

// Close stops the worker goroutines. The engine must be quiescent (no
// epoch in flight); further fan-outs panic. Close is idempotent.
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

// Process implements core.Engine: the arrival is an epoch of its own.
func (e *Engine) Process(d *model.Document) error {
	return e.ProcessEpoch([]*model.Document{d})
}

// ProcessEpoch implements core.EpochProcessor: the whole batch is one
// epoch, processed with a single two-phase barrier. Phase 1 stages every
// index mutation from the caller's goroutine (core.StageEpoch: insert the
// surviving arrivals, pop everything the window policy expires, net
// per-term list edits, term-partitioned when the epoch is large); phase 2 fans the epoch out once, each shard
// running its net per-query maintenance (core.Maintainer.HandleEpoch)
// against the quiescent epoch-end index. Arrival times must be
// non-decreasing within the batch.
func (e *Engine) ProcessEpoch(docs []*model.Document) error {
	if len(docs) == 0 {
		return nil
	}
	return e.epoch(docs, docs[len(docs)-1].Arrival)
}

// ExpireUntil implements core.Engine: an epoch without arrivals, which
// cannot fail (only an arriving duplicate id can).
func (e *Engine) ExpireUntil(now time.Time) { _ = e.epoch(nil, now) }

func (e *Engine) epoch(docs []*model.Document, now time.Time) error {
	arrived, expired, err := core.StageEpoch(e.index, e.policy, &e.coord, docs, now)
	if err != nil {
		return err
	}
	if len(arrived) > 0 || len(expired) > 0 {
		e.fanOut(epoch{arrived: arrived, expired: expired})
	}
	return nil
}

// fanOut runs one epoch's per-query maintenance on every shard that
// owns at least one query and waits for all of them. The index is
// quiescent for the duration: the coordinator blocks here and only it
// may mutate the index.
func (e *Engine) fanOut(ep epoch) {
	if e.total == 0 {
		return
	}
	if len(e.shards) == 1 {
		e.shards[0].m.HandleEpoch(ep.arrived, ep.expired)
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
			s.ch <- ep
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
