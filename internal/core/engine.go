// Package core implements the continuous text search engines: the
// paper's Incremental Threshold Algorithm (ITA), the Naïve baseline of
// §II enhanced with the top-kmax materialized-view technique of Yi et
// al. (the §IV competitor), and a brute-force Oracle used to validate
// both.
//
// All engines process the same event stream — document arrivals that may
// force expirations under a sliding-window policy — and must expose
// identical results at every instant.
package core

import (
	"errors"
	"time"

	"ita/internal/model"
)

// Lifecycle errors shared between the engine facade and the layers
// built on top of it (replication followers, the cluster router). They
// are defined here — below the facade — so that infrastructure packages
// can match them with errors.Is without importing the facade; the ita
// package re-exports them under the same names.
var (
	// ErrReadOnly is returned by mutating operations on a follower;
	// Promote makes it writable.
	ErrReadOnly = errors.New("ita: engine is a read-only replication follower (call Promote to make it writable)")
	// ErrClosed is returned by operations on a closed engine.
	ErrClosed = errors.New("ita: engine is closed")
)

// Engine is the contract every continuous top-k engine satisfies.
// Engines are single-threaded by design (the paper's server is a
// CPU-bound main-memory system); the public facade adds locking.
type Engine interface {
	// Name identifies the algorithm in reports ("ita", "naive", ...).
	Name() string
	// Register installs a continuous query and computes its initial
	// result. It fails on a duplicate query id.
	Register(q *model.Query) error
	// Unregister removes a query, reporting whether it existed.
	Unregister(id model.QueryID) bool
	// Process handles one document arrival, including any expirations
	// the sliding-window policy derives from it. It fails on a
	// duplicate document id; the engine state is unchanged in that
	// case.
	Process(d *model.Document) error
	// ExpireUntil advances the stream clock without an arrival,
	// expiring documents as the window policy dictates. Only time-based
	// windows expire documents this way.
	ExpireUntil(now time.Time)
	// Result returns the current top-k of a query in descending score
	// order (fewer than k documents when the window holds fewer
	// matches). The second result is false for an unknown query.
	Result(id model.QueryID) ([]model.ScoredDoc, bool)
	// Queries returns the number of registered queries.
	Queries() int
	// EachQuery calls fn for every registered query in unspecified
	// order. Used for snapshots and diagnostics; fn must not modify the
	// engine.
	EachQuery(fn func(q *model.Query))
	// WindowLen returns the number of currently valid documents.
	WindowLen() int
	// EachDoc calls fn for every valid document in arrival (FIFO)
	// order. fn must not modify the engine.
	EachDoc(fn func(d *model.Document))
	// Stats returns the engine's cumulative operation counters.
	Stats() *Stats
}

// EpochProcessor is implemented by engines (ITA and the sharded ITA)
// that can process a batch of arrivals — plus every expiration the
// window policy derives from it — as a single epoch: index mutations
// are staged in one pass, and per-query maintenance runs once per
// affected query with the batch's net effect. Per-query results at the
// epoch boundary are identical to a Process loop over the same
// documents; intermediate per-event states are never materialized, and
// operation counters reflect the amortized work actually performed.
type EpochProcessor interface {
	ProcessEpoch(docs []*model.Document) error
}

// Stats counts the primitive operations that dominate each algorithm's
// cost. The experiment harness reports them alongside wall-clock
// timings to explain *why* the curves look the way they do.
type Stats struct {
	Arrivals    uint64 // documents inserted
	Expirations uint64 // documents expired
	Epochs      uint64 // ingest epochs processed; every arrival belongs to exactly one
	// ITA counters.
	ProbeHits    uint64 // threshold-tree probe results (query, event) pairs
	SearchReads  uint64 // inverted-list entries consumed by search/refill
	RollupSteps  uint64 // threshold lift operations
	RollupDrops  uint64 // documents dropped from R by roll-up
	Refills      uint64 // incremental refills triggered by expirations
	TreeUpdates  uint64 // threshold tree insert/delete operations
	IndexInserts uint64 // impact entries inserted
	IndexDeletes uint64 // impact entries deleted
	// Shared counters.
	ScoreComputations uint64 // full S(d|Q) evaluations
	// Naïve counters.
	Rescans uint64 // full window rescans (view refills)
}

// Memory is a per-component estimate of an engine's heap footprint,
// produced on demand by walking structure sizes (counts × measured unit
// costs), not by heap profiling. Unlike Stats it is a gauge, not a
// counter: it is deliberately kept out of snapshots and the WAL, since
// capacities legitimately differ between an engine and its recovered
// twin.
type Memory struct {
	IndexBytes      uint64 `json:"index_bytes"`       // inverted lists + FIFO store
	TreeBytes       uint64 `json:"tree_bytes"`        // threshold trees
	QueryStateBytes uint64 `json:"query_state_bytes"` // dense arenas, term vectors, result sets
	ViewBytes       uint64 `json:"view_bytes"`        // published slots + ext→dense lookup
	// PostingBytes is the inverted-list share of IndexBytes (already
	// counted there, so Total does not add it), and Postings the entry
	// count behind it — together the invindex.bytes_per_posting gauge
	// of the benchmark's traced pass.
	PostingBytes uint64 `json:"posting_bytes"`
	Postings     uint64 `json:"postings"`
}

// Total sums the components.
func (m Memory) Total() uint64 {
	return m.IndexBytes + m.TreeBytes + m.QueryStateBytes + m.ViewBytes
}

// Merge accumulates o into m component-wise (per-shard footprints are
// additive).
func (m *Memory) Merge(o Memory) {
	m.IndexBytes += o.IndexBytes
	m.TreeBytes += o.TreeBytes
	m.QueryStateBytes += o.QueryStateBytes
	m.ViewBytes += o.ViewBytes
	m.PostingBytes += o.PostingBytes
	m.Postings += o.Postings
}

// MemoryReporter is implemented by engines that can account their heap
// footprint per component (ITA and the sharded ITA).
type MemoryReporter interface {
	MemoryUsage() Memory
}

// Add accumulates o into s field-wise. The sharded engine keeps one
// Stats block per shard (so counting stays contention-free during the
// parallel fan-out) and merges them on read.
func (s *Stats) Add(o *Stats) {
	s.Arrivals += o.Arrivals
	s.Expirations += o.Expirations
	s.Epochs += o.Epochs
	s.ProbeHits += o.ProbeHits
	s.SearchReads += o.SearchReads
	s.RollupSteps += o.RollupSteps
	s.RollupDrops += o.RollupDrops
	s.Refills += o.Refills
	s.TreeUpdates += o.TreeUpdates
	s.IndexInserts += o.IndexInserts
	s.IndexDeletes += o.IndexDeletes
	s.ScoreComputations += o.ScoreComputations
	s.Rescans += o.Rescans
}
