// Package cluster turns N independent engine processes into one
// logical continuous-search service. Every node ingests the full
// document stream; each standing query lives on exactly one node,
// chosen by the same multiplicative placement hash ITA uses for its
// in-process shards (core.Placement). Because ITA maintenance is
// strictly per-query — the paper's threshold algorithm never couples
// two queries' states — partitioning the query set across processes is
// exact: every node computes byte-identical results for the queries it
// owns, and the Router's merged view equals a single-process engine
// over the same inputs.
//
// The one cross-query coupling is the term dictionary: scores sum a
// query's term contributions in ascending term-id order, and float
// addition is not associative, so every node must intern every query's
// terms in the same order to keep the ids — and therefore the
// summation order, and therefore the result bytes — aligned. The
// Router enforces this by sending each registration to the owning node
// (RegisterWithID) and a dictionary-only alignment record to every
// other node (AlignRegister); both are WAL-logged, so alignment
// survives crash recovery and flows to each node's warm standbys.
package cluster

import (
	"errors"
	"fmt"
	"time"

	"ita/internal/core"
	"ita/internal/model"
)

// Node is one cluster member as the Router sees it. Every method can
// fail: a member may be remote (HTTPNode) or a read-only follower
// (core.ErrReadOnly). Implementations must preserve engine error
// identities — errors.Is(err, core.ErrReadOnly) has to hold across the
// transport.
type Node interface {
	// RegisterWithID registers a query under an explicit id on the
	// owning node.
	RegisterWithID(id model.QueryID, text string, k int) error
	// AlignRegister consumes id and interns the query's terms without
	// registering it — the non-owning side of a registration.
	AlignRegister(id model.QueryID, text string) error
	// Unregister removes an owned query, reporting whether it existed.
	Unregister(id model.QueryID) (bool, error)
	// IngestText appends one document to the node's stream.
	IngestText(text string, at time.Time) (model.DocID, error)
	// IngestBatch appends a batch in one epoch.
	IngestBatch(items []model.TimedText) ([]model.DocID, error)
	// Advance moves the stream clock without an arrival.
	Advance(now time.Time) error
	// Results returns an owned query's top-k and its text; nil matches
	// with ok=false means the node does not serve the query.
	Results(id model.QueryID) (matches []model.Match, text string, ok bool, err error)
	// ResultsAll returns every owned query's top-k.
	ResultsAll() ([]QueryTopK, error)
	// Stats returns the node's engine counters.
	Stats() (core.Stats, error)
	// Status returns the node's cluster-relevant gauges.
	Status() (Status, error)
	// Close releases the node handle. For local nodes it closes the
	// engine; for remote nodes it only drops the client.
	Close() error
}

// Status is a node's cluster-relevant state summary. NextQuery drives
// the Router's id assignment; the remaining gauges feed merged reads
// and the invariant checks (Window and Dict must agree across nodes,
// Queries sum to the cluster total).
type Status struct {
	NextQuery model.QueryID `json:"next_query"`
	Queries   int           `json:"queries"`
	Window    int           `json:"window"`
	Dict      int           `json:"dict"`
}

// QueryTopK is one query's merged-read entry: its id, registered text
// and current top-k.
type QueryTopK struct {
	Query   model.QueryID
	Text    string
	Matches []model.Match
}

// LocalEngine is the facade-method subset cluster membership needs,
// declared structurally so *ita.Engine satisfies it without the
// internal package importing the root (which would cycle).
type LocalEngine interface {
	RegisterWithID(id model.QueryID, queryText string, k int) error
	AlignRegister(id model.QueryID, queryText string) error
	Unregister(id model.QueryID) bool
	IngestText(text string, at time.Time) (model.DocID, error)
	IngestBatch(items []model.TimedText) ([]model.DocID, error)
	Advance(now time.Time) error
	Results(id model.QueryID) []model.Match
	ResultsAll() []model.QueryResult
	QueryText(id model.QueryID) (string, bool)
	Stats() core.Stats
	NextQueryID() model.QueryID
	Queries() int
	WindowLen() int
	DictionarySize() int
	Close() error
}

// Local wraps an in-process engine as a cluster Node.
func Local(e LocalEngine) Node { return localNode{e} }

type localNode struct{ e LocalEngine }

func (n localNode) RegisterWithID(id model.QueryID, text string, k int) error {
	return n.e.RegisterWithID(id, text, k)
}

func (n localNode) AlignRegister(id model.QueryID, text string) error {
	return n.e.AlignRegister(id, text)
}

func (n localNode) Unregister(id model.QueryID) (bool, error) {
	return n.e.Unregister(id), nil
}

func (n localNode) IngestText(text string, at time.Time) (model.DocID, error) {
	return n.e.IngestText(text, at)
}

func (n localNode) IngestBatch(items []model.TimedText) ([]model.DocID, error) {
	return n.e.IngestBatch(items)
}

func (n localNode) Advance(now time.Time) error { return n.e.Advance(now) }

func (n localNode) Results(id model.QueryID) ([]model.Match, string, bool, error) {
	matches := n.e.Results(id)
	if matches == nil {
		return nil, "", false, nil
	}
	text, _ := n.e.QueryText(id)
	return matches, text, true, nil
}

func (n localNode) ResultsAll() ([]QueryTopK, error) {
	all := n.e.ResultsAll()
	out := make([]QueryTopK, 0, len(all))
	for _, qr := range all {
		text, _ := n.e.QueryText(qr.Query)
		out = append(out, QueryTopK{Query: qr.Query, Text: text, Matches: qr.Matches})
	}
	return out, nil
}

func (n localNode) Stats() (core.Stats, error) { return n.e.Stats(), nil }

func (n localNode) Status() (Status, error) {
	return Status{
		NextQuery: n.e.NextQueryID(),
		Queries:   n.e.Queries(),
		Window:    n.e.WindowLen(),
		Dict:      n.e.DictionarySize(),
	}, nil
}

func (n localNode) Close() error { return n.e.Close() }

// MergeStats folds per-node counters into the cluster view. Counters
// driven purely by the document stream must be identical on every node
// (each ingests the full stream); a mismatch means the cluster has
// diverged and is reported as an error rather than papered over.
// Counters driven by per-query maintenance are disjoint across the
// partition and sum to exactly the single-process values.
func MergeStats(parts []core.Stats) (core.Stats, error) {
	if len(parts) == 0 {
		return core.Stats{}, errors.New("cluster: no stats to merge")
	}
	m := parts[0]
	for i, s := range parts[1:] {
		if s.Arrivals != m.Arrivals || s.Expirations != m.Expirations ||
			s.Epochs != m.Epochs || s.IndexInserts != m.IndexInserts ||
			s.IndexDeletes != m.IndexDeletes {
			return core.Stats{}, fmt.Errorf(
				"cluster: node %d stream counters diverged from node 0: %+v vs %+v",
				i+1, s, m)
		}
		m.ProbeHits += s.ProbeHits
		m.SearchReads += s.SearchReads
		m.RollupSteps += s.RollupSteps
		m.RollupDrops += s.RollupDrops
		m.Refills += s.Refills
		m.TreeUpdates += s.TreeUpdates
		m.ScoreComputations += s.ScoreComputations
		m.Rescans += s.Rescans
	}
	return m, nil
}
