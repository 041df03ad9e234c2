package cluster

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"ita/internal/core"
	"ita/internal/model"
)

// Router fronts a fixed set of cluster nodes with the single-engine
// API. Writes fan out in parallel — every node sees every document, so
// the replicated stream state (window, index, dictionary) stays
// identical everywhere, and since the nodes are independent processes
// behind independent connections, a cluster write costs the slowest
// node's round-trip rather than their sum — while each query's
// registration and result serving go to the one node the placement
// hash assigns it. Reads merge: the union of per-node results equals a
// single-process engine over the same inputs, byte for byte.
//
// The Router serializes mutations internally; it is safe for
// concurrent use. It does not own node lifecycle beyond Close, and a
// failed node can be replaced in place with SwapNode after its standby
// is promoted — the placement hash depends only on the slot index, so
// the swap is invisible to query routing.
type Router struct {
	mu    sync.Mutex
	nodes []Node
	next  model.QueryID
}

// NewRouter builds a router over nodes, adopting the query-id cursor
// from their status. The nodes must agree on NextQuery — they always
// do when every registration has gone through a router, since both the
// owning and the aligning side consume the id.
func NewRouter(nodes []Node) (*Router, error) {
	if len(nodes) == 0 {
		return nil, errors.New("cluster: router needs at least one node")
	}
	st0, err := nodes[0].Status()
	if err != nil {
		return nil, fmt.Errorf("cluster: status of node 0: %w", err)
	}
	for i, n := range nodes[1:] {
		st, err := n.Status()
		if err != nil {
			return nil, fmt.Errorf("cluster: status of node %d: %w", i+1, err)
		}
		if st.NextQuery != st0.NextQuery {
			return nil, fmt.Errorf("cluster: node %d next-query cursor %d != node 0's %d (unaligned registration history)",
				i+1, st.NextQuery, st0.NextQuery)
		}
	}
	return &Router{nodes: nodes, next: st0.NextQuery}, nil
}

// Size returns the number of node slots.
func (r *Router) Size() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.nodes)
}

// Node returns the node in slot i (for per-owner access such as watch
// routing).
func (r *Router) Node(i int) Node {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nodes[i]
}

// SwapNode replaces slot i — the failover path: kill the node, promote
// its warm standby, swap the handle in. Placement depends only on the
// slot index, so routing is unchanged.
func (r *Router) SwapNode(i int, n Node) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nodes[i] = n
}

// Owner returns the slot owning query id.
func (r *Router) Owner(id model.QueryID) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return core.Placement(id, len(r.nodes))
}

// fanOut applies fn to every node except skip (-1 to include all)
// concurrently and waits for all of them; the caller must hold r.mu.
// Every node sees the call even when a peer fails — the replicated
// stream must advance on the healthy nodes either way, or the survivors
// would diverge from each other on top of the failed node — and the
// returned error is the lowest-indexed node's, exactly what the
// sequential loop this replaces reported. Nodes are network handles
// (or local engines with their own locks), so the per-node work is
// independent; fanning out in parallel turns a cluster write from a
// sum of node round-trips into the slowest one.
func (r *Router) fanOut(skip int, fn func(i int, n Node) error) error {
	if len(r.nodes) == 1 {
		if skip == 0 {
			return nil
		}
		return fn(0, r.nodes[0])
	}
	errs := make([]error, len(r.nodes))
	var wg sync.WaitGroup
	for i, n := range r.nodes {
		if i == skip {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i, n)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Register assigns the next query id, registers on the owning node and
// aligns the dictionary everywhere else. An owner failure leaves the
// id unconsumed and the cluster untouched. An alignment failure rolls
// the registration back on the owner and surfaces the node's error
// (unwrapped for errors.Is); the id stays consumed — nodes that
// already aligned cannot un-intern — and the failed node must resync
// from a healthy peer before its dictionary can be trusted again,
// which is the same repair a crashed node needs anyway.
func (r *Router) Register(text string, k int) (model.QueryID, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := r.next
	owner := core.Placement(id, len(r.nodes))
	if err := r.nodes[owner].RegisterWithID(id, text, k); err != nil {
		return 0, fmt.Errorf("cluster: register on owner node %d: %w", owner, err)
	}
	r.next = id + 1
	err := r.fanOut(owner, func(i int, n Node) error {
		if err := n.AlignRegister(id, text); err != nil {
			return fmt.Errorf("cluster: align on node %d: %w", i, err)
		}
		return nil
	})
	if err != nil {
		if _, uerr := r.nodes[owner].Unregister(id); uerr != nil {
			return 0, fmt.Errorf("%w (and rollback on owner %d failed too: %v)", err, owner, uerr)
		}
		return 0, err
	}
	return id, nil
}

// Unregister removes the query from its owner. The other nodes do not
// know the id, and a single-process engine does nothing for an id it
// does not know, so they are left alone.
func (r *Router) Unregister(id model.QueryID) (bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	owner := core.Placement(id, len(r.nodes))
	ok, err := r.nodes[owner].Unregister(id)
	if err != nil {
		return false, fmt.Errorf("cluster: unregister on owner node %d: %w", owner, err)
	}
	return ok, nil
}

// IngestText fans the document to every node with one shared arrival
// time and checks the assigned ids agree — a mismatch means a node
// missed an earlier document and the cluster has diverged.
func (r *Router) IngestText(text string, at time.Time) (model.DocID, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ids := make([]model.DocID, len(r.nodes))
	err := r.fanOut(-1, func(i int, n Node) error {
		id, err := n.IngestText(text, at)
		if err != nil {
			return fmt.Errorf("cluster: ingest on node %d: %w", i, err)
		}
		ids[i] = id
		return nil
	})
	if err != nil {
		return 0, err
	}
	for i, id := range ids[1:] {
		if id != ids[0] {
			return 0, fmt.Errorf("cluster: node %d assigned doc id %d, node 0 assigned %d (diverged streams)", i+1, id, ids[0])
		}
	}
	return ids[0], nil
}

// IngestBatch fans one epoch's batch to every node.
func (r *Router) IngestBatch(items []model.TimedText) ([]model.DocID, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	got := make([][]model.DocID, len(r.nodes))
	err := r.fanOut(-1, func(i int, n Node) error {
		ids, err := n.IngestBatch(items)
		if err != nil {
			return fmt.Errorf("cluster: ingest batch on node %d: %w", i, err)
		}
		got[i] = ids
		return nil
	})
	if err != nil {
		return nil, err
	}
	ids := got[0]
	for i, g := range got[1:] {
		if len(g) != len(ids) || (len(g) > 0 && g[0] != ids[0]) {
			return nil, fmt.Errorf("cluster: node %d assigned batch ids %v, node 0 assigned %v (diverged streams)", i+1, g, ids)
		}
	}
	return ids, nil
}

// Advance moves every node's stream clock.
func (r *Router) Advance(now time.Time) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fanOut(-1, func(i int, n Node) error {
		if err := n.Advance(now); err != nil {
			return fmt.Errorf("cluster: advance on node %d: %w", i, err)
		}
		return nil
	})
}

// Results serves a query's top-k from its owning node.
func (r *Router) Results(id model.QueryID) ([]model.Match, string, bool, error) {
	r.mu.Lock()
	owner := r.nodes[core.Placement(id, len(r.nodes))]
	r.mu.Unlock()
	return owner.Results(id)
}

// ResultsAll merges every node's owned queries into one ascending-id
// listing — the same order a single-process ResultsAll returns.
func (r *Router) ResultsAll() ([]QueryTopK, error) {
	r.mu.Lock()
	nodes := append([]Node(nil), r.nodes...)
	r.mu.Unlock()
	var all []QueryTopK
	for i, n := range nodes {
		part, err := n.ResultsAll()
		if err != nil {
			return nil, fmt.Errorf("cluster: results from node %d: %w", i, err)
		}
		all = append(all, part...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Query < all[j].Query })
	return all, nil
}

// Stats merges per-node counters (see MergeStats).
func (r *Router) Stats() (core.Stats, error) {
	r.mu.Lock()
	nodes := append([]Node(nil), r.nodes...)
	r.mu.Unlock()
	parts := make([]core.Stats, 0, len(nodes))
	for i, n := range nodes {
		s, err := n.Stats()
		if err != nil {
			return core.Stats{}, fmt.Errorf("cluster: stats from node %d: %w", i, err)
		}
		parts = append(parts, s)
	}
	return MergeStats(parts)
}

// Status merges node statuses: queries sum across the partition, the
// stream-derived gauges must agree.
func (r *Router) Status() (Status, error) {
	r.mu.Lock()
	nodes := append([]Node(nil), r.nodes...)
	r.mu.Unlock()
	var merged Status
	for i, n := range nodes {
		st, err := n.Status()
		if err != nil {
			return Status{}, fmt.Errorf("cluster: status from node %d: %w", i, err)
		}
		if i == 0 {
			merged = st
			continue
		}
		if st.NextQuery != merged.NextQuery || st.Window != merged.Window || st.Dict != merged.Dict {
			return Status{}, fmt.Errorf("cluster: node %d status %+v disagrees with node 0 on stream state %+v", i, st, merged)
		}
		merged.Queries += st.Queries
	}
	return merged, nil
}

// Close closes every node handle, reporting the first failure.
func (r *Router) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var first error
	for _, n := range r.nodes {
		if err := n.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
