// Package topk implements the per-query result list R of the paper: all
// encountered documents (verified or not) with their exact scores,
// ordered by descending score, with order-statistic access to the k-th
// score Sk.
//
// R is two parallel sorted slices — (score desc, doc asc) result order
// and doc order — at 32 bytes per document with zero per-entry
// allocation; an update is a binary search plus one memmove in each. At
// engine scale R holds tens of documents: k plus the floor margins,
// since a rebuild admits only the documents that reach its new floor
// and a floor raise trims arrivals back to it. Only ties can hold more
// (a raise cannot pass a score its target-th member shares), so Remove
// still releases a backing array once it is mostly empty (see shrink).
package topk

import "ita/internal/model"

type entry struct {
	score float64
	doc   model.DocID
}

// Higher scores first; ties broken by ascending doc id. This matches
// model.SortScored so engine outputs are directly comparable.
func entryLess(a, b entry) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	return a.doc < b.doc
}

// docScore is one entry of the doc-ordered index.
type docScore struct {
	doc   model.DocID
	score float64
}

// ResultSet is R for a single query. The zero value is not usable; call
// NewResultSet.
type ResultSet struct {
	owner model.QueryID

	// Parallel sorted slices: order is result order (score desc, doc
	// asc); docs is ascending doc order.
	order []entry
	docs  []docScore

	// Copy-on-publish cache: the last frozen top-k, invalidated by any
	// mutation. Freezing an unchanged result set returns the same
	// pointer, which is what makes per-epoch publication cost
	// proportional to the queries an epoch actually touched.
	frozen  *Frozen
	frozenK int
}

// Frozen is an immutable snapshot of a result set's top-k, taken at a
// publication boundary. Holders may read it from any goroutine without
// synchronization; nobody may mutate it.
type Frozen struct {
	// Query is the external id of the query the snapshot belongs to.
	// Readers resolving a query through a reused dense publication slot
	// validate ownership against it (see internal/core/view.go).
	Query model.QueryID
	// Docs is the top-k in descending score order (ties by ascending
	// document id), never nil.
	Docs []model.ScoredDoc
}

// NewResultSet returns an empty result set owned by query owner.
func NewResultSet(owner model.QueryID) *ResultSet {
	return &ResultSet{owner: owner}
}

// Freeze returns an immutable snapshot of the current top-k. The
// snapshot is cached: freezing again without an intervening Add or
// Remove returns the identical *Frozen, so publishing an untouched
// query is a pointer comparison away from free.
func (r *ResultSet) Freeze(k int) *Frozen {
	if r.frozen != nil && r.frozenK == k {
		return r.frozen
	}
	r.frozen = &Frozen{Query: r.owner, Docs: r.Top(k)}
	r.frozenK = k
	return r.frozen
}

// Len returns the number of documents in R.
func (r *ResultSet) Len() int { return len(r.order) }

// docIdx returns the doc-index position of doc and whether it is
// present. Hand-rolled binary search: this sits on the per-event hot
// path (every R add/remove/membership test at engine scale), where
// sort.Search's closure call per halving step is measurable.
func (r *ResultSet) docIdx(doc model.DocID) (int, bool) {
	// Endpoint fast paths. Sliding-window streams with monotonically
	// assigned document ids hit these almost always: an expiring
	// document is the window's oldest (at or below position 0) and an
	// arriving one its newest (past the end), so both membership tests
	// touch one cache line instead of a log-width pointer chase through
	// a cold slice. Non-monotonic id assignment just falls through.
	if n := len(r.docs); n == 0 || doc <= r.docs[0].doc {
		return 0, n > 0 && r.docs[0].doc == doc
	} else if doc > r.docs[n-1].doc {
		return n, false
	}
	lo, hi := 1, len(r.docs)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.docs[mid].doc < doc {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(r.docs) && r.docs[lo].doc == doc
}

// orderIdx returns the result-order position of e: the first index
// whose entry does not sort before e (same contract as sort.Search over
// !entryLess, without the closure calls).
func (r *ResultSet) orderIdx(e entry) int {
	lo, hi := 0, len(r.order)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if entryLess(r.order[mid], e) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Add inserts document doc with the given score. Adding a document that
// is already present panics: scores are immutable while a document is in
// the window, so a re-add indicates an engine bug.
func (r *ResultSet) Add(doc model.DocID, score float64) {
	r.frozen = nil
	di, present := r.docIdx(doc)
	if present {
		panic("topk: document added twice")
	}
	e := entry{score: score, doc: doc}
	oi := r.orderIdx(e)
	r.order = append(r.order, entry{})
	copy(r.order[oi+1:], r.order[oi:])
	r.order[oi] = e
	r.docs = append(r.docs, docScore{})
	copy(r.docs[di+1:], r.docs[di:])
	r.docs[di] = docScore{doc: doc, score: score}
}

// Remove deletes doc from R, reporting whether it was present.
func (r *ResultSet) Remove(doc model.DocID) bool {
	di, present := r.docIdx(doc)
	if !present {
		return false
	}
	r.frozen = nil
	oi := r.orderIdx(entry{score: r.docs[di].score, doc: doc})
	r.docs = append(r.docs[:di], r.docs[di+1:]...)
	r.order = append(r.order[:oi], r.order[oi+1:]...)
	r.shrink()
	return true
}

// shrink reallocates both slices at twice their length once they use
// under a quarter of their capacity. Ties at the floor can grow R far
// past its margins before expirations drain it again; without this the
// high-water backing arrays would stay pinned for the query's lifetime.
// Reallocating at 2·len leaves room to grow back to 2·len and shrink to
// len/2 before either happens again, so a steady-size R never thrashes.
func (r *ResultSet) shrink() {
	n := len(r.order)
	if c := cap(r.order); c <= 32 || n*4 >= c {
		return
	}
	r.order = append(make([]entry, 0, 2*n), r.order...)
	r.docs = append(make([]docScore, 0, 2*n), r.docs...)
}

// Score returns doc's stored score.
func (r *ResultSet) Score(doc model.DocID) (float64, bool) {
	if i, ok := r.docIdx(doc); ok {
		return r.docs[i].score, true
	}
	return 0, false
}

// Contains reports whether doc is in R.
func (r *ResultSet) Contains(doc model.DocID) bool {
	_, ok := r.docIdx(doc)
	return ok
}

// Kth returns the k-th best score Sk (1-based), or 0 when R holds fewer
// than k documents — the identity under which any positive-scoring
// document beats an unfilled result slot.
func (r *ResultSet) Kth(k int) float64 {
	if k <= 0 || len(r.order) < k {
		return 0
	}
	return r.order[k-1].score
}

// Top returns the best min(k, Len) documents in result order.
func (r *ResultSet) Top(k int) []model.ScoredDoc {
	n := min(k, len(r.order))
	out := make([]model.ScoredDoc, n)
	for i, e := range r.order[:n] {
		out[i] = model.ScoredDoc{Doc: e.doc, Score: e.score}
	}
	return out
}

// Worst returns the lowest-ranked document in R. It is used by the
// bounded view of the Naïve+kmax baseline to evict beyond kmax.
func (r *ResultSet) Worst() (model.ScoredDoc, bool) {
	n := len(r.order)
	if n == 0 {
		return model.ScoredDoc{}, false
	}
	e := r.order[n-1]
	return model.ScoredDoc{Doc: e.doc, Score: e.score}, true
}

// Each calls fn for every document in R in result order.
func (r *ResultSet) Each(fn func(doc model.DocID, score float64)) {
	for _, e := range r.order {
		fn(e.doc, e.score)
	}
}

// MemoryBytes estimates the result set's heap footprint: the fixed
// header plus 16 bytes per slot of capacity in each slice.
func (r *ResultSet) MemoryBytes() uint64 {
	const fixed = 120
	return fixed + uint64(cap(r.order))*16 + uint64(cap(r.docs))*16
}
