// Package topk implements the per-query result list R of the paper: all
// encountered documents (verified or not) with their exact scores,
// ordered by descending score, with order-statistic access to the k-th
// score Sk.
//
// R is one slice in result order (score desc, doc asc) at 16 bytes per
// document with zero per-entry allocation. At engine scale R holds tens
// of documents: k plus the floor margins, since a rebuild admits only
// the documents that reach its new floor and a floor raise trims
// arrivals back to it. So an insert is a binary search plus one memmove,
// and a membership test (Remove, Contains, Score) is a linear scan of
// the same few cache lines the memmove touches anyway; a doc-ordered
// twin would double R's bytes to save a scan no longer than a memmove.
// Only ties can hold more (a raise cannot pass a score its target-th
// member shares), so Remove still releases a backing array once it is
// mostly empty (see shrink).
package topk

import (
	"unsafe"

	"ita/internal/model"
)

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

// ResultSet is R for a single query. The zero value is an empty set.
type ResultSet struct {
	// order is R in result order: score desc, doc asc.
	order []entry

	// Copy-on-publish cache: the last frozen top-k, invalidated by any
	// mutation. Freezing an unchanged result set returns the same
	// pointer, which is what makes per-epoch publication cost
	// proportional to the queries an epoch actually touched.
	frozen *Frozen
}

// Frozen is an immutable snapshot of a result set's top-k, taken at a
// publication boundary. Holders may read it from any goroutine without
// synchronization; nobody may mutate it.
type Frozen struct {
	// Query is the query the snapshot belongs to, so a published
	// snapshot carries its query's id, k, terms and text. Readers
	// resolving a query through a reused dense publication slot
	// validate ownership against Query.ID (see internal/core/view.go).
	Query *model.Query
	// Docs is the top-k in descending score order (ties by ascending
	// document id), never nil.
	Docs []model.ScoredDoc
}

// Freeze returns an immutable snapshot of q's current top-k (q.K
// documents). The snapshot is cached: freezing for the same q again
// without an intervening Add or Remove returns the identical *Frozen,
// so publishing an untouched query is a pointer comparison away from
// free.
func (r *ResultSet) Freeze(q *model.Query) *Frozen {
	if r.frozen == nil || r.frozen.Query != q {
		r.frozen = &Frozen{Query: q, Docs: r.Top(q.K)}
	}
	return r.frozen
}

// Len returns the number of documents in R.
func (r *ResultSet) Len() int { return len(r.order) }

// find returns doc's result-order position and whether it is present.
func (r *ResultSet) find(doc model.DocID) (int, bool) {
	for i := range r.order {
		if r.order[i].doc == doc {
			return i, true
		}
	}
	return -1, false
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
	if _, present := r.find(doc); present {
		panic("topk: document added twice")
	}
	r.frozen = nil
	e := entry{score: score, doc: doc}
	i := r.orderIdx(e)
	r.order = append(r.order, entry{})
	copy(r.order[i+1:], r.order[i:])
	r.order[i] = e
}

// Remove deletes doc from R, reporting whether it was present.
func (r *ResultSet) Remove(doc model.DocID) bool {
	i, present := r.find(doc)
	if !present {
		return false
	}
	r.frozen = nil
	r.order = append(r.order[:i], r.order[i+1:]...)
	r.shrink()
	return true
}

// shrink reallocates the slice at twice its length once it uses under
// a quarter of its capacity. Ties at the floor can grow R far
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
}

// Score returns doc's stored score.
func (r *ResultSet) Score(doc model.DocID) (float64, bool) {
	if i, ok := r.find(doc); ok {
		return r.order[i].score, true
	}
	return 0, false
}

// Contains reports whether doc is in R.
func (r *ResultSet) Contains(doc model.DocID) bool {
	_, ok := r.find(doc)
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

// MemoryBytes estimates the heap the result set's entries hold: 16
// bytes per slot of capacity. The ResultSet value itself is its
// holder's, and the cached frozen snapshot the published view's.
func (r *ResultSet) MemoryBytes() uint64 {
	return uint64(cap(r.order)) * uint64(unsafe.Sizeof(entry{}))
}
