// Package model defines the identifiers and value types shared by every
// layer of the continuous text search engine: documents, postings,
// queries and scored results.
//
// All types are plain values with no behaviour beyond validation and
// lookup helpers, so that the index, engine and harness layers can
// exchange them without depending on one another.
package model

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"
)

// DocID uniquely identifies a document for the lifetime of the stream.
// The stream driver assigns ids in arrival order, but the engine only
// requires uniqueness, not monotonicity.
type DocID uint64

// TermID identifies a dictionary term. Term ids are assigned by the
// textproc dictionary, which hands out the next unused integer
// (Dictionary.Intern), so the ids in use are dense in [0, dictionary
// size) and a table indexed by TermID wastes nothing — the inverted
// index relies on that. The engine otherwise treats them as opaque.
type TermID uint32

// QueryID identifies a registered continuous query.
type QueryID uint64

// TermCount is one analysed term with its raw frequency f_{x,t} in a
// document or query text. Analysis emits them sorted by ascending
// TermID, the order the weighting layer keeps.
type TermCount struct {
	Term  TermID
	Count int
}

// Posting is one entry of a document's composition list: the impact
// weight w_{d,t} of term t in document d.
type Posting struct {
	Term   TermID
	Weight float64
}

// Document is one element of the input stream. Postings holds the
// composition list sorted by ascending TermID with strictly positive
// weights and no duplicate terms; NewDocument enforces these invariants.
type Document struct {
	ID       DocID
	Arrival  time.Time
	Postings []Posting
}

// Validation errors returned by NewDocument and NewQuery.
var (
	ErrUnsortedPostings  = errors.New("model: postings not sorted by term id")
	ErrDuplicateTerm     = errors.New("model: duplicate term")
	ErrNonPositiveWeight = errors.New("model: non-positive weight")
	ErrNoTerms           = errors.New("model: no terms")
	ErrBadK              = errors.New("model: k must be positive")
)

// NewDocument validates and builds a Document. The postings slice is
// sorted in place by term id (analysis already emits it sorted, so the
// usual cost is one check). A posting with zero or negative weight is
// rejected rather than silently dropped, because upstream weighting is
// expected to have removed non-occurring terms already.
func NewDocument(id DocID, arrival time.Time, postings []Posting) (*Document, error) {
	sortByTerm(postings, func(p Posting) TermID { return p.Term })
	for i, p := range postings {
		if !(p.Weight > 0) { // also rejects NaN
			return nil, fmt.Errorf("%w: term %d weight %g in doc %d", ErrNonPositiveWeight, p.Term, p.Weight, id)
		}
		if i > 0 && postings[i-1].Term == p.Term {
			return nil, fmt.Errorf("%w: term %d in doc %d", ErrDuplicateTerm, p.Term, id)
		}
	}
	return &Document{ID: id, Arrival: arrival, Postings: postings}, nil
}

// sortByTerm sorts s in place by the term id of each element, after a
// check that skips the sort for input that is already in order.
func sortByTerm[T any](s []T, term func(T) TermID) {
	byTerm := func(a, b T) int { return cmp.Compare(term(a), term(b)) }
	if !slices.IsSortedFunc(s, byTerm) {
		slices.SortFunc(s, byTerm)
	}
}

// Weight returns the impact weight of term t in the document, or
// (0, false) when the document does not contain t. It gallops through
// the composition list (see seek), so it costs O(log i) for the i-th
// posting.
func (d *Document) Weight(t TermID) (float64, bool) {
	if i := seek(d.Postings, t); i < len(d.Postings) && d.Postings[i].Term == t {
		return d.Postings[i].Weight, true
	}
	return 0, false
}

// seek returns the index of the first posting in ps at or past term t,
// len(ps) when there is none. It gallops: the step from ps[0] doubles
// until it passes t, then a binary search runs inside the last step, so
// finding the i-th posting costs O(log i) — cheap near the front, and
// never worse than twice a plain binary search.
func seek(ps []Posting, t TermID) int {
	if len(ps) == 0 || ps[0].Term >= t {
		return 0
	}
	// ps[lo].Term < t throughout; the answer lies in (lo, hi].
	lo, step := 0, 1
	for lo+step < len(ps) && ps[lo+step].Term < t {
		lo += step
		step *= 2
	}
	hi := min(lo+step, len(ps))
	for lo++; lo < hi; {
		mid := int(uint(lo+hi) >> 1)
		if ps[mid].Term < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Terms returns the number of distinct terms in the document.
func (d *Document) Terms() int { return len(d.Postings) }

// QueryTerm is one search term of a continuous query with its query-side
// weight w_{Q,t}.
type QueryTerm struct {
	Term   TermID
	Weight float64
}

// Query is a registered continuous text search query: a set of weighted
// terms and the requested result size K. Terms are sorted by ascending
// TermID with strictly positive weights and no duplicates; NewQuery
// enforces these invariants. Text is the text the terms were analysed
// from; engines carry it but never read it.
type Query struct {
	ID    QueryID
	K     int
	Terms []QueryTerm
	Text  string
}

// NewQuery validates and builds a Query. The terms slice is sorted in
// place by term id.
func NewQuery(id QueryID, k int, terms []QueryTerm) (*Query, error) {
	if k <= 0 {
		return nil, fmt.Errorf("%w: %d", ErrBadK, k)
	}
	if len(terms) == 0 {
		return nil, ErrNoTerms
	}
	sortByTerm(terms, func(t QueryTerm) TermID { return t.Term })
	for i, t := range terms {
		if !(t.Weight > 0) { // also rejects NaN
			return nil, fmt.Errorf("%w: term %d weight %g in query %d", ErrNonPositiveWeight, t.Term, t.Weight, id)
		}
		if i > 0 && terms[i-1].Term == t.Term {
			return nil, fmt.Errorf("%w: term %d in query %d", ErrDuplicateTerm, t.Term, id)
		}
	}
	return &Query{ID: id, K: k, Terms: terms}, nil
}

// Weight returns the query-side weight of term t, or (0, false) when the
// query does not contain t.
func (q *Query) Weight(t TermID) (float64, bool) {
	i := sort.Search(len(q.Terms), func(i int) bool { return q.Terms[i].Term >= t })
	if i < len(q.Terms) && q.Terms[i].Term == t {
		return q.Terms[i].Weight, true
	}
	return 0, false
}

// Score computes S(d|Q) = Σ_{t∈Q} w_{Q,t}·w_{d,t}. It is the single
// definition of similarity used by every engine, the oracle and the
// tests.
//
// A query holds a handful of terms and a document hundreds of postings,
// so Score walks the query's terms in ascending order and gallops (see
// seek) through the postings past the previous match for each one,
// instead of stepping over every posting. The shared terms are still
// summed in ascending term order, the order a merge-join of the two
// lists visits them, so the result is bit-identical to one.
func Score(q *Query, d *Document) float64 {
	var s float64
	ps := d.Postings
	for _, qt := range q.Terms {
		if len(ps) == 0 {
			break
		}
		if ps[0].Term < qt.Term {
			if ps = ps[seek(ps, qt.Term):]; len(ps) == 0 {
				break
			}
		}
		if ps[0].Term == qt.Term {
			s += qt.Weight * ps[0].Weight
			ps = ps[1:]
		}
	}
	return s
}

// Match is one result entry of a continuous query as served by the
// engine facade: the document, its score, and (when the engine retains
// texts) the original text.
type Match struct {
	Doc   DocID
	Score float64
	// Text is the document's original text when the engine was built
	// with text retention, empty otherwise.
	Text string
}

// QueryResult pairs a query with its current top-k.
type QueryResult struct {
	Query   QueryID
	Matches []Match
}

// TimedText is one element of a batched ingest call: a raw document
// text with its arrival time.
type TimedText struct {
	Text string
	At   time.Time
}

// ScoredDoc pairs a document id with its similarity score for one query.
type ScoredDoc struct {
	Doc   DocID
	Score float64
}

// SortScored orders scored documents by descending score, breaking ties
// by ascending document id. This is the canonical result order used by
// all engines so results can be compared byte-for-byte in tests.
func SortScored(s []ScoredDoc) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].Score != s[j].Score {
			return s[i].Score > s[j].Score
		}
		return s[i].Doc < s[j].Doc
	})
}
