// Package threshtree implements the per-term probe indexes of the
// engine: one structure per inverted list holding an entry ⟨b_{Q,t}, Q⟩
// for every query Q that includes term t, where b_{Q,t} is the smallest
// impact weight of term t that could contribute to pushing a document's
// score up to Q's current score floor. Entries are ordered by ascending
// bound, so "all queries a given term contribution can matter to" is a
// prefix scan with an early exit — ProbeBeatable — instead of a walk
// over every query registered on the term.
//
// The tree also maintains the term's minimum bound (MinTheta) in O(1),
// which gives the engine a whole-term skip: when an arrival's (or an
// epoch's maximum) contribution for a term is below the term's min-θ, no
// query on that term can be affected and the tree is not probed at all.
//
// A tree is one sorted slice: 16 bytes per entry, zero per-entry
// allocation, binary-search updates plus one memmove, and a contiguous
// prefix probe. Query populations per term are Zipfian, but even the
// Zipf head stays small enough for that: with query terms drawn from
// the corpus Zipf (bench workload hot-terms) only 14 of 3 365 trees
// exceed 128 entries and the largest holds 2 326, and with 40 000
// ten-term queries over a uniform dictionary (many-queries) none of
// 161 719 trees exceeds 11.
//
// NewScanAll builds the entry-ordered reference twin: entries are kept
// in query ref order and ProbeBeatable scans all of them, testing each
// bound individually with no ordering and no early exit. It visits
// exactly the same set of queries (in ref order rather than θ order), so
// equivalence suites can prove the θ-ordered prefix scan loses no query;
// it is not a production configuration.
package threshtree

import "sort"

// Ref identifies a query registered in a tree. The engine passes dense
// internal query ids (see internal/core), never external QueryIDs: the
// tree is an interior structure below the API boundary.
type Ref = uint32

type key struct {
	theta float64
	ref   Ref
}

// Tree is the probe index of one inverted list. The zero value is not
// usable; call New or NewScanAll.
type Tree struct {
	// entries is sorted by (θ, ref), or by ref alone in scan-all mode.
	entries []key
	scanAll bool
}

// New returns an empty θ-ordered tree.
func New() *Tree {
	return &Tree{}
}

// NewScanAll returns an empty tree in entry-ordered reference mode:
// entries are kept in ref order, probes scan every entry, and MinTheta
// is a full scan. It exists so equivalence suites can prove the
// θ-ordered prefix probe visits exactly the same queries; it is not a
// production configuration.
func NewScanAll() *Tree {
	return &Tree{scanAll: true}
}

// Len returns the number of registered bounds.
func (t *Tree) Len() int { return len(t.entries) }

// less is the tree's entry order: (θ, ref), or ref alone in scan-all
// mode.
func (t *Tree) less(a, b key) bool {
	if !t.scanAll && a.theta != b.theta {
		return a.theta < b.theta
	}
	return a.ref < b.ref
}

// search returns the first position whose entry does not sort before k.
func (t *Tree) search(k key) int {
	return sort.Search(len(t.entries), func(i int) bool { return !t.less(t.entries[i], k) })
}

// Set registers (or re-registers) query q's bound for this term. A
// previous bound for q must be removed with Remove first. In θ-ordered
// mode Set with two different bounds for the same query stores both,
// which corrupts probing; in scan-all mode it overwrites the bound.
func (t *Tree) Set(q Ref, theta float64) {
	k := key{theta: theta, ref: q}
	i := t.search(k)
	if t.scanAll && i < len(t.entries) && t.entries[i].ref == q {
		t.entries[i] = k
		return
	}
	t.entries = append(t.entries, key{})
	copy(t.entries[i+1:], t.entries[i:])
	t.entries[i] = k
}

// Remove deletes query q's bound theta, reporting whether exactly that
// (q, theta) pair was present.
func (t *Tree) Remove(q Ref, theta float64) bool {
	k := key{theta: theta, ref: q}
	i := t.search(k)
	if i >= len(t.entries) || t.entries[i] != k {
		return false
	}
	t.entries = append(t.entries[:i], t.entries[i+1:]...)
	return true
}

// MinTheta returns the smallest bound registered in the tree, or
// (0, false) when the tree is empty. In θ order this is O(1) — the head
// of the slice — which is what makes the engine's whole-term skip free.
// In scan-all reference mode it is an O(n) scan.
func (t *Tree) MinTheta() (float64, bool) {
	if len(t.entries) == 0 {
		return 0, false
	}
	min := t.entries[0].theta
	if t.scanAll {
		for _, e := range t.entries[1:] {
			if e.theta < min {
				min = e.theta
			}
		}
	}
	return min, true
}

// ProbeBeatable calls fn for every query whose bound is beatable by the
// given term contribution c — every entry with θ ≤ c. In θ order this is
// a prefix walk that exits at the first entry past c, so its cost is
// proportional to the number of queries visited, not the number
// registered on the term; iteration is in ascending (θ, ref) order. In
// scan-all reference mode every entry is tested in ref order. fn must
// not modify the tree.
func (t *Tree) ProbeBeatable(c float64, fn func(q Ref)) {
	for _, e := range t.entries {
		if e.theta <= c {
			fn(e.ref)
		} else if !t.scanAll {
			return
		}
	}
}

// MemoryBytes estimates the tree's heap footprint: the fixed header plus
// 16 bytes per entry of slice capacity.
func (t *Tree) MemoryBytes() uint64 {
	const treeFixed = 64
	return treeFixed + uint64(cap(t.entries))*16
}
