package core

import (
	"fmt"
	"math"
	"slices"

	"ita/internal/model"
)

// CheckInvariants verifies the floor invariants (see floor.go) for every
// owned query, that every R member's admit list names its query (see
// recordAdmit), plus structural consistency between the probe trees, the
// term table and the per-query floor state of this maintainer.
func (m *Maintainer) CheckInvariants() error {
	// Structural: every term's registered bound must be finite,
	// non-negative, and exactly the floor-derived value F·fac, and tree
	// sizes must add up to the total number of query terms. The dense
	// arena must agree with the ext→dense lookup in both directions.
	total := 0
	live := 0
	var structErr error
	m.eachLive(func(qs *queryState) {
		live++
		total += len(qs.terms)
		if structErr == nil && (qs.f < 0 || math.IsNaN(qs.f) || math.IsInf(qs.f, 0)) {
			structErr = fmt.Errorf("query %d: invalid floor %g", qs.q.ID, qs.f)
		}
		for i := range qs.terms {
			ts := &qs.terms[i]
			if structErr != nil {
				return
			}
			if math.IsInf(ts.b, 0) || math.IsNaN(ts.b) || ts.b < 0 {
				structErr = fmt.Errorf("query %d term %d: invalid bound %g", qs.q.ID, ts.term, ts.b)
				return
			}
			if want := boundFor(qs.f, ts.fac); ts.b != want {
				structErr = fmt.Errorf("query %d term %d: bound %g, want %g for floor %g", qs.q.ID, ts.term, ts.b, want, qs.f)
				return
			}
		}
		if v, ok := m.views.lookup.Load(qs.q.ID); !ok || v.(uint32) != qs.id {
			if structErr == nil {
				structErr = fmt.Errorf("query %d: dense slot %d not resolvable through the lookup", qs.q.ID, qs.id)
			}
		}
	})
	if structErr != nil {
		return structErr
	}
	if live != m.n {
		return fmt.Errorf("arena holds %d live slots, maintainer counts %d", live, m.n)
	}
	lookupN := 0
	m.views.lookup.Range(func(any, any) bool { lookupN++; return true })
	if lookupN != m.n {
		return fmt.Errorf("lookup holds %d entries, maintainer owns %d queries", lookupN, m.n)
	}
	if int(m.next) != m.n+len(m.free) {
		return fmt.Errorf("arena high-water %d != %d live + %d free", m.next, m.n, len(m.free))
	}
	if err := m.checkTrees(total); err != nil {
		return err
	}

	var err error
	m.eachLive(func(qs *queryState) {
		if err == nil {
			err = m.checkQuery(qs)
		}
	})
	return err
}

// checkTrees verifies the tree slice against the term table: each
// term-table reference names a distinct non-empty tree, every other
// slot is an empty one on the free list, every owned query term has a
// tree, and the trees hold terms entries in all.
func (m *Maintainer) checkTrees(terms int) error {
	refs := make([]int, len(m.trees))
	for t, e := range m.termTab {
		if e.tree == 0 {
			continue
		}
		if int(e.tree) > len(m.trees) {
			return fmt.Errorf("term %d names tree %d of %d", t, e.tree, len(m.trees))
		}
		if refs[e.tree-1]++; refs[e.tree-1] > 1 {
			return fmt.Errorf("term %d shares tree %d with another term", t, e.tree)
		}
		if m.trees[e.tree-1].Len() == 0 {
			return fmt.Errorf("term %d holds empty tree %d", t, e.tree)
		}
	}
	for _, i := range m.freeTrees {
		if i == 0 || int(i) > len(m.trees) || refs[i-1] != 0 || m.trees[i-1].Len() != 0 {
			return fmt.Errorf("free tree %d is referenced, out of range or not empty", i)
		}
		refs[i-1] = -1
	}
	entries := 0
	for i := range m.trees {
		if refs[i] == 0 {
			return fmt.Errorf("tree %d is neither referenced nor free", i+1)
		}
		entries += m.trees[i].Len()
	}
	if entries != terms {
		return fmt.Errorf("probe trees hold %d entries, queries own %d terms", entries, terms)
	}
	var err error
	m.eachLive(func(qs *queryState) {
		for i := range qs.terms {
			if t := qs.terms[i].term; err == nil && (int(t) >= len(m.termTab) || m.termTab[t].tree == 0) {
				err = fmt.Errorf("query %d term %d has no probe tree", qs.q.ID, t)
			}
		}
	})
	return err
}

func (m *Maintainer) checkQuery(qs *queryState) error {
	qid := qs.q.ID
	k := qs.q.K

	// R soundness: every member is valid, carries its exact score, sits
	// at or above the floor, beats at least one probe bound, and is
	// named by its admit list (the expiry walk reaches R holders only
	// through those lists; without either, its expiration could never
	// evict it).
	var rErr error
	qs.r.Each(func(doc model.DocID, score float64) {
		if rErr != nil {
			return
		}
		d, ok := m.index.Get(doc)
		if !ok {
			rErr = fmt.Errorf("R: query %d holds expired doc %d", qid, doc)
			return
		}
		if want := model.Score(qs.q, d); score != want {
			rErr = fmt.Errorf("R: query %d doc %d stored score %g, true score %g", qid, doc, score, want)
			return
		}
		if score < qs.f {
			rErr = fmt.Errorf("R: query %d doc %d scores %g below floor %g", qid, doc, score, qs.f)
			return
		}
		reachable := false
		for i := range qs.terms {
			if w, has := d.Weight(qs.terms[i].term); has && w >= qs.terms[i].b {
				reachable = true
				break
			}
		}
		if !reachable {
			rErr = fmt.Errorf("R: query %d doc %d beats no probe bound (floor %g)", qid, doc, qs.f)
			return
		}
		if s := m.at(doc); s.doc != doc || !slices.Contains(s.refs, qs.id) {
			rErr = fmt.Errorf("R: query %d holds doc %d, whose admit list does not name it", qid, doc)
		}
	})
	if rErr != nil {
		return rErr
	}

	// Completeness — every valid document outside R scores at most F.
	// The comparison is exact: scores and the floor are both produced by
	// the same deterministic float pipeline, and admission uses ≥ F, so
	// an outside document above F is a real maintenance bug, not
	// rounding.
	var cErr error
	m.index.Docs(func(d *model.Document) {
		if cErr != nil || qs.r.Contains(d.ID) {
			return
		}
		if s := model.Score(qs.q, d); s > qs.f {
			cErr = fmt.Errorf("completeness: query %d doc %d outside R scores %g > floor %g", qid, d.ID, s, qs.f)
		}
	})
	if cErr != nil {
		return cErr
	}

	// Verification — F ≤ Sk whenever R holds k documents, so the
	// reported top-k is a true top-k of the window.
	if qs.r.Len() >= k {
		if sk := qs.r.Kth(k); qs.f > sk {
			return fmt.Errorf("query %d floor %g > Sk=%g with |R|=%d", qid, qs.f, sk, qs.r.Len())
		}
	}
	return nil
}
