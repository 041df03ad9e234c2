package core

import (
	"fmt"
	"math"

	"ita/internal/model"
	"ita/internal/topk"
)

// QueryState is the exact serializable incremental state of one query:
// the score floor F and the full result list R with exact scores.
// Together with the window contents it reconstructs a maintainer
// byte-for-byte in every observable respect — results, floor, probe
// bounds (pure functions of F and the query's term weights), and
// therefore every future maintenance decision and operation counter.
type QueryState struct {
	F float64
	R []model.ScoredDoc
}

// StateSnapshotter is implemented by engines whose complete incremental
// state can be exported and restored exactly — ITA, at any shard count.
// The restore contract is: build an empty engine with the identical
// configuration, call RestoreWindow once with the valid documents in
// arrival order, RestoreQueryState for every query, then SetStats with
// the counters captured at export. The engine must be quiescent
// throughout. Engines without it (the Naïve baselines) are restored by
// replaying the window, which reproduces results but not floors or
// counters.
type StateSnapshotter interface {
	ExportQueryState(id model.QueryID) (QueryState, bool)
	RestoreWindow(docs []*model.Document) error
	RestoreQueryState(q *model.Query, st QueryState) error
	SetStats(s Stats)
}

// ExportState returns the exact incremental state of query id.
func (m *Maintainer) ExportState(id model.QueryID) (QueryState, bool) {
	qs := m.lookup(id)
	if qs == nil {
		return QueryState{}, false
	}
	st := QueryState{
		F: qs.f,
		R: make([]model.ScoredDoc, 0, qs.r.Len()),
	}
	qs.r.Each(func(doc model.DocID, score float64) {
		st.R = append(st.R, model.ScoredDoc{Doc: doc, Score: score})
	})
	return st, true
}

// RestoreQuery installs a query with previously exported state instead
// of running the initial top-k search: R is rebuilt from its exact
// entries and the floor re-derives every probe bound bit-identically
// (bounds are pure functions of F). Validation is defensive — a
// corrupted checkpoint must surface as an error, never a panic or a
// silently broken invariant.
func (m *Maintainer) RestoreQuery(q *model.Query, st QueryState) error {
	if m.Has(q.ID) {
		return fmt.Errorf("core: duplicate query id %d", q.ID)
	}
	if st.F < 0 || math.IsNaN(st.F) || math.IsInf(st.F, 0) {
		return fmt.Errorf("core: restore query %d: invalid floor %g", q.ID, st.F)
	}
	// All-or-nothing: validate into locals first, claim an arena slot
	// and mutate shared structures only afterwards, so a rejected state
	// leaves the maintainer untouched.
	var r topk.ResultSet
	for _, sd := range st.R {
		if sd.Score < st.F {
			return fmt.Errorf("core: restore query %d: result doc %d scores %g below floor %g", q.ID, sd.Doc, sd.Score, st.F)
		}
		if r.Contains(sd.Doc) {
			return fmt.Errorf("core: restore query %d: duplicate result document %d", q.ID, sd.Doc)
		}
		r.Add(sd.Doc, sd.Score)
	}
	qs := m.install(q, r)
	// Rebuild the admit lists the live run would have accumulated: the
	// restored query holds exactly st.R, so each member's expiry must
	// find it. List order differs from the live chronology, which is
	// immaterial — expiry maintenance is independent per query.
	for _, sd := range st.R {
		m.recordAdmit(sd.Doc, qs.id)
	}
	m.setFloor(qs, st.F)
	m.markDirty(qs)
	return nil
}
