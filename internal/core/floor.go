package core

// Score-floor maintenance. Each query carries a floor F ≥ 0 with the
// invariant pair
//
//	completeness: every valid document scoring ≥ F is in R with its
//	    exact score (so R's best k entries are a true top-k whenever
//	    |R| ≥ k, because any document outside R scores at most F ≤ Sk);
//	safety: every R member scores ≥ F.
//
// Boundary ties (score exactly F) may legitimately sit on either side:
// a document admitted at score == F stays until purged, while an unseen
// document at exactly F need not be found. This is the same guarantee
// class as the paper's τ-threshold formulation, where unseen documents
// are bounded by τ ≤ Sk with the identical tie exposure.
//
// The floor is what the per-term probe bounds are derived from: term t
// of query Q gets the bound
//
//	b_{Q,t} = F · fac_t,   fac_t = (1−1e-9) / (n·w_{Q,t})
//
// so that Σ_t w_{Q,t}·b_{Q,t} = F·(1−1e-9) < F. Two consequences, both
// load-bearing:
//
//	skip soundness: a document none of whose contributions reaches its
//	    bound (w_{d,t} < b_{Q,t} for all t) scores strictly below F, so
//	    skipping it cannot lose an R-worthy arrival.
//	R reachability: any document scoring ≥ F beats at least one bound
//	    (pigeonhole over the sum above — the 1e-9 relative slack keeps
//	    the implication strict under float rounding, which accumulates
//	    at ~1e-15 relative), so every R member is found again when it
//	    expires.
//
// The equal-contribution-share allocation (each term's bound represents
// the same w_{Q,t}·b_{Q,t} = F·(1−1e-9)/n slice of the floor) keeps the
// bound of a low-weight term high in impact-weight units, which is what
// prunes the Zipf-head terms where most registered queries live.
const boundSlack = 1 - 1e-9

// Floor maintenance margins. A rebuild fills R down to k+tgtMargin
// members before setting F to the (k+tgtMargin)-th score; arrivals then
// grow R until it passes k+tgtMargin+raiseMargin, when the floor is
// raised back to the (k+tgtMargin)-th score and the sub-floor tail
// purged. tgtMargin is headroom against expirations (R dropping below k
// forces a rebuild, the expensive path); raiseMargin is hysteresis so
// the floor — and with it every per-term tree entry — moves once per
// raiseMargin admissions instead of once per arrival. The defaults are
// tuned on a million-query scale sweep (window 32,768, uniform
// dictionary queries): at 1M standing queries, {4, 8} sustains ~1.25×
// the ingest rate of the old {16, 16} — the higher floor prunes probe
// visits whose score lands
// below F, and the smaller R halves the result-list memory traffic —
// at a refill cost of ~0.2/event, which wider margins buy down to zero
// without paying for themselves. Tighter than {2, 4} inverts the
// trade: refills jump two orders of magnitude and dominate. Tests use
// still-smaller margins via MaintainerConfig to exercise raises and
// rebuilds densely in small windows.
const (
	defaultTargetMargin = 4
	defaultRaiseMargin  = 8
)

// boundFor returns the probe-tree bound of one term at floor f.
func boundFor(f, fac float64) float64 { return f * fac }

// setFloor moves qs's floor to newF and re-registers every term bound
// in its probe tree. Bounds are pure functions of (F, fac), so export
// and restore reproduce them bit-identically.
func (m *Maintainer) setFloor(qs *queryState, newF float64) {
	qs.f = newF
	for i := range qs.terms {
		ts := &qs.terms[i]
		nb := boundFor(newF, ts.fac)
		if nb == ts.b {
			continue
		}
		tr := m.tree(ts.term)
		tr.Remove(qs.id, ts.b)
		tr.Set(qs.id, nb)
		m.stats.TreeUpdates += 2
		ts.b = nb
	}
}

// purgeBelow drops every R member scoring strictly below the floor.
// Keeping them would break R reachability on a later floor raise: a
// member below F is not guaranteed to beat any probe bound, so its
// expiration could leave a phantom entry in R forever.
func (m *Maintainer) purgeBelow(qs *queryState) {
	for {
		w, ok := qs.r.Worst()
		if !ok || w.Score >= qs.f {
			return
		}
		qs.r.Remove(w.Doc)
		m.stats.RollupDrops++
	}
}

// raiseFloor lifts the floor to the (k+tgtMargin)-th best score and
// purges the tail below it. Soundness: the new floor is a score R
// actually holds, every purged member scores below it, and any unseen
// document scores at most the old floor ≤ the new one — so the
// completeness invariant survives with the tighter bound. A raise that
// would not move the floor (ties pinning the (k+tgtMargin)-th score at
// F) is a no-op rather than a counted step, so a tie-heavy R cannot
// spin the counter.
func (m *Maintainer) raiseFloor(qs *queryState) {
	newF := qs.r.Kth(qs.q.K + m.tgtMargin)
	if newF <= qs.f {
		return
	}
	m.stats.RollupSteps++
	m.setFloor(qs, newF)
	m.purgeBelow(qs)
}
