package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"ita/internal/invindex"
	"ita/internal/model"
)

// rebuildPerRead is the threshold-algorithm scan as it was before the
// one-pass rebuild: every newly read document is scored straight into R
// (a sorted insert) with its admit recorded, R itself serves as the
// dedup set and supplies the target-th score of the stop test, and
// purgeBelow afterwards drops everything below the new floor. It is the
// reference rebuild must reproduce exactly: same R, floor, bounds and
// counters. target is the scan depth the caller's rebuild uses.
func rebuildPerRead(m *Maintainer, qs *queryState, target int) {
	n := len(qs.terms)
	iters := make([]invindex.Iterator, n)
	for i := range qs.terms {
		iters[i] = m.index.Scan(qs.terms[i].term)
	}
	rr := 0
	for {
		var tau float64
		live := false
		for i := range iters {
			if iters[i].Valid() {
				tau += qs.terms[i].qw * iters[i].Key().W
				live = true
			}
		}
		if !live {
			break
		}
		if qs.r.Len() >= target && tau <= qs.r.Kth(target) {
			break
		}
		best := -1
		if m.greedyProbe {
			bestVal := 0.0
			for i := range iters {
				if !iters[i].Valid() {
					continue
				}
				if v := qs.terms[i].qw * iters[i].Key().W; best < 0 || v > bestVal {
					best, bestVal = i, v
				}
			}
		} else {
			for j := 0; j < n; j++ {
				i := (rr + j) % n
				if iters[i].Valid() {
					best = i
					rr = i + 1
					break
				}
			}
		}
		key := iters[best].Key()
		iters[best].Next()
		m.stats.SearchReads++
		if !qs.r.Contains(key.Doc) {
			if d, ok := m.index.Get(key.Doc); ok {
				m.stats.ScoreComputations++
				qs.r.Add(key.Doc, model.Score(qs.q, d))
				m.recordAdmit(key.Doc, qs.id)
			}
		}
	}
	newF := 0.0
	if qs.r.Len() >= target {
		newF = qs.r.Kth(target)
	}
	m.setFloor(qs, newF)
	m.purgeBelow(qs)
}

// refRegister is Register with the reference rebuild, to the register
// target.
func refRegister(m *Maintainer, q *model.Query) {
	qs := m.install(q, nil)
	rebuildPerRead(m, qs, m.registerTarget(qs))
}

// refExpire is an expiration-only HandleEpoch with the reference
// rebuild, refilling to the refill target: every expiry is removed from
// every live query's R (a superset of the admit lists' holders;
// removing a non-member is a no-op there too), and each changed query
// is settled.
func refExpire(m *Maintainer, expired []*model.Document) {
	m.eachLive(func(qs *queryState) {
		changed := false
		for _, d := range expired {
			if qs.r.Remove(d.ID) {
				changed = true
			}
		}
		if !changed {
			return
		}
		switch k := qs.q.K; {
		case qs.r.Len() < k && qs.f > 0:
			m.stats.Refills++
			rebuildPerRead(m, qs, m.refillTarget(qs))
		case m.rollupEnabled && qs.r.Len() > k+m.tgtMargin+m.raiseMargin:
			m.raiseFloor(qs)
		}
	})
}

// tieHeavyDoc draws 1–6 terms from a narrow vocabulary, each weighted
// from a 4-value set, so equal weights pile up inside every list and
// equal scores at every floor.
func tieHeavyDoc(rng *rand.Rand, id model.DocID, vocab int) *model.Document {
	n := 1 + rng.Intn(6)
	var ps []model.Posting
	for len(ps) < n {
		t := model.TermID(rng.Intn(vocab))
		if !slices.ContainsFunc(ps, func(p model.Posting) bool { return p.Term == t }) {
			ps = append(ps, model.Posting{Term: t, Weight: float64(1+rng.Intn(4)) / 4})
		}
	}
	d, err := model.NewDocument(id, time.Unix(int64(id), 0), ps)
	if err != nil {
		panic(err)
	}
	return d
}

func tieHeavyQuery(rng *rand.Rand, id model.QueryID, vocab int) *model.Query {
	n := 1 + rng.Intn(4)
	var ts []model.QueryTerm
	for len(ts) < n {
		t := model.TermID(rng.Intn(vocab))
		if !slices.ContainsFunc(ts, func(qt model.QueryTerm) bool { return qt.Term == t }) {
			ts = append(ts, model.QueryTerm{Term: t, Weight: float64(1+rng.Intn(4)) / 4})
		}
	}
	q, err := model.NewQuery(id, 1+rng.Intn(5), ts)
	if err != nil {
		panic(err)
	}
	return q
}

// sameMaintenance compares two maintainers' query states — R with exact
// scores in result order, floor and every registered term bound — and
// their counters.
func sameMaintenance(got, want *Maintainer) error {
	if *got.stats != *want.stats {
		return fmt.Errorf("stats %+v, reference %+v", *got.stats, *want.stats)
	}
	var err error
	want.eachLive(func(w *queryState) {
		if err != nil {
			return
		}
		g := got.lookup(w.q.ID)
		if g == nil {
			err = fmt.Errorf("query %d missing", w.q.ID)
			return
		}
		if g.f != w.f {
			err = fmt.Errorf("query %d: floor %v, reference %v", w.q.ID, g.f, w.f)
			return
		}
		for i := range w.terms {
			if g.terms[i].b != w.terms[i].b {
				err = fmt.Errorf("query %d term %d: bound %v, reference %v", w.q.ID, w.terms[i].term, g.terms[i].b, w.terms[i].b)
				return
			}
		}
		if gr, wr := g.r.Top(g.r.Len()), w.r.Top(w.r.Len()); !slices.Equal(gr, wr) {
			err = fmt.Errorf("query %d: R %v, reference %v", w.q.ID, gr, wr)
		}
	})
	return err
}

// TestRebuildMatchesPerReadReference drives the one-pass rebuild and
// the per-read reference side by side over one index: registrations on
// random tie-heavy windows, expiration bursts that drain R below k and
// force refills, and arrivals that refill the window. After every step
// R, F, every term bound and every counter must agree exactly, under
// greedy and round-robin probing, with tight and default margins, on
// consecutive document ids and on ids 4 096 apart, which all share one
// window slot until the table has doubled past 4 096 times the window.
func TestRebuildMatchesPerReadReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  MaintainerConfig
	}{
		{"greedy/default-margins", MaintainerConfig{}},
		{"greedy/margins-1-1", MaintainerConfig{FloorTargetMargin: 1, FloorRaiseMargin: 1}},
		{"round-robin/default-margins", MaintainerConfig{RoundRobinProbe: true}},
		{"round-robin/margins-1-1", MaintainerConfig{RoundRobinProbe: true, FloorTargetMargin: 1, FloorRaiseMargin: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 12; seed++ {
				if err := compareRebuilds(seed, tc.cfg, 1); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
			for seed := int64(1); seed <= 3; seed++ {
				if err := compareRebuilds(seed, tc.cfg, 4096); err != nil {
					t.Fatalf("seed %d, ids 4096 apart: %v", seed, err)
				}
			}
		})
	}
}

// compareRebuilds runs one such stream with document ids stride apart.
func compareRebuilds(seed int64, cfg MaintainerConfig, stride model.DocID) error {
	rng := rand.New(rand.NewSource(seed))
	vocab := 6 + rng.Intn(10)
	index := invindex.NewIndex(0)
	var gotStats, wantStats Stats
	got := NewMaintainer(index, &gotStats, cfg)
	want := NewMaintainer(index, &wantStats, cfg)

	nextDoc, nextQuery := model.DocID(1), model.QueryID(1)
	arrive := func(n int) error {
		batch := make([]*model.Document, n)
		for i := range batch {
			batch[i] = tieHeavyDoc(rng, nextDoc, vocab)
			nextDoc += stride
			if err := index.Insert(batch[i]); err != nil {
				return err
			}
		}
		got.HandleEpoch(batch, nil)
		want.HandleEpoch(batch, nil)
		return nil
	}
	register := func(n int) error {
		for range n {
			q := tieHeavyQuery(rng, nextQuery, vocab)
			nextQuery++
			if err := got.Register(q); err != nil {
				return err
			}
			refRegister(want, q)
		}
		return nil
	}

	if err := arrive(20 + rng.Intn(60)); err != nil {
		return err
	}
	if err := register(6 + rng.Intn(10)); err != nil {
		return err
	}
	for step := 0; step < 40; step++ {
		if err := sameMaintenance(got, want); err != nil {
			return fmt.Errorf("step %d: %v", step, err)
		}
		if err := got.CheckInvariants(); err != nil {
			return fmt.Errorf("step %d: %v", step, err)
		}
		switch rng.Intn(4) {
		case 0, 1:
			var expired []*model.Document
			for n := 1 + rng.Intn(8); n > 0 && index.Len() > 0; n-- {
				expired = append(expired, index.RemoveOldest())
			}
			got.HandleEpoch(nil, expired)
			refExpire(want, expired)
		case 2:
			if err := arrive(1 + rng.Intn(10)); err != nil {
				return err
			}
		default:
			if err := register(1); err != nil {
				return err
			}
		}
	}
	if gotStats.Refills == 0 {
		return fmt.Errorf("no refill in 40 steps; only registrations were compared")
	}
	// Consecutive ids never share a slot: the table covers the window,
	// and every expiry empties its document's admit list.
	if collided := got.slotFloor != 0; collided != (stride > 1) {
		return fmt.Errorf("ids %d apart: window-slot collision %v", stride, collided)
	}
	return sameMaintenance(got, want)
}
