package core

import (
	"ita/internal/invindex"
	"ita/internal/model"
)

// rebuild recomputes R and the score floor from the inverted lists with
// a threshold-algorithm scan, used both for the initial top-k
// computation at Register and for refills after an expiration leaves R
// with fewer than k members. It consumes inverted-list entries from the
// heads downwards — greedily from the list with the highest w_{Q,t}·c_t,
// where c_t is the impact of the next unread entry — scoring each newly
// encountered document (R's members are skipped: their stored scores
// are exact, so the surviving high region of R is never re-scored),
// until either
//
//   - R and the scored documents number at least target = k+tgtMargin
//     and τ = Σ w_{Q,t}·c_t has dropped to at most the target-th best
//     score among them (every unseen document provably scores below
//     it), or
//   - every list is exhausted (each matching document has been seen).
//
// The scan costs O(entries read × log target), not O(entries read ×
// |R|), plus one store fetch per scored document:
//
//   - The target-th best score is the root of a bounded min-heap
//     (topScores), seeded with R's members and fed every new score.
//   - Scored documents go into a maintainer-owned candidate scratch,
//     not into R.
//   - Deduplication is one window-slot stamp per read (see docSlot). A
//     document is read once from each list holding it; the first read
//     stamps its slot with the scan's stamp and scores it, and a later
//     read from another list finds the stamp and skips it, with no
//     document fetch and no term lookups.
//
// After the scan the floor F is the target-th best score when there are
// that many — unseen documents score at most τ ≤ F, so completeness
// holds — and zero otherwise (the window holds fewer matches than the
// target, and all of them have been seen). The per-term probe bounds
// follow the floor, R's members below it are purged, and only the
// candidates scoring ≥ F (ties included) join R and their admit lists;
// the rest count as RollupDrops, like the purged members.
func (m *Maintainer) rebuild(qs *queryState) {
	target := qs.q.K + m.tgtMargin
	n := len(qs.terms)
	// Reuse the maintainer's scratch: rebuilds run at most once per
	// affected query per epoch, and rebuild is never reentered.
	if cap(m.iterBuf) < n {
		m.iterBuf = make([]invindex.Iterator, n)
	}
	iters := m.iterBuf[:n]
	for i := range qs.terms {
		iters[i] = m.index.Scan(qs.terms[i].term)
	}
	top := &m.topBuf
	top.reset(target)
	for i := 1; i <= min(target, qs.r.Len()); i++ {
		top.push(qs.r.Kth(i))
	}
	cands := m.cands[:0]
	m.scanStamp++ // this scan's stamp
	rr := 0       // round-robin cursor for the ablation probe order
	for {
		// τ over the current cursor positions; exhausted lists
		// contribute 0.
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
		if top.full() && tau <= top.kth() {
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
		if qs.r.Contains(key.Doc) {
			continue
		}
		slot := m.slot(key.Doc)
		if slot.stamp == m.scanStamp {
			continue // read earlier from another query term's list
		}
		slot.stamp = m.scanStamp
		d, ok := m.index.Get(key.Doc)
		if !ok {
			continue
		}
		m.stats.ScoreComputations++
		s := model.Score(qs.q, d)
		cands = append(cands, model.ScoredDoc{Doc: d.ID, Score: s})
		top.push(s)
	}
	m.scanStamp++ // retires this scan's stamp: its slots are free again
	newF := 0.0
	if top.full() {
		newF = top.kth()
	}
	m.setFloor(qs, newF)
	m.purgeBelow(qs)
	for _, c := range cands {
		if c.Score >= newF {
			qs.r.Add(c.Doc, c.Score)
			m.recordAdmit(c.Doc, qs.id)
		} else {
			m.stats.RollupDrops++
		}
	}
	m.cands = reuse(cands, len(cands), &m.candsLow)
}

// topScores is a bounded min-heap of the best n scores pushed since the
// last reset: once it holds n of them, its root is the n-th best.
type topScores struct {
	h []float64
	n int
}

func (t *topScores) reset(n int) {
	t.h = t.h[:0]
	t.n = n
}

// full reports whether n scores have been pushed.
func (t *topScores) full() bool { return len(t.h) == t.n }

// kth returns the n-th best score pushed; the heap must be full.
func (t *topScores) kth() float64 { return t.h[0] }

// push offers score s: it joins the heap while the heap is not full,
// and afterwards replaces the root when it beats it.
func (t *topScores) push(s float64) {
	if len(t.h) < t.n {
		t.h = append(t.h, s)
		for i := len(t.h) - 1; i > 0; {
			p := (i - 1) / 2
			if t.h[p] <= t.h[i] {
				break
			}
			t.h[p], t.h[i] = t.h[i], t.h[p]
			i = p
		}
		return
	}
	if s <= t.h[0] {
		return
	}
	t.h[0] = s
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(t.h) {
			return
		}
		if c+1 < len(t.h) && t.h[c+1] < t.h[c] {
			c++
		}
		if t.h[i] <= t.h[c] {
			return
		}
		t.h[i], t.h[c] = t.h[c], t.h[i]
		i = c
	}
}
