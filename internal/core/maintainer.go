package core

import (
	"fmt"
	"unsafe"

	"ita/internal/invindex"
	"ita/internal/model"
	"ita/internal/threshtree"
	"ita/internal/topk"
)

// Maintainer owns the per-query maintenance state of ITA for a set of
// queries: their per-term probe bounds, result sets R and score floors.
// It is the unit of parallelism of the sharded engine — every piece of
// state it touches during epoch handling is strictly per-query (trees,
// query states, stats, scratch buffers), while the inverted index it
// reads is owned by its coordinator and guaranteed quiescent for the
// duration of HandleEpoch.
//
// Query state lives in dense slab arenas, not a map of heap-allocated
// structs: every registered query gets a dense internal id (a uint32
// index into stable-addressed slabs), recycled through a free list on
// Unregister. External QueryIDs appear exactly twice — in the
// ext→dense lookup shared with the published Views, and inside the
// *model.Query itself — so the hot paths (probe-tree walks,
// affected-query dedup, epoch work queues) run entirely on dense ids
// with array indexing instead of map lookups. The probe trees store
// dense ids too, which is what lets a probe hit resolve to its query
// state without touching any map.
//
// A Maintainer is not safe for concurrent use with itself; the sharded
// engine runs many maintainers concurrently, each on its own goroutine,
// which is safe exactly because they share nothing but the read-only
// index.
type Maintainer struct {
	index *invindex.Index
	stats *Stats
	trees map[model.TermID]*threshtree.Tree

	// Dense query-state arena: stable-addressed slabs indexed by dense
	// id, a free list for Unregister churn, and the live count. The
	// ext→dense lookup lives in views (it is the same mapping the
	// wait-free read path resolves through).
	slabs []*stateSlab
	free  []uint32
	next  uint32 // high-water dense id
	n     int    // live queries

	// Floor maintenance margins (see floor.go): a refill rebuilds R down
	// to k+tgtMargin members and a floor raise triggers past
	// k+tgtMargin+raiseMargin.
	tgtMargin   int
	raiseMargin int

	// Ablation switches (DESIGN.md A1, A2). Both default to the paper's
	// configuration: greedy probing and floor raising enabled.
	rollupEnabled bool
	greedyProbe   bool
	scanTrees     bool // entry-ordered scan-all probe trees (equivalence reference)

	// Scratch reused across events to keep steady-state processing
	// allocation-free. Affected-query dedup and the epoch work queue
	// are epoch-stamped dense marks inside the query states themselves
	// (queryState.mark/emark against stamp/estamp), so there is no map
	// to clear between events.
	stamp   uint64
	estamp  uint64
	touched []*queryState
	iterBuf []invindex.Iterator

	// Per-document scoring scratch: the current document's postings as a
	// stamp-marked dense array keyed by TermID (term ids are interned
	// densely, so the array is bounded by vocabulary size). Scoring an
	// affected query costs one array load per query term — mark and
	// weight share a cache line, no map hashing — and loading the next
	// document is a plain overwrite with a fresh stamp, no clearing
	// pass over the previous document's terms. scoreDoc reproduces
	// model.Score's exact float summation order, so the fast path is
	// bit-identical to the slow one.
	docW     []docWEntry
	docStamp uint64

	// Admit lists: for every window document, the dense ids of the
	// queries that admitted it into their R. Expiry walks the
	// document's list instead of probing the trees — the list touches
	// exactly the queries that hold the document (plus tolerated stale
	// entries, see recordAdmit), while a probe visits every query with
	// a beatable bound, a superset that is typically an order of
	// magnitude larger. Lists are recycled through holderPool when
	// their document expires.
	holders    map[model.DocID][]threshtree.Ref
	holderPool [][]threshtree.Ref

	// Epoch scratch: per-query net work lists reused across HandleEpoch
	// calls (the inner adds/dels slices keep their capacity), plus the
	// whole-term epoch skip: per-term max contribution across the epoch's
	// documents, resolved once per term against the tree's min-θ.
	epochQueue  []epochWork
	epochMaxW   map[model.TermID]float64
	epochSkip   map[model.TermID]bool
	epochSkipOn bool
	// epochLow tracks consecutive HandleEpoch calls that used only a
	// small fraction of the retained scratch capacity; past a threshold
	// the scratch shrinks back (see shrinkScratch).
	epochLow int

	// Published read path: one publication slot per dense id (views)
	// and the queries whose results changed since the last Publish. See
	// view.go for the consistency model. Dirty tracking is armed by the
	// first Publish call: the facade arms it at construction (serving
	// reads is its job), while core-level users that never publish —
	// the figure benchmarks and throughput harnesses driving ITA and
	// shard.Engine directly — pay nothing for the publication machinery.
	views     Views
	pubDirty  []*queryState
	publishOn bool
}

// Dense-state slabs: stable addresses (grow-by-slab, never realloc), so
// scratch lists may hold *queryState across events and the epoch queue
// across one epoch.
const (
	slabBits = 9
	slabSize = 1 << slabBits
	slabMask = slabSize - 1
)

type stateSlab [slabSize]queryState

// epochWork is the net effect of one epoch on one query: the arrived
// documents whose contribution beats one of the query's bounds (with
// their scores, computed once at probe time while the document's
// posting map is hot) and the expired ones.
type epochWork struct {
	qs        *queryState
	adds      []*model.Document
	addScores []float64
	dels      []*model.Document
}

// MaintainerConfig carries the tuning knobs shared by the single-threaded
// and sharded engines.
type MaintainerConfig struct {
	// Seed is ignored: no maintainer structure is randomized. It is kept
	// so callers built against the old seeded structures still compile.
	Seed            uint64
	DisableRollup   bool // ablation A2
	RoundRobinProbe bool // ablation A1
	// ScanAllTrees pins every probe tree to the entry-ordered scan-all
	// representation (every probe tests every registered query).
	// Test/equivalence use only.
	ScanAllTrees bool
	// FloorTargetMargin and FloorRaiseMargin override the floor
	// maintenance margins; zero selects the defaults (see floor.go).
	FloorTargetMargin int
	FloorRaiseMargin  int
}

// NewMaintainer returns an empty maintainer reading from index and
// accumulating its operation counters into stats. The caller owns both:
// the sharded engine hands every shard the same index but a private
// stats block, merged on read.
func NewMaintainer(index *invindex.Index, stats *Stats, cfg MaintainerConfig) *Maintainer {
	tgt, raise := cfg.FloorTargetMargin, cfg.FloorRaiseMargin
	if tgt <= 0 {
		tgt = defaultTargetMargin
	}
	if raise <= 0 {
		raise = defaultRaiseMargin
	}
	return &Maintainer{
		index:         index,
		stats:         stats,
		trees:         make(map[model.TermID]*threshtree.Tree),
		holders:       make(map[model.DocID][]threshtree.Ref),
		tgtMargin:     tgt,
		raiseMargin:   raise,
		rollupEnabled: !cfg.DisableRollup,
		greedyProbe:   !cfg.RoundRobinProbe,
		scanTrees:     cfg.ScanAllTrees,
	}
}

// termState tracks one query term: its weight, the precomputed bound
// factor fac (the term's probe bound is b = F·fac, see floor.go), and
// the bound b currently registered in the term's probe tree.
type termState struct {
	term model.TermID
	qw   float64
	fac  float64
	b    float64
}

// queryState is one dense arena slot. The zero value is a free slot;
// Unregister resets a slot to (almost) zero, keeping only the terms
// slice capacity and the stamp fields (stamps grow monotonically, so a
// recycled slot can never falsely match a current stamp).
type queryState struct {
	q     *model.Query
	terms []termState
	r     *topk.ResultSet
	f     float64 // score floor F: R holds every valid doc scoring ≥ F
	id    uint32  // own dense id (slab index)
	live  bool

	// Publication state: whether r changed since the last Publish. The
	// publication slot itself is views entry id.
	pubDirty bool

	// Epoch-stamped scratch marks, replacing the former touchedMark and
	// epochIdx maps: a slot is "marked" exactly when its stamp equals
	// the maintainer's current one.
	mark  uint64 // collectAffected dedup stamp
	emark uint64 // HandleEpoch work-queue stamp
	eslot int32  // index into epochQueue, valid while emark is current

	// escore accumulates the probed document's score while mark is
	// current, for zero-floor queries only: with F = 0 every bound is 0,
	// so every shared term's probe necessarily visits the query, and
	// postings iterate in ascending term order — the exact summation
	// order scoreDoc and model.Score use — making the accumulated value
	// bit-identical to a full evaluation at a fraction of the cost (no
	// per-term map lookups). Queries with F > 0 may have unbeatable
	// bounds on shared terms, so their arrivals take the scoreDoc path.
	escore float64
}

// state returns the arena slot of dense id i.
func (m *Maintainer) state(i uint32) *queryState {
	return &m.slabs[i>>slabBits][i&slabMask]
}

// alloc reserves a dense id, reusing a freed slot when one exists.
func (m *Maintainer) alloc() uint32 {
	if n := len(m.free); n > 0 {
		id := m.free[n-1]
		m.free = m.free[:n-1]
		return id
	}
	id := m.next
	m.next++
	if int(id>>slabBits) == len(m.slabs) {
		m.slabs = append(m.slabs, new(stateSlab))
	}
	return id
}

// lookup resolves an external query id to its dense state, nil when
// unknown. Single-writer side of the same sync.Map the wait-free read
// path resolves through.
func (m *Maintainer) lookup(id model.QueryID) *queryState {
	v, ok := m.views.lookup.Load(id)
	if !ok {
		return nil
	}
	return m.state(v.(uint32))
}

// Len returns the number of queries this maintainer owns.
func (m *Maintainer) Len() int { return m.n }

// Has reports whether the maintainer owns query id.
func (m *Maintainer) Has(id model.QueryID) bool {
	return m.lookup(id) != nil
}

// EachQuery calls fn for every owned query in unspecified order.
func (m *Maintainer) EachQuery(fn func(q *model.Query)) {
	m.eachLive(func(qs *queryState) { fn(qs.q) })
}

// eachLive calls fn for every live arena slot in dense-id order.
func (m *Maintainer) eachLive(fn func(qs *queryState)) {
	for i := uint32(0); i < m.next; i++ {
		if qs := m.state(i); qs.live {
			fn(qs)
		}
	}
}

// tree returns the probe tree for term t, creating it on first use.
// Trees exist independently of inverted lists: a query term that matches
// no valid document still needs its bound registered so future arrivals
// can probe it.
func (m *Maintainer) tree(t model.TermID) *threshtree.Tree {
	tr := m.trees[t]
	if tr == nil {
		if m.scanTrees {
			tr = threshtree.NewScanAll()
		} else {
			tr = threshtree.New()
		}
		m.trees[t] = tr
	}
	return tr
}

// install claims a dense slot for query q and wires it into the arena,
// lookup, and probe trees (with zero bounds: floor 0 until the caller
// sets one). Shared by Register and RestoreQuery; r is the query's
// result set (nil builds a fresh empty one — RestoreQuery passes the
// prevalidated set it already built).
func (m *Maintainer) install(q *model.Query, r *topk.ResultSet) *queryState {
	id := m.alloc()
	qs := m.state(id)
	qs.q = q
	qs.id = id
	qs.live = true
	qs.pubDirty = false
	qs.f = 0
	qs.terms = qs.terms[:0]
	n := float64(len(q.Terms))
	for _, t := range q.Terms {
		qs.terms = append(qs.terms, termState{
			term: t.Term,
			qw:   t.Weight,
			fac:  boundSlack / (n * t.Weight),
		})
	}
	for i := range qs.terms {
		m.tree(qs.terms[i].term).Set(id, 0)
		m.stats.TreeUpdates++
	}
	if r == nil {
		r = topk.NewResultSet(q.ID)
	}
	qs.r = r
	m.n++
	m.views.ensure(id)
	m.views.lookup.Store(q.ID, id)
	return qs
}

// Register runs the initial top-k search for q (a threshold-algorithm
// scan, see rebuild) and installs the resulting score floor and probe
// bounds. It fails on a duplicate query id.
func (m *Maintainer) Register(q *model.Query) error {
	if m.Has(q.ID) {
		return fmt.Errorf("core: duplicate query id %d", q.ID)
	}
	qs := m.install(q, nil)
	m.rebuild(qs)
	m.markDirty(qs)
	return nil
}

// Unregister removes a query, reporting whether it existed. The dense
// slot is reset and recycled through the free list; readers resolving
// the external id stop seeing the query the moment it leaves the
// lookup, and a reader racing a slot reuse is protected by the
// ownership check on the published snapshot (view.go).
func (m *Maintainer) Unregister(id model.QueryID) bool {
	qs := m.lookup(id)
	if qs == nil {
		return false
	}
	for i := range qs.terms {
		ts := &qs.terms[i]
		if tr := m.trees[ts.term]; tr != nil {
			tr.Remove(qs.id, ts.b)
			m.stats.TreeUpdates++
			if tr.Len() == 0 {
				delete(m.trees, ts.term)
			}
		}
	}
	m.views.lookup.Delete(id)
	m.views.clear(qs.id)
	qs.q = nil
	qs.r = nil
	qs.live = false
	qs.pubDirty = false
	qs.f = 0
	qs.terms = qs.terms[:0] // keep capacity for the next occupant
	m.free = append(m.free, qs.id)
	m.n--
	if m.n == 0 {
		// Every admit entry is now stale, and HandleEpoch returns before
		// reaching an expiry walk that would free one (a sharded engine
		// does not even fan out to an empty shard), so drop them all here.
		m.holders = make(map[model.DocID][]threshtree.Ref)
	}
	return true
}

// Result returns the current top-k of a query in descending score order.
func (m *Maintainer) Result(id model.QueryID) ([]model.ScoredDoc, bool) {
	qs := m.lookup(id)
	if qs == nil {
		return nil, false
	}
	return qs.r.Top(qs.q.K), true
}

// docWEntry is one slot of the per-document scoring scratch: a term's
// weight in the current document, valid only while mark carries the
// current document stamp.
type docWEntry struct {
	mark uint64
	w    float64
}

// prepDoc loads d's composition list into the scoring scratch so
// subsequent scoreDoc calls against d are one array load per query
// term. A term's entry is valid only under the current stamp, so stale
// weights from earlier documents are dead without being cleared.
func (m *Maintainer) prepDoc(d *model.Document) {
	m.docStamp++
	for _, p := range d.Postings {
		if int(p.Term) >= len(m.docW) {
			grown := make([]docWEntry, p.Term+p.Term/2+64)
			copy(grown, m.docW)
			m.docW = grown
		}
		m.docW[p.Term] = docWEntry{mark: m.docStamp, w: p.Weight}
	}
}

// scoreDoc computes S(d|Q) for the document loaded by prepDoc. It
// reads the query's terms from the maintainer-owned term states (same
// terms and weights as qs.q.Terms, in the same ascending order, without
// dereferencing the shared Query object) and sums the shared-term
// products in that order — exactly the order model.Score's merge-join
// uses — so the result is bit-identical to model.Score(qs.q, d).
func (m *Maintainer) scoreDoc(qs *queryState) float64 {
	var s float64
	for i := range qs.terms {
		if t := qs.terms[i].term; int(t) < len(m.docW) && m.docW[t].mark == m.docStamp {
			s += qs.terms[i].qw * m.docW[t].w
		}
	}
	return s
}

// collectAffected probes the tree of every term of d and gathers,
// without duplicates, the queries with a bound the term's contribution
// can beat — a superset of the queries whose result can change (see
// floor.go for why no other query can be affected). The cost is
// proportional to the number of beatable bounds, not the number of
// queries registered on d's terms: each probe walks the θ-ordered
// prefix and exits at the first unbeatable bound, a whole term is
// skipped in O(1) when its min-θ exceeds the contribution, and in the
// batch path a term whose min-θ exceeds the epoch's max contribution is
// skipped once for the entire epoch. The dedup is an epoch-stamped mark
// in each dense slot, no map and no clearing pass.
//
// The result is a maintainer-owned scratch slice, valid until the next
// call.
func (m *Maintainer) collectAffected(d *model.Document) []*queryState {
	m.touched = m.touched[:0]
	m.stamp++
	stamp := m.stamp
	for _, p := range d.Postings {
		if m.epochSkipOn && m.epochSkip[p.Term] {
			continue
		}
		tr := m.trees[p.Term]
		if tr == nil || tr.Len() == 0 {
			continue
		}
		if min, ok := tr.MinTheta(); !ok || min > p.Weight {
			continue // O(1) whole-term skip: no bound on t is beatable
		}
		tr.ProbeBeatable(p.Weight, func(ref threshtree.Ref) {
			m.stats.ProbeHits++
			qs := m.state(ref)
			if qs.mark != stamp {
				qs.mark = stamp
				qs.escore = 0
				m.touched = append(m.touched, qs)
			}
			if qs.f == 0 {
				for i := range qs.terms {
					if qs.terms[i].term == p.Term {
						qs.escore += qs.terms[i].qw * p.Weight
						break
					}
				}
			}
		})
	}
	return m.touched
}

// HandleArrival applies one arrival as an epoch of its own, for callers
// that drive the maintainer one document at a time (the benchmark's
// staged pipeline). The document must already be present in the index.
func (m *Maintainer) HandleArrival(d *model.Document) { m.HandleEpoch([]*model.Document{d}, nil) }

// recordAdmit appends a query's dense id to a document's admit list.
// Every path that adds a document to some R must record the admit, so
// the expiry walk finds every holder without probing the trees.
// Entries are never removed before the document expires: a query that
// later drops the document (purgeBelow after a floor raise), dies
// (Unregister, possibly with slot reuse), or re-admits it (a refill
// after a purge) leaves a stale or duplicate entry behind. The expiry
// walk tolerates all three — r.Remove reports false for a non-member
// and the liveness check skips dead slots — so admits stay O(1) and
// the list is simply discarded wholesale when its document expires.
func (m *Maintainer) recordAdmit(doc model.DocID, id threshtree.Ref) {
	l, ok := m.holders[doc]
	if !ok && len(m.holderPool) > 0 {
		n := len(m.holderPool) - 1
		l, m.holderPool[n] = m.holderPool[n], nil
		m.holderPool = m.holderPool[:n]
	}
	m.holders[doc] = append(l, id)
}

// takeHolders detaches and returns a document's admit list (nil when no
// query ever admitted it — the common case for most of the stream).
// The caller walks the list and hands it back through releaseHolders.
func (m *Maintainer) takeHolders(doc model.DocID) []threshtree.Ref {
	refs, ok := m.holders[doc]
	if !ok {
		return nil
	}
	delete(m.holders, doc)
	return refs
}

// releaseHolders recycles an expired document's admit list for reuse by
// recordAdmit. The pool is capped so one burst of expirations cannot
// pin its high-water slice count forever.
func (m *Maintainer) releaseHolders(refs []threshtree.Ref) {
	const maxPool = 1024
	if refs != nil && len(m.holderPool) < maxPool {
		m.holderPool = append(m.holderPool, refs[:0])
	}
}

// HandleExpire applies one expiration as an epoch of its own, the
// counterpart of HandleArrival. The document must already be removed
// from the index.
func (m *Maintainer) HandleExpire(d *model.Document) { m.HandleEpoch(nil, []*model.Document{d}) }

// HandleEpoch applies the net effect of one epoch — a batch of arrivals
// and expirations — to the owned queries. It is the one maintenance
// path: a single arrival, a single expiration and a 64-document burst
// are all epochs. The index must already reflect the epoch-end state
// (arrived inserted, expired removed, both lists excluding documents
// that arrived and expired within the epoch) and stay unmodified for
// the duration of the call.
//
// Expired documents resolve their affected queries through their admit
// lists (see recordAdmit): the list names exactly the queries that ever
// admitted the document, so the walk touches R holders directly instead
// of probing the trees, whose beatable-bound visit set is a strict
// superset of the holders. Arrivals are probed against the probe trees
// with the epoch-start bounds, deduplicating affected queries across
// the whole batch. Each affected query then gets one net maintenance
// pass (maintainEpoch). Collecting before any maintenance is sound: an
// arrival collected here that a smaller epoch would have filtered
// (because an intra-epoch floor raise happened first) is merely extra
// work that the epoch-end floor comparison discards, and a stale admit
// entry merely enqueues a removal that r.Remove reports as a no-op.
//
// At the epoch boundary the maintained state satisfies the floor
// invariants whatever the epoch size, so the reported top-k does not
// depend on how the stream was cut into epochs; internal state (floor
// values, R membership beyond the top-k) and operation counters
// legitimately differ, which is exactly where the amortization comes
// from.
func (m *Maintainer) HandleEpoch(arrived, expired []*model.Document) {
	if m.n == 0 {
		return
	}
	// The whole-term skip amortizes one tree consultation over the
	// epoch's documents; a single arrival has nothing to amortize, and
	// its per-posting min-θ check in collectAffected skips the same terms.
	if len(arrived) > 1 {
		m.beginEpochSkip(arrived)
	}
	m.estamp++
	for _, d := range expired {
		refs := m.takeHolders(d.ID)
		for _, ref := range refs {
			qs := m.state(ref)
			if !qs.live {
				continue
			}
			w := m.epochFor(qs)
			w.dels = append(w.dels, d)
		}
		m.releaseHolders(refs)
	}
	for _, d := range arrived {
		m.prepDoc(d)
		for _, qs := range m.collectAffected(d) {
			w := m.epochFor(qs)
			m.stats.ScoreComputations++
			score := qs.escore
			if qs.f != 0 {
				score = m.scoreDoc(qs)
			}
			w.adds = append(w.adds, d)
			w.addScores = append(w.addScores, score)
		}
	}
	m.epochSkipOn = false
	for i := range m.epochQueue {
		w := &m.epochQueue[i]
		m.maintainEpoch(w.qs, w.adds, w.addScores, w.dels)
		// Drop the document references (keeping capacity): otherwise the
		// scratch pins one burst's worth of expired documents until a
		// future epoch happens to reuse every slot to the same depth.
		w.qs = nil
		clear(w.adds)
		clear(w.dels)
		w.adds, w.addScores, w.dels = w.adds[:0], w.addScores[:0], w.dels[:0]
	}
	used := len(m.epochQueue)
	m.epochQueue = m.epochQueue[:0]
	m.shrinkScratch(used)
}

// beginEpochSkip computes the whole-term epoch skip: the maximum
// contribution any of the epoch's arrivals carries for each term,
// resolved once against the term tree's min-θ. A term whose epoch-max
// contribution cannot beat even the smallest bound is skipped for every
// document of the epoch with one map lookup, without re-consulting the
// tree per document. The skip is semantically a no-op (the per-document
// probe would find nothing), so it cannot change visit sets or
// counters. Only arrivals feed the table — expirations resolve through
// admit lists and never probe.
func (m *Maintainer) beginEpochSkip(arrived []*model.Document) {
	if m.epochMaxW == nil {
		m.epochMaxW = make(map[model.TermID]float64, 256)
		m.epochSkip = make(map[model.TermID]bool, 256)
	}
	clear(m.epochMaxW)
	clear(m.epochSkip)
	for _, d := range arrived {
		for _, p := range d.Postings {
			if p.Weight > m.epochMaxW[p.Term] {
				m.epochMaxW[p.Term] = p.Weight
			}
		}
	}
	for t, w := range m.epochMaxW {
		tr := m.trees[t]
		skip := tr == nil || tr.Len() == 0
		if !skip {
			if min, ok := tr.MinTheta(); !ok || min > w {
				skip = true
			}
		}
		m.epochSkip[t] = skip
	}
	m.epochSkipOn = true
}

// shrinkScratch bounds the retained capacity of the epoch and touched
// scratch buffers. One unusually large epoch (a burst, a catch-up
// replay) would otherwise pin its high-water capacity — including every
// inner adds/dels backing array — for the maintainer's lifetime. After
// shrinkAfter consecutive epochs that used less than a quarter of the
// retained capacity, the buffers are reallocated to the recent working
// size.
func (m *Maintainer) shrinkScratch(used int) {
	const (
		minCap      = 256
		shrinkAfter = 16
	)
	if cap(m.epochQueue) <= minCap || used*4 > cap(m.epochQueue) {
		m.epochLow = 0
		return
	}
	m.epochLow++
	if m.epochLow < shrinkAfter {
		return
	}
	m.epochLow = 0
	newCap := used * 2
	if newCap < minCap {
		newCap = minCap
	}
	m.epochQueue = make([]epochWork, 0, newCap)
	if cap(m.touched) > newCap {
		m.touched = make([]*queryState, 0, newCap)
	}
}

// epochFor returns the epoch work entry for qs, creating it on first
// touch. Entries live in a reusable queue so steady-state epochs do not
// allocate; membership is the emark stamp in the dense slot.
func (m *Maintainer) epochFor(qs *queryState) *epochWork {
	if qs.emark == m.estamp {
		return &m.epochQueue[qs.eslot]
	}
	qs.emark = m.estamp
	i := len(m.epochQueue)
	qs.eslot = int32(i)
	if i < cap(m.epochQueue) {
		m.epochQueue = m.epochQueue[:i+1]
		w := &m.epochQueue[i]
		w.qs, w.adds, w.addScores, w.dels = qs, w.adds[:0], w.addScores[:0], w.dels[:0]
	} else {
		m.epochQueue = append(m.epochQueue, epochWork{qs: qs})
	}
	return &m.epochQueue[i]
}

// markDirty records that a query's result may have changed since the
// last Publish. Over-marking (an affected query whose result ends up
// untouched) is deliberate and cheap: Freeze on an unmutated result set
// is a cached pointer, so publishing it is a no-op store. Before the
// first Publish the tracking is disarmed entirely.
func (m *Maintainer) markDirty(qs *queryState) {
	if !m.publishOn || qs.pubDirty {
		return
	}
	qs.pubDirty = true
	m.pubDirty = append(m.pubDirty, qs)
}

// WarmViews precomputes the frozen snapshot of every dirty query so a
// later Publish finds them cached. It exists so the sharded engine's
// workers can do the copy-on-publish work in parallel during the
// fan-out, leaving the coordinator's Publish with pure pointer swaps.
// Warming mid-operation (between an arrival and its derived expirations)
// is safe: nothing is published until Publish, and a re-mutated query
// simply refreezes.
func (m *Maintainer) WarmViews() {
	for _, qs := range m.pubDirty {
		if qs.live && qs.pubDirty {
			qs.r.Freeze(qs.q.K)
		}
	}
}

// Publish swaps every dirty query's publication slot to its current
// frozen snapshot and resets the dirty list. Must be called by the
// maintainer's single writer at a publication boundary; readers observe
// each swap atomically. The first call arms dirty tracking and
// publishes every owned query, so enabling the read path late still
// starts from a complete boundary. Slots whose query was unregistered
// (or unregistered and re-registered) since marking are skipped or
// republished through the same ownership-stamped snapshot, so a reused
// dense id can never leak a dead query's view.
func (m *Maintainer) Publish() {
	if !m.publishOn {
		m.publishOn = true
		m.eachLive(func(qs *queryState) { m.markDirty(qs) })
	}
	for i, qs := range m.pubDirty {
		if qs.live && qs.pubDirty {
			m.views.publish(qs.id, qs.r.Freeze(qs.q.K))
		}
		qs.pubDirty = false
		m.pubDirty[i] = nil // drop the reference: don't pin dead queries
	}
	m.pubDirty = m.pubDirty[:0]
}

// Views returns the maintainer's published read handle.
func (m *Maintainer) Views() *Views { return &m.views }

// maintainEpoch is the net-effect maintenance of one query for one
// epoch: all expirations are removed from R and all floor-reaching
// arrivals added (scores were computed at probe time), then at most one
// rebuild (only when the removals actually left the top-k deficient —
// additions may have already repaired it) or one floor raise runs,
// instead of one of each per event. A query whose R the epoch left
// untouched — every removal a stale admit entry, every arrival below
// the floor — still satisfies both invariants and needs neither a pass
// nor a publication.
func (m *Maintainer) maintainEpoch(qs *queryState, adds []*model.Document, addScores []float64, dels []*model.Document) {
	changed := false
	for _, d := range dels {
		if qs.r.Remove(d.ID) {
			changed = true
		}
	}
	for i, d := range adds {
		if s := addScores[i]; s >= qs.f {
			qs.r.Add(d.ID, s)
			m.recordAdmit(d.ID, qs.id)
			changed = true
		}
	}
	if !changed {
		return
	}
	m.markDirty(qs)
	k := qs.q.K
	switch {
	case qs.r.Len() < k && qs.f > 0:
		m.stats.Refills++
		m.rebuild(qs)
	case m.rollupEnabled && qs.r.Len() > k+m.tgtMargin+m.raiseMargin:
		m.raiseFloor(qs)
	}
}

// MemoryUsage reports the maintainer's estimated per-component heap
// footprint: probe trees, dense query state (arena slabs, term vectors,
// result sets) and the published view slots. The inverted index is
// owned by the coordinator and accounted there.
func (m *Maintainer) MemoryUsage() Memory {
	var mem Memory
	for _, tr := range m.trees {
		mem.TreeBytes += tr.MemoryBytes()
	}
	// The trees map itself.
	mem.TreeBytes += uint64(len(m.trees)) * 48
	mem.QueryStateBytes += uint64(len(m.slabs)) * uint64(unsafe.Sizeof(stateSlab{}))
	m.eachLive(func(qs *queryState) {
		mem.QueryStateBytes += uint64(cap(qs.terms)) * uint64(unsafe.Sizeof(termState{}))
		mem.QueryStateBytes += qs.r.MemoryBytes()
	})
	// Admit lists: one map entry plus a ref slice per held document.
	for _, refs := range m.holders {
		mem.QueryStateBytes += 48 + uint64(cap(refs))*4
	}
	mem.ViewBytes = m.views.memoryBytes()
	return mem
}
