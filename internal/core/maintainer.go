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
// It is ITA's shard, the unit of parallelism — every piece of
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
// state without touching any map, and the trees themselves live by
// value in one slice, found through the term table (see termEntry).
//
// A Maintainer is not safe for concurrent use with itself; a sharded
// ITA runs many maintainers concurrently, each on its own goroutine,
// which is safe exactly because they share nothing but the read-only
// index.
type Maintainer struct {
	index *invindex.Index
	stats *Stats

	// Probe trees, by value, one per term some owned query holds; a
	// term's termEntry.tree is 1 + its index here. An emptied tree's
	// slot joins freeTrees for the next new term. Creating a tree can
	// grow the slice, so no *Tree is held across a call to tree.
	trees     []threshtree.Tree
	freeTrees []uint32

	// Dense query-state arena: stable-addressed slabs indexed by dense
	// id, a free list for Unregister churn, and the live count. The
	// ext→dense lookup lives in views (it is the same mapping the
	// wait-free read path resolves through).
	slabs []*stateSlab
	free  []uint32
	next  uint32 // high-water dense id
	n     int    // live queries

	// Floor maintenance margins (see floor.go): a refill rebuilds R down
	// to k+tgtMargin members, a floor raise triggers past
	// k+tgtMargin+raiseMargin, and Register searches to
	// k+min(registerMargin, tgtMargin).
	tgtMargin   int
	raiseMargin int

	// Ablation switches (itabench -exp ablations). Both default to the paper's
	// configuration: greedy probing and floor raising enabled.
	rollupEnabled bool
	greedyProbe   bool
	scanTrees     bool // entry-ordered scan-all probe trees (equivalence reference)

	// Scratch reused across events to keep steady-state processing
	// allocation-free. Affected-query dedup and the epoch queue
	// are epoch-stamped dense marks inside the query states themselves
	// (queryState.mark/emark against stamp/estamp), so there is no map
	// to clear between events.
	stamp   uint64
	estamp  uint64
	touched []*queryState

	// Rebuild scratch (see rebuild): one cursor per query term, the
	// bounded heap of the best target scores, and the documents the scan
	// scored, which join R only if they survive its floor. cands is
	// released like the epoch scratch (see reuse), since one deep scan
	// would otherwise pin its high-water capacity.
	iterBuf  []invindex.Iterator
	topBuf   topScores
	cands    []model.ScoredDoc
	candsLow int

	// The term table (see termEntry), dense by TermID: term ids are
	// interned densely, so it is bounded by vocabulary size. It finds a
	// term's probe tree, and holds the current document's postings as
	// stamp-marked weights. Scoring an affected query costs one array
	// load per query term — mark and weight share a cache line, no map
	// hashing — and loading the next document is a plain overwrite with
	// a fresh stamp, no clearing pass over the previous document's
	// terms. scoreDoc reproduces model.Score's exact float summation
	// order, so the fast path is bit-identical to the slow one.
	termTab  []termEntry
	docStamp uint32

	// Window slots (see docSlot), indexed by DocID modulo the table's
	// power-of-two length; slotFloor is the least length a collision
	// forced, and scanStamp the running rebuild scan's stamp.
	slots     []docSlot
	slotFloor int
	scanStamp uint64

	// Epoch scratch: the queries whose R the current epoch changed, each
	// once, reused across HandleEpoch calls.
	epochQueue []*queryState
	// epochLow tracks consecutive HandleEpoch calls that used only a
	// small fraction of the retained scratch capacity; past a threshold
	// the scratch shrinks back (see shrinkScratch).
	epochLow int

	// Published read path: one publication slot per dense id (views)
	// and the queries whose results changed since the last Publish. See
	// view.go for the consistency model. Dirty tracking is armed by the
	// first Publish call: the facade arms it at construction (serving
	// reads is its job), while core-level users that never publish —
	// the figure benchmarks and harnesses driving ITA directly — pay
	// nothing for the publication machinery.
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

// MaintainerConfig carries the tuning knobs every shard of an ITA
// shares.
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
// ITA hands every shard the same index but a private stats block,
// merged on read.
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
		scanStamp:     1,
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
	r     topk.ResultSet // by value: no pointer between a slot and its R
	f     float64        // score floor F: R holds every valid doc scoring ≥ F
	id    uint32         // own dense id (slab index)
	live  bool

	// Publication state: whether r changed since the last Publish. The
	// publication slot itself is views entry id.
	pubDirty bool

	// Epoch-stamped scratch marks, replacing the former touchedMark and
	// epochIdx maps: a slot is "marked" exactly when its stamp equals
	// the maintainer's current one.
	mark  uint64 // collectAffected dedup stamp
	emark uint64 // HandleEpoch queue stamp: R changed this epoch

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
// can probe it. The pointer is valid until the next tree creation.
func (m *Maintainer) tree(t model.TermID) *threshtree.Tree {
	m.growTerms(t)
	e := &m.termTab[t]
	if e.tree == 0 {
		if n := len(m.freeTrees); n > 0 {
			e.tree = m.freeTrees[n-1]
			m.freeTrees = m.freeTrees[:n-1]
		} else {
			m.trees = append(m.trees, threshtree.Tree{})
			e.tree = uint32(len(m.trees))
		}
		if m.scanTrees {
			m.trees[e.tree-1] = threshtree.NewScanAll()
		}
	}
	return &m.trees[e.tree-1]
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
	m.fitSlots() // the first query creates the window-slot table
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
	qs.r = *r
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
	m.rebuild(qs, m.registerTarget(qs))
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
		e := &m.termTab[ts.term]
		tr := &m.trees[e.tree-1]
		tr.Remove(qs.id, ts.b)
		m.stats.TreeUpdates++
		if tr.Len() == 0 {
			*tr = threshtree.Tree{} // release the entries
			m.freeTrees = append(m.freeTrees, e.tree)
			e.tree = 0
		}
	}
	m.views.lookup.Delete(id)
	m.views.clear(qs.id)
	qs.q = nil
	qs.r = topk.ResultSet{}
	qs.live = false
	qs.pubDirty = false
	qs.f = 0
	qs.terms = qs.terms[:0] // keep capacity for the next occupant
	m.free = append(m.free, qs.id)
	m.n--
	if m.n == 0 {
		// Every admit entry is now stale, and HandleEpoch returns before
		// reaching an expiry walk that would free one (ITA does not even
		// fan out to an empty shard), so drop the whole table here.
		m.slots, m.slotFloor = nil, 0
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

// termEntry is one term's slot in the term table: 1 + the index of the
// term's probe tree in trees (0 when no owned query holds the term), and
// the term's weight in the current document, valid only while mark
// carries the current document stamp. The 16 bytes put a document
// term's tree and its weight on the cache line prepDoc just wrote, so
// collectAffected finds the tree without a hash probe.
type termEntry struct {
	mark uint32
	tree uint32
	w    float64
}

// growTerms makes the term table cover term t. Every shard has its own
// vocabulary-sized table, so it grows to t plus a sixteenth (new terms
// arrive at the top of the dictionary) rounded up to a page, rather than
// by half again.
func (m *Maintainer) growTerms(t model.TermID) {
	if int(t) < len(m.termTab) {
		return
	}
	const perPage = 4096 / int(unsafe.Sizeof(termEntry{}))
	need := int(t) + 1
	grown := make([]termEntry, (need+need/16+perPage-1)/perPage*perPage)
	copy(grown, m.termTab)
	m.termTab = grown
}

// prepDoc loads d's composition list into the term table so subsequent
// scoreDoc calls against d are one array load per query term. A term's
// weight is valid only under the current stamp, so stale weights from
// earlier documents are dead without being cleared. When the 32-bit
// stamp wraps, every mark is cleared once, so no mark written 2^32
// documents ago can match a reused stamp.
func (m *Maintainer) prepDoc(d *model.Document) {
	m.docStamp++
	if m.docStamp == 0 {
		for i := range m.termTab {
			m.termTab[i].mark = 0
		}
		m.docStamp = 1
	}
	// Postings are in ascending term order: the last is the largest.
	if n := len(d.Postings); n > 0 {
		m.growTerms(d.Postings[n-1].Term)
	}
	for _, p := range d.Postings {
		e := &m.termTab[p.Term]
		e.mark, e.w = m.docStamp, p.Weight
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
		// Every query term has a tree, so the table covers it.
		if e := &m.termTab[qs.terms[i].term]; e.mark == m.docStamp {
			s += qs.terms[i].qw * e.w
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
// prefix and exits at the first unbeatable bound, and a whole term is
// skipped in O(1) when its min-θ exceeds the contribution. The dedup is
// an epoch-stamped mark in each dense slot, no map and no clearing pass.
//
// The result is a maintainer-owned scratch slice, valid until the next
// call.
func (m *Maintainer) collectAffected(d *model.Document) []*queryState {
	m.touched = m.touched[:0]
	m.stamp++
	stamp := m.stamp
	for _, p := range d.Postings {
		ti := m.termTab[p.Term].tree
		if ti == 0 {
			continue // no owned query holds the term
		}
		tr := &m.trees[ti-1]
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

// docSlot is one window document's state: its admit list (the dense ids
// of the queries that admitted it into R) and the stamp of the last
// rebuild scan that read it. Expiry walks the admit list, which names
// exactly the document's holders (plus tolerated stale entries, see
// recordAdmit), instead of probing the trees, whose beatable bounds are
// typically an order of magnitude more. Ids ascend through the window,
// consecutively when the engine numbers them, so a table as long as the
// window gives each document a slot of its own; a document mapping to a
// slot in use (a non-empty list, or the running scan's stamp) doubles
// the table, so sparse ids need no fallback map.
type docSlot struct {
	doc   model.DocID
	stamp uint64
	refs  []threshtree.Ref
}

// inUse reports whether s holds state its document still needs. Between
// scans no slot carries scanStamp, which starts at 1 and is never 0.
func (m *Maintainer) inUse(s *docSlot) bool { return len(s.refs) > 0 || s.stamp == m.scanStamp }

func (m *Maintainer) at(doc model.DocID) *docSlot {
	return &m.slots[uint64(doc)&uint64(len(m.slots)-1)]
}

// slot returns doc's slot, claiming it, with its list's capacity, when
// no other document uses it.
func (m *Maintainer) slot(doc model.DocID) *docSlot {
	for {
		s := m.at(doc)
		if s.doc == doc {
			return s
		}
		if !m.inUse(s) {
			s.doc, s.refs = doc, s.refs[:0]
			return s
		}
		m.resizeSlots(2*len(m.slots), true)
	}
}

// fitSlots sizes the table to the window: the least power of two of at
// least 64 and slotFloor that the store's valid documents fit in. It
// grows at once but shrinks only past four times that, so a time-window
// burst does not pin its peak and a steady window does not flap.
func (m *Maintainer) fitSlots() {
	want := max(64, m.slotFloor)
	for want < m.index.Len() {
		want *= 2
	}
	if len(m.slots) < want || len(m.slots) >= 4*want {
		m.resizeSlots(want, false)
	}
}

// resizeSlots moves the slots in use into a table of length n, doubling
// n while two of them collide; forced, or a collision, raises slotFloor
// to the final length. Slots not in use are dropped with their capacity.
func (m *Maintainer) resizeSlots(n int, forced bool) {
	old := m.slots
retry:
	m.slots = make([]docSlot, n)
	for i := range old {
		if o := &old[i]; m.inUse(o) {
			if s := m.at(o.doc); !m.inUse(s) {
				*s = *o
				continue
			}
			n, forced = 2*n, true
			goto retry
		}
	}
	if forced {
		m.slotFloor = n
	}
}

// recordAdmit appends a query's dense id to a document's admit list.
// Every path that adds a document to some R must record the admit, so
// the expiry walk finds every holder without probing the trees
// (CheckInvariants verifies that each R member's list names its
// query). A rebuild admits only the candidates that survive its floor,
// so its scan leaves no entry behind. Entries are never removed before
// the document expires: a query that later drops the document
// (purgeBelow after a floor raise or a rebuild's new floor), dies
// (Unregister, possibly with slot reuse), or re-admits it (a refill
// after a purge) leaves a stale or duplicate entry behind. The expiry
// walk tolerates all three — r.Remove reports false for a non-member
// and the liveness check skips dead slots — so admits stay O(1) and
// the list is simply emptied wholesale when its document expires.
func (m *Maintainer) recordAdmit(doc model.DocID, id threshtree.Ref) {
	s := m.slot(doc)
	s.refs = append(s.refs, id)
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
// with the epoch-start bounds, and each affected query's score is
// computed once, at probe time, while the document's weights are in the
// term table. Both are applied to R on the spot: every expiry is
// removed, then every arrival reaching the query's epoch-start floor
// added (with its admit recorded). No floor moves until every event is
// applied, so each query sees the same operations in the same order as
// if its events had been gathered first. A query whose R changed joins
// the epoch queue once, and then gets at most one rebuild or floor
// raise (settle). Probing every arrival before any floor moves is
// sound: an arrival an intra-epoch floor raise would have filtered is
// merely extra work that the epoch-end floor comparison discards, and a
// stale admit entry is a removal that r.Remove reports as a no-op.
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
	m.estamp++
	for _, d := range expired {
		// Another document holding the slot means d has no admit list.
		if s := m.at(d.ID); s.doc == d.ID {
			for _, ref := range s.refs {
				if qs := m.state(ref); qs.live && qs.r.Remove(d.ID) {
					m.enqueue(qs)
				}
			}
			s.refs = s.refs[:0]
		}
	}
	// Every expired admit list is empty now, so the table fits the
	// epoch-end window alone.
	m.fitSlots()
	for _, d := range arrived {
		m.prepDoc(d)
		for _, qs := range m.collectAffected(d) {
			m.stats.ScoreComputations++
			score := qs.escore
			if qs.f != 0 {
				score = m.scoreDoc(qs)
			}
			if score >= qs.f {
				qs.r.Add(d.ID, score)
				m.recordAdmit(d.ID, qs.id)
				m.enqueue(qs)
			}
		}
	}
	for _, qs := range m.epochQueue {
		m.settle(qs)
	}
	used := len(m.epochQueue)
	m.epochQueue = m.epochQueue[:0]
	m.shrinkScratch(used)
}

// shrinkScratch bounds the retained capacity of the epoch and touched
// scratch buffers. One unusually large epoch (a burst, a catch-up
// replay) would otherwise pin its high-water capacity for the
// maintainer's lifetime.
func (m *Maintainer) shrinkScratch(used int) {
	old := cap(m.epochQueue)
	m.epochQueue = reuse(m.epochQueue, used, &m.epochLow)
	if c := cap(m.epochQueue); c < old && cap(m.touched) > c {
		m.touched = make([]*queryState, 0, c)
	}
}

// reuse returns buf emptied for its next use, which needed used
// elements this time. After shrinkAfter consecutive uses of less than a
// quarter of its capacity, it returns a fresh buffer of twice the
// recent working size instead, so one burst does not pin its high-water
// capacity for good; low counts those uses.
func reuse[T any](buf []T, used int, low *int) []T {
	const (
		minCap      = 256
		shrinkAfter = 16
	)
	if cap(buf) <= minCap || used*4 > cap(buf) {
		*low = 0
		return buf[:0]
	}
	*low++
	if *low < shrinkAfter {
		return buf[:0]
	}
	*low = 0
	return make([]T, 0, max(used*2, minCap))
}

// enqueue adds qs, whose R the epoch changed, to the epoch queue unless
// it is there already; membership is the emark stamp in the dense slot.
func (m *Maintainer) enqueue(qs *queryState) {
	if qs.emark != m.estamp {
		qs.emark = m.estamp
		m.epochQueue = append(m.epochQueue, qs)
	}
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
// later Publish finds them cached. It exists so the shards of a
// fanned-out ITA epoch do the copy-on-publish work in parallel, leaving
// the coordinator's Publish with pure pointer swaps.
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

// settle finishes one epoch for a query whose R it changed: at most one
// rebuild (only when the removals actually left the top-k deficient —
// additions may have already repaired it) or one floor raise, instead of
// one of each per event. A query whose R the epoch left untouched —
// every removal a stale admit entry, every arrival below the floor —
// still satisfies both invariants and needs neither a pass nor a
// publication.
func (m *Maintainer) settle(qs *queryState) {
	m.markDirty(qs)
	k := qs.q.K
	switch {
	case qs.r.Len() < k && qs.f > 0:
		m.stats.Refills++
		m.rebuild(qs, m.refillTarget(qs))
	case m.rollupEnabled && qs.r.Len() > k+m.tgtMargin+m.raiseMargin:
		m.raiseFloor(qs)
	}
}

// MemoryUsage reports the maintainer's estimated per-component heap
// footprint: probe trees (the slice, its free list and every tree's
// entries), dense query state (arena slabs, term vectors, result sets,
// window slots), the published view slots and the term table. The
// inverted index is owned by the coordinator and accounted there.
func (m *Maintainer) MemoryUsage() Memory {
	var mem Memory
	mem.TreeBytes = uint64(cap(m.trees))*uint64(unsafe.Sizeof(threshtree.Tree{})) +
		uint64(cap(m.freeTrees))*uint64(unsafe.Sizeof(uint32(0)))
	for i := range m.trees {
		mem.TreeBytes += m.trees[i].MemoryBytes()
	}
	mem.TermTableBytes = uint64(cap(m.termTab)) * uint64(unsafe.Sizeof(termEntry{}))
	mem.QueryStateBytes += uint64(len(m.slabs)) * uint64(unsafe.Sizeof(stateSlab{}))
	m.eachLive(func(qs *queryState) {
		mem.QueryStateBytes += uint64(cap(qs.terms)) * uint64(unsafe.Sizeof(termState{}))
		mem.QueryStateBytes += qs.r.MemoryBytes()
	})
	// Window slots and their admit lists.
	mem.QueryStateBytes += uint64(len(m.slots)) * uint64(unsafe.Sizeof(docSlot{}))
	for i := range m.slots {
		mem.QueryStateBytes += uint64(cap(m.slots[i].refs)) * uint64(unsafe.Sizeof(threshtree.Ref(0)))
	}
	mem.ViewBytes = m.views.memoryBytes()
	return mem
}
