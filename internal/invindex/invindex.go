// Package invindex implements the paper's Figure 1 storage layer: a
// FIFO store of the valid (in-window) documents plus an inverted index
// whose per-term lists hold impact entries ⟨d, w_{d,t}⟩ sorted by
// decreasing weight.
//
// Expiry writes no list. Document ids ascend in FIFO order, so an entry
// is stale exactly when its id is below the live floor, one past the
// last expired id, which no valid document's id is below. Iterators
// step over stale entries, and three rules reclaim them: an insert that
// would grow or split a full chunk first compacts it, a hot-list merge
// rebuild drops them, and a term-ordered sweep compacts lists for a
// budget proportional to the postings each epoch expires (see sweep).
//
// Every list is a chunked sorted array of raw EntryKeys whose chunks
// are allocated to fit. Almost every term of a real dictionary is rare,
// so what a window's index costs is set by the overhead around a
// handful of entries per list, not by how densely the few Zipf-head
// lists pack.
//
// A large epoch's arrivals are applied term-partitioned across up to
// GOMAXPROCS goroutines, while a single document stays on the caller.
// Lists share no state, each still sees its own inserts in stream order,
// and the floor and the sweep are functions of the record stream alone,
// so every list, and with it every result and snapshot byte, is the same
// at any share count (see ApplyBatch).
package invindex

import (
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"unsafe"

	"ita/internal/model"
)

// EntryKey identifies one impact entry and, by extension, a position in
// an inverted list. Lists are ordered by descending weight with ties
// broken by ascending doc id, so the total order "a before b" is
// a.W > b.W, or a.W == b.W and a.Doc < b.Doc.
type EntryKey struct {
	W   float64
	Doc model.DocID
}

// Before reports whether a precedes b in list order (closer to the head,
// i.e. higher impact).
func Before(a, b EntryKey) bool {
	if a.W != b.W {
		return a.W > b.W
	}
	return a.Doc < b.Doc
}

// compareKeys is the list order as a three-way comparison.
func compareKeys(a, b EntryKey) int {
	switch {
	case Before(a, b):
		return -1
	case Before(b, a):
		return 1
	}
	return 0
}

// List is one inverted list: impact entries in list order, held as a
// chunked sorted array (a tiered vector). At realistic dictionary sizes
// the vast majority of lists hold a handful of entries
// (window·terms/dictionary ≈ 1 for the paper's configuration), so the
// layout is built around their overhead: a one-chunk list keeps its
// chunk directory inline (chunks aliases one — no directory
// allocation), and chunks grow by an eighth, never by doubling, so a
// singleton's storage is one 16-byte allocation. The Zipf-head terms,
// which at a 100,000-document window appear in essentially every
// document, spread across chunks so that an insert rewrites at most
// one chunk's worth of memory instead of O(list) — the
// difference between microseconds and milliseconds per arrival at the
// paper's largest window.
//
// A List is always handled by pointer, because chunks may point into
// one.
type List struct {
	chunks [][]EntryKey // each non-empty and sorted; nil while the list is empty
	// one is the directory of a one-chunk list. While the list is
	// empty, one[0] parks the emptied chunk's capacity (up to parkMax
	// entries) for the term's next arrival.
	one    [1][]EntryKey
	length int // physical entries, stale ones included
}

const (
	// maxChunk bounds chunk size; a full chunk splits in two. 256
	// entries (4 KiB of EntryKeys) keeps the memmove within a couple of
	// cache lines' worth of pages while keeping the chunk directory
	// tiny.
	maxChunk = 256
	// rebuildChunk is the chunk size a merge rebuild lays down: half
	// fill, the steady state that splits leave behind.
	rebuildChunk = maxChunk / 2
	// parkMax is the largest emptied chunk an empty list holds on to.
	parkMax = 8
)

func newList() *List { return &List{} }

// setChunks installs dir as the chunk directory: a one-chunk directory
// moves inline, and anything one held before is released.
func (l *List) setChunks(dir [][]EntryKey) {
	switch len(dir) {
	case 0:
		l.chunks, l.one[0] = nil, nil
	case 1:
		l.one[0] = dir[0]
		l.chunks = l.one[:]
	default:
		l.chunks, l.one[0] = dir, nil
	}
}

// lowerBound locates the first entry not before pos as a (chunk,
// offset) pair. The chunk is the first whose last element is not before
// pos, clamped to the final chunk, so offset may equal the chunk length
// (insertion at the very end). The list must not be empty.
func (l *List) lowerBound(pos EntryKey) (int, int) {
	c, hi := 0, len(l.chunks)-1
	for c < hi {
		mid := int(uint(c+hi) >> 1)
		if ch := l.chunks[mid]; Before(ch[len(ch)-1], pos) {
			c = mid + 1
		} else {
			hi = mid
		}
	}
	ch := l.chunks[c]
	i, n := 0, len(ch)
	for i < n {
		mid := int(uint(i+n) >> 1)
		if Before(ch[mid], pos) {
			i = mid + 1
		} else {
			n = mid
		}
	}
	return c, i
}

// insert adds e in list order. An insert that would grow or split a
// full chunk first drops that chunk's entries below floor, and takes the
// room that frees when there is any.
func (l *List) insert(e EntryKey, floor model.DocID) {
	l.length++
	if len(l.chunks) == 0 {
		ch := l.one[0]
		if ch == nil {
			ch = make([]EntryKey, 0, 1)
		}
		l.one[0] = append(ch, e)
		l.chunks = l.one[:]
		return
	}
	c, i := l.lowerBound(e)
	ch := l.chunks[c]
	if len(ch) == cap(ch) {
		n := len(ch)
		ch, i = dropStale(ch, floor, i)
		l.length -= n - len(ch)
	}
	n := len(ch)
	switch {
	case n < cap(ch):
		ch = ch[:n+1]
		copy(ch[i+1:], ch[i:n])
		ch[i] = e
		l.chunks[c] = ch
	case n < maxChunk:
		// Grow by an eighth: the steps land on the allocator's size
		// classes for the short chunks that make up most of a
		// dictionary, and leave at most 12.5 % slack on the long ones.
		grown := make([]EntryKey, n+1, min(n+n/8+1, maxChunk))
		copy(grown, ch[:i])
		grown[i] = e
		copy(grown[i+1:], ch[i:])
		l.chunks[c] = grown
	default:
		// A full chunk splits into two exact-fit halves around e.
		mid := (n + 1) / 2
		left, right := make([]EntryKey, mid), make([]EntryKey, n+1-mid)
		if i < mid {
			copy(left, ch[:i])
			left[i] = e
			copy(left[i+1:], ch[i:mid-1])
			copy(right, ch[mid-1:])
		} else {
			copy(left, ch[:mid])
			copy(right, ch[mid:i])
			right[i-mid] = e
			copy(right[i-mid+1:], ch[i:])
		}
		l.chunks[c] = left
		l.setChunks(slices.Insert(l.chunks, c+1, right))
	}
}

// dropStale removes ch's entries below floor in place, and returns the
// shortened chunk and where the entry at offset at, or the end when at
// is the length, has moved.
func dropStale(ch []EntryKey, floor model.DocID, at int) ([]EntryKey, int) {
	moved, n := at, 0
	for j, e := range ch {
		if j == at {
			moved = n
		}
		if e.Doc >= floor {
			if n != j {
				ch[n] = e
			}
			n++
		}
	}
	if at == len(ch) {
		moved = n
	}
	return ch[:n], moved
}

// compact drops every entry below floor and releases the chunks that
// empties, as deleting them one by one would: an emptied list parks a
// small chunk for the term's next arrival. A chunk left under a quarter
// full is copied to fit, so a list that dwindles towards its last entry
// hands its capacity back on the way rather than all at once a sweep
// cycle after it empties. It returns the number of entries it examined.
func (l *List) compact(floor model.DocID) int {
	examined := l.length
	dir := l.chunks[:0]
	var park []EntryKey
	for _, ch := range l.chunks {
		kept, _ := dropStale(ch, floor, 0)
		l.length -= len(ch) - len(kept)
		switch {
		case len(kept) == 0:
			if cap(ch) <= parkMax {
				park = ch[:0]
			}
		case len(kept)*4 < cap(kept) && cap(kept) > parkMax:
			dir = append(dir, slices.Clone(kept))
		default:
			dir = append(dir, kept)
		}
	}
	clear(l.chunks[len(dir):]) // released chunks must not stay reachable
	l.setChunks(dir)
	if len(dir) == 0 {
		l.one[0] = park
	}
	return examined
}

// applyBatch inserts one epoch's entries ins, given in list order. For
// small sets it falls back to point inserts; once the batch is a
// meaningful fraction of the list it rewrites the list in a single
// merge pass that also drops the entries below floor, so B inserts into
// a hot Zipf-head list cost one O(list) sweep instead of B chunk
// searches and B memmoves — the index-level amortization of the epoch
// pipeline. scratch is reusable merge space (may be nil); the possibly
// grown scratch is returned for the caller to keep.
func (l *List) applyBatch(ins []EntryKey, floor model.DocID, scratch []EntryKey) []EntryKey {
	// Point inserts win whenever the batch is small — in absolute terms
	// (each is a binary search plus one sub-chunk memmove,
	// allocation-free, and at realistic dictionary sparsity almost every
	// touched list takes a handful of arrivals) or relative to the list
	// (the rebuild walks everything). The rebuild pays off only once a
	// large fraction of the list changes in one epoch: one merge sweep
	// and one allocation replace m searches and m memmoves.
	if len(ins) < hotTermMutations || len(ins)*2 < l.length {
		for _, e := range ins {
			l.insert(e, floor)
		}
		return scratch
	}
	merged := scratch[:0]
	ii := 0
	for _, ch := range l.chunks {
		for _, e := range ch {
			for ii < len(ins) && Before(ins[ii], e) {
				merged = append(merged, ins[ii])
				ii++
			}
			if e.Doc >= floor {
				merged = append(merged, e)
			}
		}
	}
	merged = append(merged, ins[ii:]...)
	l.layOut(merged)
	return merged
}

// layOut replaces the list's entries with a copy of merged, cut into
// rebuildChunk-sized chunks. All chunks slice one exact-fit backing
// array (capacity-capped, so a growing chunk copies out instead of
// clobbering its neighbor), keeping the rebuild at a single persistent
// allocation.
func (l *List) layOut(merged []EntryKey) {
	l.length = len(merged)
	backing := slices.Clone(merged)
	dir := l.chunks[:0]
	clear(l.chunks)
	if need := (len(backing) + rebuildChunk - 1) / rebuildChunk; cap(dir) < need {
		dir = make([][]EntryKey, 0, need)
	}
	for start := 0; start < len(backing); start += rebuildChunk {
		end := min(start+rebuildChunk, len(backing))
		dir = append(dir, backing[start:end:end])
	}
	l.setChunks(dir)
}

// Iterator walks a list's live entries from the head towards lower
// impacts, stepping over the stale ones (ids below floor). It stays
// valid only while the list is not modified. The refill loops re-read
// Key() many times per consumed entry, so the current entry is loaded
// once per position into k.
type Iterator struct {
	l     *List
	floor model.DocID
	c     int // chunk index
	i     int // offset within chunk
	ok    bool
	k     EntryKey
}

// load caches the first live entry at or after the iterator's position,
// stepping over stale entries and chunk ends, and clears ok when there
// is none.
func (it *Iterator) load() {
	for chunks := it.l.chunks; it.c < len(chunks); it.c, it.i = it.c+1, 0 {
		for ch := chunks[it.c]; it.i < len(ch); it.i++ {
			if ch[it.i].Doc >= it.floor {
				it.k, it.ok = ch[it.i], true
				return
			}
		}
	}
	it.ok = false
}

// Valid reports whether the iterator is positioned on an entry.
func (it *Iterator) Valid() bool { return it.ok }

// Next advances towards the tail (lower impact).
func (it *Iterator) Next() {
	it.i++
	it.load()
}

// Key returns the current entry; the iterator must be valid.
func (it *Iterator) Key() EntryKey { return it.k }

// scan returns an iterator at the highest-impact entry not below floor.
func (l *List) scan(floor model.DocID) Iterator {
	it := Iterator{l: l, floor: floor}
	it.load()
	return it
}

// Index is the document store plus the inverted lists over it.
type Index struct {
	*Store
	// lists is indexed by term id. Ids are dictionary-dense (see
	// model.TermID), so a flat table costs 8 bytes a term where a map
	// cost a bucket slot and a hash per posting. Emptied lists stay in
	// the table: at realistic dictionary sparsity the same rare terms
	// keep reappearing, and recreating a list per reappearance costs two
	// allocations per term per document.
	lists []*List
	// floor is the live floor: entries with lower doc ids are stale.
	// occupied has bit t set while term t's list holds an entry, so the
	// sweep steps over emptied lists without loading them; cursor is
	// the sweep's next term, and live counts live entries.
	floor    model.DocID
	occupied []uint64
	cursor   int
	live     int
	// batchCounts is ApplyBatch's per-term insert counter, indexed
	// like lists and all zero between calls; shares holds one merge
	// scratch per share of the term-partitioned mutation pass.
	batchCounts []int32
	shares      []shareScratch
}

// shareScratch is one share's reusable merge space for hot-list
// rebuilds, with low counting consecutive low-usage epochs towards a
// shrink (see shrink).
type shareScratch struct {
	buf []EntryKey
	low int
}

// NewIndex returns an empty index. The seed is accepted for interface
// stability and reproducibility bookkeeping; the index is fully
// deterministic regardless.
func NewIndex(seed uint64) *Index {
	_ = seed
	return &Index{Store: NewStore()}
}

// Scan returns an iterator at the highest-impact live entry of term t's
// list, invalid at once when t has none. It stays valid until the next
// ApplyBatch.
func (x *Index) Scan(t model.TermID) Iterator {
	if int(t) < len(x.lists) && x.lists[t] != nil {
		return x.lists[t].scan(x.floor)
	}
	return Iterator{}
}

// covering returns table, reallocated with an eighth of headroom when
// it does not reach index t.
func covering[T any](table []T, t model.TermID) []T {
	if int(t) < len(table) {
		return table
	}
	n := int(t) + 1
	return append(make([]T, 0, n+n/8), table...)[:n+n/8]
}

// listFor returns term t's list, creating it on first use. The table
// must already cover t: the mutation pass grows it once per epoch, so
// shares running side by side never reallocate it.
func (x *Index) listFor(t model.TermID) *List {
	l := x.lists[t]
	if l == nil {
		l = newList()
		x.lists[t] = l
	}
	return l
}

// Insert adds an arriving document to the store and posts an impact
// entry into the inverted list of each of its terms: an epoch of one
// arrival that expires nothing. It fails unless the document's id is
// above every valid document's.
func (x *Index) Insert(d *model.Document) error {
	_, err := x.ApplyBatch([]*model.Document{d}, func(*model.Document, int) bool { return false })
	return err
}

// RemoveOldest expires the FIFO head document, whose impact entries go
// stale, and returns it: an epoch that expires exactly one document. It
// returns nil on an empty index.
func (x *Index) RemoveOldest() *model.Document {
	calls := 0
	res, _ := x.ApplyBatch(nil, func(*model.Document, int) bool {
		calls++
		return calls == 1
	})
	if len(res.Expired) == 0 {
		return nil
	}
	return res.Expired[0]
}

// BatchResult reports what one ApplyBatch call actually did.
type BatchResult struct {
	// Expired holds the documents that were valid before the epoch and
	// expired during it, in FIFO (arrival) order.
	Expired []*model.Document
	// Dropped is the number of leading arrivals that expired within the
	// same epoch (arrivals[:Dropped]); their postings were never indexed.
	// Expirations pop in FIFO order, so the dropped arrivals always form
	// a prefix of the batch and arrivals[Dropped:] are the survivors.
	Dropped int
	// Inserts counts the impact entries posted and Deletes those of the
	// expired documents, which went stale — same-epoch transients
	// contribute to neither.
	Inserts int
	Deletes int
}

// ApplyBatch applies one epoch of the stream in a single pass: it
// appends the arriving documents to the FIFO store in order, pops
// expired documents from the head while expired says so (the window
// policy bound to the epoch's end time; it must be monotone in both
// arguments, as count- and time-based sliding windows are), raises the
// live floor past them, inserts the surviving arrivals' postings,
// grouped per term so each touched list is edited in one pass, and runs
// the sweep. Expired entries are not deleted: they are stale from here
// on. Documents that arrive and expire within the same epoch occupy
// window slots while the epoch plays out but are never posted.
//
// An epoch of at least 2·shareMutations inserts is applied
// term-partitioned: the caller and up to GOMAXPROCS−1 goroutines, which
// exit before ApplyBatch returns, each edit the lists of their own terms
// (see applyShare). A list's final entries and chunk layout depend only
// on its own inserts in stream order and on the floor, which
// partitioning by term keeps, so the result is the same at any share
// count.
//
// Validation is all-or-nothing: an arrival whose id is not above the
// newest valid document's and every earlier arrival's (see Store) fails
// the call before any mutation.
func (x *Index) ApplyBatch(arrivals []*model.Document, expired func(oldest *model.Document, count int) bool) (BatchResult, error) {
	return x.applyEpoch(arrivals, expired, applyShares)
}

// shareMutations is the least insert count worth a goroutine of its
// own in the term-partitioned pass. An insert costs about a microsecond
// of cache misses on a wide window, well above what starting and joining
// a goroutine costs; a WSJ-sized document is ≈177 inserts, so
// single-document epochs stay inline.
const shareMutations = 1024

// applyShares is the share count of an epoch of m inserts: one
// per shareMutations, capped at GOMAXPROCS, at least one.
func applyShares(m int) int {
	return max(1, min(runtime.GOMAXPROCS(0), m/shareMutations))
}

// applyEpoch is ApplyBatch with the share count of the insert pass
// chosen by shares from the epoch's insert count.
func (x *Index) applyEpoch(arrivals []*model.Document, expired func(oldest *model.Document, count int) bool, shares func(inserts int) int) (BatchResult, error) {
	var res BatchResult
	if err := x.Store.ascending(arrivals); err != nil {
		return res, err
	}
	if len(arrivals) > 0 && x.Store.Len() == 0 && arrivals[0].ID < x.floor {
		// Ids restart below the floor of an emptied window: reclaim
		// every entry, all of them stale, before the floor falls.
		x.sweep(math.MaxInt)
		x.floor = 0
	}
	x.Store.fifo = append(x.Store.fifo, arrivals...)
	for {
		oldest := x.Store.Oldest()
		if oldest == nil || !expired(oldest, x.Store.Len()) {
			break
		}
		x.Store.RemoveOldest()
		x.floor = oldest.ID + 1
		// The FIFO reaches this epoch's arrivals only after every older
		// document is gone, and then in batch order.
		if res.Dropped < len(arrivals) && oldest == arrivals[res.Dropped] {
			res.Dropped++
		} else {
			res.Expired = append(res.Expired, oldest)
			res.Deletes += len(oldest.Postings)
		}
	}

	// The counting pass: per-term insert counts for the shares' hot
	// test, and the largest term, so the list table grows here once and
	// never while shares run.
	survivors := arrivals[res.Dropped:]
	counts := x.batchCounts
	var maxTerm model.TermID
	for _, d := range survivors {
		for _, p := range d.Postings {
			counts = covering(counts, p.Term)
			counts[p.Term]++
			maxTerm = max(maxTerm, p.Term)
		}
		res.Inserts += len(d.Postings)
	}
	x.batchCounts = counts
	if res.Inserts > 0 {
		x.lists = covering(x.lists, maxTerm)
		x.occupied = covering(x.occupied, maxTerm/64)
	}
	x.live += res.Inserts - res.Deletes

	n := shares(res.Inserts)
	for len(x.shares) < n {
		x.shares = append(x.shares, shareScratch{})
	}
	if n == 1 { // every single-document epoch: no goroutine, nothing to allocate
		x.applyShare(0, 1, survivors)
	} else {
		var wg sync.WaitGroup
		for w := 1; w < n; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				x.applyShare(w, n, survivors)
			}()
		}
		x.applyShare(0, n, survivors)
		wg.Wait()
	}
	for w := n; w < len(x.shares); w++ {
		x.shares[w].shrink(0) // idle this epoch
	}
	x.sweep(sweepPerExpired * res.Deletes)

	// Re-zero the counters by the postings that raised them, and mark
	// their lists occupied; the tables are dictionary-sized and an epoch
	// touches a sliver of them.
	for _, d := range survivors {
		for _, p := range d.Postings {
			counts[p.Term] = 0
			x.occupied[p.Term/64] |= 1 << (p.Term % 64)
		}
	}
	return res, nil
}

// applyShare inserts the epoch's surviving postings whose term t has
// t mod n = w, in stream order, with share w's merge scratch. Shares
// edit disjoint lists and only read batchCounts, the list table and the
// floor, so all n run side by side; n = 1 is the whole pass.
//
// Grouping a term's inserts to apply them in one list pass only pays
// off for hot terms — Zipf-head lists collecting a meaningful number of
// entries per epoch; at realistic dictionary sparsity the vast majority
// of touched terms see one or two inserts, where buffering costs more
// than the point operations it saves. So the counting pass finds the
// hot terms, cold terms take direct point inserts with no buffering,
// and only hot terms are grouped and merge-applied.
func (x *Index) applyShare(w, n int, survivors []*model.Document) {
	counts, lists, floor := x.batchCounts, x.lists, x.floor
	mine := func(t model.TermID) bool { return n == 1 || int(t)%n == w }
	// hot reports whether term t's inserts are worth grouping: enough of
	// them in absolute terms AND a meaningful fraction of the current
	// list, mirroring applyBatch's rebuild condition — there is no point
	// buffering inserts that will be applied as point operations anyway.
	hot := func(t model.TermID) bool {
		c := counts[t]
		if c < hotTermMutations {
			return false
		}
		l := lists[t]
		return l == nil || int(c)*2 >= l.length
	}
	var muts map[model.TermID][]EntryKey
	for _, d := range survivors {
		for _, p := range d.Postings {
			if !mine(p.Term) {
				continue
			}
			e := EntryKey{W: p.Weight, Doc: d.ID}
			if hot(p.Term) {
				if muts == nil {
					muts = make(map[model.TermID][]EntryKey)
				}
				muts[p.Term] = append(muts[p.Term], e)
				continue
			}
			x.listFor(p.Term).insert(e, floor)
		}
	}
	s := &x.shares[w]
	used := 0
	for t, ins := range muts {
		slices.SortFunc(ins, compareKeys)
		s.buf = x.listFor(t).applyBatch(ins, floor, s.buf)
		used = max(used, len(s.buf))
	}
	s.shrink(used)
}

// sweepPerExpired is the sweep's budget per expired posting. An epoch
// expiring E postings compacts lists holding about 4·E entries, so a
// cycle over an index of P entries takes about P/(4·E) epochs: a term
// that never comes back loses its entries within one cycle, and the
// stale entries a list holds when the sweep reaches it are about a
// quarter of its share of one window's postings, fewer where inserts
// and rebuilds reclaimed them first (about 9 % of the live entries on
// WSJ-shaped windows of 1 000 and 10 000 documents).
const sweepPerExpired = 4

// sweep compacts the occupied lists in term order from the cursor,
// charging each one unit plus the entries it examined, until budget is
// spent or the table has been walked once.
func (x *Index) sweep(budget int) {
	for words := 0; budget > 0 && words <= len(x.occupied); {
		w := x.cursor / 64
		if w >= len(x.occupied) {
			w, x.cursor = 0, 0
			if len(x.occupied) == 0 {
				return
			}
		}
		rest := x.occupied[w] >> (x.cursor % 64)
		if rest == 0 {
			x.cursor = (w + 1) * 64
			words++
			continue
		}
		t := x.cursor + bits.TrailingZeros64(rest)
		l := x.lists[t]
		budget -= 1 + l.compact(x.floor)
		if l.length == 0 {
			x.occupied[w] &^= 1 << (t % 64)
		}
		x.cursor = t + 1
	}
}

// shrink bounds the retained capacity of a share's merge scratch — the
// same policy core.Maintainer applies to its epoch buffers. One
// unusually large epoch (a burst, a catch-up replay) grows the scratch
// to the biggest list it rebuilt and, without this, that high-water
// capacity is pinned for the index's lifetime. After shrinkAfter
// consecutive epochs using less than a quarter of the retained capacity
// (an epoch the share sat out uses none), the scratch is reallocated to
// twice the recent working size.
func (s *shareScratch) shrink(used int) {
	const (
		minCap      = 256
		shrinkAfter = 16
	)
	if cap(s.buf) <= minCap || used*4 > cap(s.buf) {
		s.low = 0
		return
	}
	s.low++
	if s.low < shrinkAfter {
		return
	}
	s.low = 0
	s.buf = make([]EntryKey, 0, max(used*2, minCap))
}

// sizeClasses are the Go allocator's small-object sizes; a larger
// object takes whole 8 KiB pages. The gauges below round every
// allocation up the way the allocator does, so they can be held against
// the collector's own live-heap figure.
var sizeClasses = [...]uint64{
	8, 16, 24, 32, 48, 64, 80, 96, 112, 128, 144, 160, 176, 192, 208, 224, 240, 256,
	288, 320, 352, 384, 416, 448, 480, 512, 576, 640, 704, 768, 896, 1024, 1152, 1280,
	1408, 1536, 1792, 2048, 2304, 2688, 3072, 3200, 3456, 4096, 4864, 5376, 6144, 6528,
	6784, 6912, 8192, 9472, 9728, 10240, 10880, 12288, 13568, 14336, 16384, 18432,
	19072, 20480, 21760, 24576, 27264, 28672, 32768,
}

// allocSize returns the heap bytes an n-byte allocation occupies.
func allocSize(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	if i, _ := slices.BinarySearch(sizeClasses[:], n); i < len(sizeClasses) {
		return sizeClasses[i]
	}
	const page = 8192
	return (n + page - 1) / page * page
}

const (
	entryBytes  = uint64(unsafe.Sizeof(EntryKey{}))
	chunkBytes  = uint64(unsafe.Sizeof([]EntryKey(nil)))
	structBytes = uint64(unsafe.Sizeof(List{}))
	slotBytes   = uint64(unsafe.Sizeof((*List)(nil)))
	countBytes  = uint64(unsafe.Sizeof(int32(0)))
	shareBytes  = uint64(unsafe.Sizeof(shareScratch{}))
)

// listBytes is one list's heap footprint: the struct, the chunk
// directory unless it is the inline one, and the chunks' (or the parked
// chunk's) capacity. Chunks a merge rebuild cut from one backing array
// are counted one by one, which the half-fill chunk size makes exact
// for all but the last.
func listBytes(l *List) uint64 {
	b := allocSize(structBytes)
	if len(l.chunks) == 0 {
		return b + allocSize(uint64(cap(l.one[0]))*entryBytes)
	}
	if len(l.chunks) > 1 {
		b += allocSize(uint64(cap(l.chunks)) * chunkBytes)
	}
	for _, ch := range l.chunks {
		b += allocSize(uint64(cap(ch)) * entryBytes)
	}
	return b
}

// MemoryBytes is the index's heap footprint: the FIFO store, every
// inverted list, the term table, the occupied-list bitmap and the epoch
// scratch, every share's merge space included.
func (x *Index) MemoryBytes() uint64 {
	b := x.Store.MemoryBytes() + x.PostingBytes() +
		allocSize(uint64(cap(x.lists))*slotBytes) +
		allocSize(uint64(cap(x.batchCounts))*countBytes) +
		allocSize(uint64(cap(x.occupied))*8) +
		allocSize(uint64(cap(x.shares))*shareBytes)
	for _, s := range x.shares {
		b += allocSize(uint64(cap(s.buf)) * entryBytes)
	}
	return b
}

// PostingBytes is the inverted-list portion of MemoryBytes: every
// list's struct, directory and entry storage, excluding the FIFO store
// and the term table. PostingBytes over PostingCount is the
// bytes-per-posting figure the benchmark's traced pass records.
func (x *Index) PostingBytes() uint64 {
	var b uint64
	for _, l := range x.lists {
		if l != nil {
			b += listBytes(l)
		}
	}
	return b
}

// PostingCount is the number of live impact entries: the postings of
// the valid documents.
func (x *Index) PostingCount() int { return x.live }

// hotTermMutations is the per-term insert count at which ApplyBatch
// switches from point inserts to grouped one-pass application. It
// matches applyBatch's own small-set cutoff.
const hotTermMutations = 8
