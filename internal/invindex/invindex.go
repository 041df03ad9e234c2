// Package invindex implements the paper's Figure 1 storage layer: a
// FIFO store of the valid (in-window) documents plus an inverted index
// whose per-term lists hold impact entries ⟨d, w_{d,t}⟩ sorted by
// decreasing weight.
//
// Expiry writes no list. Document ids ascend in FIFO order, so an entry
// is stale exactly when its id is below the live floor, one past the
// last expired id, which no valid document's id is below. Iterators
// step over stale entries, and three rules reclaim them: a merge that
// would outgrow its run's capacity first drops the run's stale entries,
// a long list's pending-into-main merge drops those of both runs, and a
// term-ordered sweep compacts lists for a budget proportional to the
// postings each epoch expires (see sweep).
//
// Every list is a sorted run of raw EntryKeys allocated to fit, and a
// long one adds a small sorted run that takes its inserts (see List).
// Almost every term of a real dictionary is rare, so what a window's
// index costs is set by the overhead around a handful of entries per
// list, not by how densely the few Zipf-head lists pack.
//
// An epoch's surviving postings are grouped by term, and each touched
// list takes its run of them in one merge. A large epoch's runs are
// applied term-partitioned across up to GOMAXPROCS goroutines, while a
// single document stays on the caller. Lists share no state, each still
// sees its own inserts in stream order, and the floor and the sweep are
// functions of the record stream alone, so every list, and with it
// every result and snapshot byte, is the same at any share count (see
// ApplyBatch).
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

// List is one inverted list: impact entries in list order, held in at
// most two sorted runs. At realistic dictionary sizes the vast majority
// of lists hold a handful of entries (window·terms/dictionary ≈ 1 for
// the paper's configuration), so a short list is one run, main,
// allocated to fit: it grows by an eighth, never by doubling, so a
// singleton's storage is one 16-byte allocation, and an epoch's inserts
// merge into it in one backward pass. The Zipf-head terms, which at a
// 100,000-document window appear in essentially every document, would
// pay a pass over the whole list per epoch that way. So a long list
// (main at least shortList entries) takes its inserts into pending, a
// run of at most pendingCap entries, and merges pending into main only
// when an epoch's inserts no longer fit beside it: the log-structured
// merge idea at the scale of one list. Both merges run in place in the
// steady state of a sliding window, because the entries a merge drops
// below the floor make room for the ones it adds.
type List struct {
	// main holds the list's entries, stale ones included; an empty list
	// parks up to parkMax entries of capacity here for the term's next
	// arrival.
	main []EntryKey
	// pending holds a long list's most recent inserts; it is empty while
	// main is short.
	pending []EntryKey
}

const (
	// shortList is the main length from which a list takes its inserts
	// into pending: 256 entries (4 KiB of EntryKeys) keep a merge into
	// main within a few pages.
	shortList = 256
	// parkMax is the largest emptied run an empty list holds on to.
	parkMax = 8
)

// pendingCap is the pending capacity of a long list whose main holds m
// entries: an eighth of m rounded down to a power of two, clamped to
// [64, 512]. A merge into main then moves at most about sixteen entries
// per insert up to 4 096 entries, and the capacity changes only when m
// crosses a power of two.
func pendingCap(m int) int { return 1 << min(max(bits.Len(uint(m/8))-1, 6), 9) }

func newList() *List { return &List{} }

// add merges ins, one epoch's inserts to the list in list order, into
// pending when the list is long and they fit there, and into main
// otherwise. A long list whose pending cannot take them first merges
// pending into main, and resizes pending to main's new length.
func (l *List) add(ins []EntryKey, floor model.DocID) {
	if len(l.pending)+len(ins) > cap(l.pending) && len(l.main) >= shortList {
		l.flush(floor)
		if c := pendingCap(len(l.main)); cap(l.pending) < c || cap(l.pending) > 2*c {
			l.pending = make([]EntryKey, 0, c)
		}
	}
	if len(l.pending) == 0 && len(l.main) < shortList || len(l.pending)+len(ins) > cap(l.pending) {
		l.main = merge(l.main, ins, floor)
	} else {
		l.pending = merge(l.pending, ins, floor)
	}
}

// flush merges pending into main, dropping both runs' entries below
// floor.
func (l *List) flush(floor model.DocID) {
	l.main = merge(dropStale(l.main, floor), dropStale(l.pending, floor), floor)
	l.pending = l.pending[:0]
}

// merge merges the sorted run src into the sorted run dst and returns
// the result. When it does not fit dst's capacity, dst's entries below
// floor are dropped first, and only if it still does not fit does dst
// move to a new array an eighth larger than the result.
func merge(dst, src []EntryKey, floor model.DocID) []EntryKey {
	if len(dst)+len(src) > cap(dst) {
		dst = dropStale(dst, floor)
	}
	n := len(dst) + len(src)
	if n > cap(dst) {
		dst = append(make([]EntryKey, 0, n+(n-1)/8), dst...)
	}
	// Backwards from the end, so that no entry of dst is overwritten
	// before it has moved: each entry of src, last first, finds its place
	// among dst's unmoved entries, and the block of dst above that place
	// moves up past the src entries still to come in one copy.
	out, hi := dst[:n], len(dst)
	for j := len(src) - 1; j >= 0; j-- {
		lo, e := 0, src[j]
		for m := hi; lo < m; {
			if mid := int(uint(lo+m) >> 1); Before(dst[mid], e) {
				lo = mid + 1
			} else {
				m = mid
			}
		}
		copy(out[lo+j+1:], dst[lo:hi])
		out[lo+j], hi = e, lo
	}
	return out
}

// dropStale removes run's entries below floor in place.
func dropStale(run []EntryKey, floor model.DocID) []EntryKey {
	n := 0
	for n < len(run) && run[n].Doc >= floor {
		n++
	}
	for _, e := range run[n:] {
		if e.Doc >= floor {
			run[n] = e
			n++
		}
	}
	return run[:n]
}

// compact drops every entry below floor, merging pending into main, and
// releases what the list no longer needs, as deleting the entries one
// by one would: an emptied list parks a small run for the term's next
// arrival, a short list gives up its pending capacity, and a main left
// under a quarter full is copied to fit, so a list that dwindles
// towards its last entry hands its capacity back on the way rather than
// all at once a sweep cycle after it empties. It returns the number of
// entries it examined.
func (l *List) compact(floor model.DocID) int {
	examined := len(l.main) + len(l.pending)
	l.flush(floor)
	switch n := len(l.main); {
	case cap(l.main) <= parkMax: // kept as it is, parked if empty
	case n == 0:
		l.main = nil
	case n*4 < cap(l.main):
		l.main = slices.Clone(l.main)
	}
	if len(l.main) < shortList || cap(l.pending) > 2*pendingCap(len(l.main)) {
		l.pending = nil
	}
	return examined
}

// Iterator walks a list's live entries from the head towards lower
// impacts, merging its two runs and stepping over the stale entries
// (ids below floor) of both. It stays valid only while the list is not
// modified. The refill loops re-read Key() many times per consumed
// entry, so the current entry is loaded once per position into k.
type Iterator struct {
	l               *List
	floor           model.DocID
	i, j            int // next positions in main and pending
	k               EntryKey
	ok, fromPending bool // fromPending: k is pending[j] rather than main[i]
}

// load caches the first live entry at or after the iterator's
// positions, and clears ok when there is none.
func (it *Iterator) load() {
	main, pending := it.l.main, it.l.pending
	for it.i < len(main) && main[it.i].Doc < it.floor {
		it.i++
	}
	for it.j < len(pending) && pending[it.j].Doc < it.floor {
		it.j++
	}
	it.fromPending = it.j < len(pending) && (it.i == len(main) || Before(pending[it.j], main[it.i]))
	switch {
	case it.fromPending:
		it.k, it.ok = pending[it.j], true
	case it.i < len(main):
		it.k, it.ok = main[it.i], true
	default:
		it.ok = false
	}
}

// Valid reports whether the iterator is positioned on an entry.
func (it *Iterator) Valid() bool { return it.ok }

// Next advances towards the tail (lower impact).
func (it *Iterator) Next() {
	if it.fromPending {
		it.j++
	} else {
		it.i++
	}
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
	// The epoch's grouping scratch, kept between calls: batchCounts is
	// indexed like lists and all zero between calls; runs names each
	// term the epoch inserts into with its run of grouped, which holds
	// the surviving postings grouped by term; low counts consecutive
	// low-usage epochs towards a shrink (see shrink).
	batchCounts []int32
	runs        []termRun
	grouped     []EntryKey
	low         int
}

// termRun is one term's inserts of an epoch: grouped[start:end].
type termRun struct {
	term       model.TermID
	start, end int32
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
// grouped per term so each touched list takes them in one merge, and
// runs the sweep. Expired entries are not deleted: they are stale from here
// on. Documents that arrive and expire within the same epoch occupy
// window slots while the epoch plays out but are never posted.
//
// An epoch of at least 2·shareMutations inserts is applied
// term-partitioned: the caller and up to GOMAXPROCS−1 goroutines, which
// exit before ApplyBatch returns, each edit the lists of their own terms
// (see applyShare). A list's final entries and runs depend only on its
// own inserts in stream order and on the floor, which partitioning by
// term keeps, so the result is the same at any share count.
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

	// The counting pass: per-term insert counts, the touched terms in
	// order of first insert, and the largest term, so the list table
	// grows here once and never while shares run. A counting sort then
	// gives each term its run of grouped, and counts becomes the run's
	// write cursor.
	survivors := arrivals[res.Dropped:]
	counts, runs := x.batchCounts, x.runs[:0]
	var maxTerm model.TermID
	for _, d := range survivors {
		for _, p := range d.Postings {
			counts = covering(counts, p.Term)
			if counts[p.Term] == 0 {
				runs = append(runs, termRun{term: p.Term})
			}
			counts[p.Term]++
			maxTerm = max(maxTerm, p.Term)
		}
		res.Inserts += len(d.Postings)
	}
	var end int32
	for i, r := range runs {
		runs[i].start, end = end, end+counts[r.term]
		runs[i].end, counts[r.term] = end, runs[i].start
	}
	x.batchCounts, x.runs = counts, runs
	x.grouped = slices.Grow(x.grouped[:0], res.Inserts)[:res.Inserts]
	if res.Inserts > 0 {
		x.lists = covering(x.lists, maxTerm)
		x.occupied = covering(x.occupied, maxTerm/64)
	}
	x.live += res.Inserts - res.Deletes

	n := shares(res.Inserts)
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
	x.shrink(res.Inserts)
	x.sweep(sweepPerExpired * res.Deletes)

	// Re-zero the counters of the touched terms and mark their lists
	// occupied; the tables are dictionary-sized and an epoch touches a
	// sliver of them.
	for _, r := range runs {
		counts[r.term] = 0
		x.occupied[r.term/64] |= 1 << (r.term % 64)
	}
	return res, nil
}

// applyShare groups the epoch's surviving postings whose term t has
// t mod n = w into their terms' runs, in stream order, sorts each run
// into list order and adds it to its list. Shares write disjoint runs
// and lists and only read the run table, the list table and the floor,
// so all n run side by side; n = 1 is the whole pass.
func (x *Index) applyShare(w, n int, survivors []*model.Document) {
	mine := func(t model.TermID) bool { return n == 1 || int(t)%n == w }
	counts, grouped := x.batchCounts, x.grouped
	for _, d := range survivors {
		for _, p := range d.Postings {
			if mine(p.Term) {
				grouped[counts[p.Term]] = EntryKey{W: p.Weight, Doc: d.ID}
				counts[p.Term]++
			}
		}
	}
	for _, r := range x.runs {
		if mine(r.term) {
			run := grouped[r.start:r.end]
			slices.SortFunc(run, compareKeys)
			x.listFor(r.term).add(run, x.floor)
		}
	}
}

// sweepPerExpired is the sweep's budget per expired posting. An epoch
// expiring E postings compacts lists holding about 4·E entries, so a
// cycle over an index of P entries takes about P/(4·E) epochs: a term
// that never comes back loses its entries within one cycle, and the
// stale entries a list holds when the sweep reaches it are about a
// quarter of its share of one window's postings, fewer where merges
// reclaimed them first (about 8 % and 7 % of the live entries on
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
		if len(l.main) == 0 {
			x.occupied[w] &^= 1 << (t % 64)
		}
		x.cursor = t + 1
	}
}

// shrink bounds the retained capacity of the grouping scratch — the
// same policy core.Maintainer applies to its epoch buffers. One
// unusually large epoch (a burst, a catch-up replay) grows it to that
// epoch's inserts and, without this, that high-water capacity is pinned
// for the index's lifetime. After shrinkAfter consecutive epochs using
// less than a quarter of the retained capacity, it is reallocated to
// twice the recent working size, and the run table with it.
func (x *Index) shrink(used int) {
	const (
		minCap      = 4096 // a large document's postings: point epochs never shrink
		shrinkAfter = 16
	)
	if cap(x.grouped) <= minCap || used*4 > cap(x.grouped) {
		x.low = 0
		return
	}
	x.low++
	if x.low < shrinkAfter {
		return
	}
	x.low = 0
	c := max(used*2, minCap)
	x.grouped, x.runs = make([]EntryKey, 0, c), make([]termRun, 0, c)
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
	structBytes = uint64(unsafe.Sizeof(List{}))
	slotBytes   = uint64(unsafe.Sizeof((*List)(nil)))
	countBytes  = uint64(unsafe.Sizeof(int32(0)))
	runBytes    = uint64(unsafe.Sizeof(termRun{}))
)

// listBytes is one list's heap footprint: the struct and both runs'
// capacity.
func listBytes(l *List) uint64 {
	return allocSize(structBytes) + allocSize(uint64(cap(l.main))*entryBytes) +
		allocSize(uint64(cap(l.pending))*entryBytes)
}

// MemoryBytes is the index's heap footprint: the FIFO store, every
// inverted list, the term table, the occupied-list bitmap and the
// epoch's grouping scratch.
func (x *Index) MemoryBytes() uint64 {
	return x.Store.MemoryBytes() + x.PostingBytes() +
		allocSize(uint64(cap(x.lists))*slotBytes) +
		allocSize(uint64(cap(x.batchCounts))*countBytes) +
		allocSize(uint64(cap(x.occupied))*8) +
		allocSize(uint64(cap(x.runs))*runBytes) +
		allocSize(uint64(cap(x.grouped))*entryBytes)
}

// PostingBytes is the inverted-list portion of MemoryBytes: every
// list's struct and entry storage, excluding the FIFO store
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
