// Package invindex implements the paper's Figure 1 storage layer: a
// FIFO store of the valid (in-window) documents plus an inverted index
// whose per-term lists hold impact entries ⟨d, w_{d,t}⟩ sorted by
// decreasing weight.
//
// List positions are identified by EntryKey values — (weight, doc id)
// pairs under the list's total order — rather than by node references,
// so a stored position (such as a query's local threshold) stays
// meaningful across arbitrary insertions and deletions, including the
// deletion of the entry it was derived from.
//
// Every list is a chunked sorted array of raw EntryKeys whose chunks
// are allocated to fit. Almost every term of a real dictionary is rare,
// so what a window's index costs is set by the overhead around a
// handful of entries per list, not by how densely the few Zipf-head
// lists pack.
//
// A large epoch's net postings are applied term-partitioned across up to
// GOMAXPROCS goroutines, while a single document stays on the caller.
// Lists share no state and each still sees its own mutations in stream
// order, so every list, and with it every result and snapshot byte, is
// the same at any share count (see ApplyBatch).
package invindex

import (
	"math"
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

// Top returns the sentinel position before every possible entry. A
// local threshold at Top has consumed nothing.
func Top() EntryKey { return EntryKey{W: math.Inf(1), Doc: 0} }

// Bottom returns the sentinel position after every possible entry. A
// local threshold at Bottom has consumed the entire list, and any future
// arrival with a positive weight lands ahead of it.
func Bottom() EntryKey { return EntryKey{W: 0, Doc: math.MaxUint64} }

// List is one inverted list: impact entries in list order, held as a
// chunked sorted array (a tiered vector). At realistic dictionary sizes
// the vast majority of lists hold a handful of entries
// (window·terms/dictionary ≈ 1 for the paper's configuration), so the
// layout is built around their overhead: a one-chunk list keeps its
// chunk directory inline (chunks aliases one — no directory
// allocation), and chunks grow by an eighth, never by doubling, so a
// singleton's storage is one 16-byte allocation. The Zipf-head terms,
// which at a 100,000-document window appear in essentially every
// document, spread across chunks so that an insert or delete rewrites
// at most one chunk's worth of memory instead of O(list) — the
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
	length int
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

// Len returns the number of entries.
func (l *List) Len() int { return l.length }

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

func (l *List) insert(e EntryKey) {
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

func (l *List) delete(e EntryKey) bool {
	if l.length == 0 {
		return false
	}
	c, i := l.lowerBound(e)
	ch := l.chunks[c]
	if i >= len(ch) || ch[i] != e {
		return false
	}
	l.length--
	switch {
	case len(ch) > 1:
		copy(ch[i:], ch[i+1:])
		l.chunks[c] = ch[:len(ch)-1]
	case l.length > 0:
		l.setChunks(slices.Delete(l.chunks, c, c+1))
	default:
		l.setChunks(nil)
		if cap(ch) <= parkMax {
			l.one[0] = ch[:0]
		}
	}
	return true
}

// applyBatch applies one epoch's mutations to the list: ins entries are
// inserted and del entries removed, both given in list order. For small
// mutation sets it falls back to the point operations; once the batch is
// a meaningful fraction of the list it rewrites the list in a single
// merge pass, so B inserts into a hot Zipf-head list cost one O(list)
// sweep instead of B chunk searches and B memmoves — the index-level
// amortization of the epoch pipeline. Unmatched delete keys are
// skipped. scratch is reusable merge space (may be nil); the possibly
// grown scratch is returned for the caller to keep.
func (l *List) applyBatch(ins, del, scratch []EntryKey) []EntryKey {
	m := len(ins) + len(del)
	if m == 0 {
		return scratch
	}
	// Point operations win whenever the mutation set is small — in
	// absolute terms (each point op is a binary search plus one
	// sub-chunk memmove, allocation-free, and at realistic dictionary
	// sparsity almost every touched list takes a handful of mutations)
	// or relative to the list (the rebuild walks everything). The
	// rebuild pays off only once a large fraction of the list changes
	// in one epoch: one merge sweep and one allocation replace m
	// searches and m memmoves.
	if m < hotTermMutations || m*2 < l.length {
		for _, e := range del {
			l.delete(e)
		}
		for _, e := range ins {
			l.insert(e)
		}
		return scratch
	}
	merged := scratch[:0]
	ii, di := 0, 0
	for _, ch := range l.chunks {
		for _, e := range ch {
			for ii < len(ins) && Before(ins[ii], e) {
				merged = append(merged, ins[ii])
				ii++
			}
			for di < len(del) && Before(del[di], e) {
				di++ // delete key not present; tolerate and move on
			}
			if di < len(del) && del[di] == e {
				di++
				continue
			}
			merged = append(merged, e)
		}
	}
	merged = append(merged, ins[ii:]...)
	l.length = len(merged)
	if l.length == 0 {
		l.setChunks(nil)
		return merged
	}
	// All chunks slice one exact-fit backing array (capacity-capped, so
	// a growing chunk copies out instead of clobbering its neighbor),
	// keeping the rebuild at a single persistent allocation.
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
	return merged
}

// Iterator walks a list from a position towards lower impacts. It stays
// valid only while the list is not modified. The refill loops re-read
// Key() many times per consumed entry, so the current entry is loaded
// once per position into k.
type Iterator struct {
	l  *List
	c  int // chunk index
	i  int // offset within chunk
	ok bool
	k  EntryKey
}

// load caches the entry at the iterator's position, stepping over a
// chunk end first, and clears ok when the position is past the end.
func (it *Iterator) load() {
	l := it.l
	if it.c < len(l.chunks) && it.i >= len(l.chunks[it.c]) {
		it.c++
		it.i = 0
	}
	if it.ok = it.c < len(l.chunks); it.ok {
		it.k = l.chunks[it.c][it.i]
	}
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

// SeekGE returns an iterator at the first entry at or after pos in list
// order — the resume point for a threshold stored as pos.
func (l *List) SeekGE(pos EntryKey) Iterator {
	it := Iterator{l: l}
	if l.length > 0 {
		// An insertion point at the end of a chunk is the start of the
		// following one; load steps over it.
		it.c, it.i = l.lowerBound(pos)
	}
	it.load()
	return it
}

// First returns an iterator at the highest-impact entry.
func (l *List) First() Iterator {
	it := Iterator{l: l}
	it.load()
	return it
}

// PredBefore returns the last entry strictly before pos in list order —
// the lowest-impact consumed entry relative to a threshold at pos —
// or ok == false when nothing precedes pos.
func (l *List) PredBefore(pos EntryKey) (EntryKey, bool) {
	if l.length == 0 {
		return EntryKey{}, false
	}
	c, i := l.lowerBound(pos)
	if i == 0 {
		if c == 0 {
			return EntryKey{}, false
		}
		prev := l.chunks[c-1]
		return prev[len(prev)-1], true
	}
	return l.chunks[c][i-1], true
}

// Index is the document store plus the inverted lists over it.
type Index struct {
	*Store
	// lists is indexed by term id. Ids are dictionary-dense (see
	// model.TermID), so a flat table costs 8 bytes a term where a map
	// cost a bucket slot and a hash per posting. Emptied lists stay in
	// the table (see applyShare).
	lists []*List
	// nonEmpty counts lists with at least one entry, so Terms() is a
	// cheap gauge and not a dictionary-sized scan.
	nonEmpty int
	// batchCounts is ApplyBatch's per-term mutation counter, indexed
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

// List returns the inverted list for term t, or nil when no document
// containing t has been indexed.
func (x *Index) List(t model.TermID) *List {
	if int(t) < len(x.lists) {
		return x.lists[t]
	}
	return nil
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

// RemoveOldest removes the FIFO head document and its impact entries,
// returning the removed document: an epoch that expires exactly one
// document. It returns nil on an empty index.
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

// Terms returns the number of terms with non-empty inverted lists, in
// O(1) via a counter the mutation pass maintains.
func (x *Index) Terms() int { return x.nonEmpty }

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
	// Inserts and Deletes count the impact entries actually posted and
	// removed — same-epoch transients contribute to neither.
	Inserts int
	Deletes int
}

// ApplyBatch applies one epoch of the stream in a single pass: it
// appends the arriving documents to the FIFO store in order, pops
// expired documents from the head while expired says so (the window
// policy bound to the epoch's end time; it must be monotone in both
// arguments, as count- and time-based sliding windows are), and then
// mutates the inverted lists with the epoch's *net* postings, grouped
// per term so each touched list is edited in one pass. Documents that
// arrive and expire within the same epoch occupy window slots while the
// epoch plays out but are never posted to the lists.
//
// An epoch of at least 2·shareMutations net postings is applied
// term-partitioned: the caller and up to GOMAXPROCS−1 goroutines, which
// exit before ApplyBatch returns, each edit the lists of their own terms
// (see applyShare). A list's final entries and chunk layout depend only
// on its own mutations in stream order, which partitioning by term
// keeps, so the result is the same at any share count.
//
// Validation is all-or-nothing: an arrival whose id is not above the
// newest valid document's and every earlier arrival's (see Store) fails
// the call before any mutation.
func (x *Index) ApplyBatch(arrivals []*model.Document, expired func(oldest *model.Document, count int) bool) (BatchResult, error) {
	return x.applyEpoch(arrivals, expired, applyShares)
}

// shareMutations is the least mutation count worth a goroutine of its
// own in the term-partitioned pass. A posting mutation costs about a
// microsecond of cache misses on a wide window, well above what starting
// and joining a goroutine costs; a WSJ-sized document is ≈350
// mutations, so single-document epochs stay inline.
const shareMutations = 1024

// applyShares is the share count of an epoch of m net mutations: one
// per shareMutations, capped at GOMAXPROCS, at least one.
func applyShares(m int) int {
	return max(1, min(runtime.GOMAXPROCS(0), m/shareMutations))
}

// applyEpoch is ApplyBatch with the share count of the mutation pass
// chosen by shares from the epoch's net mutation count.
func (x *Index) applyEpoch(arrivals []*model.Document, expired func(oldest *model.Document, count int) bool, shares func(mutations int) int) (BatchResult, error) {
	var res BatchResult
	if err := x.Store.ascending(arrivals); err != nil {
		return res, err
	}
	x.Store.fifo = append(x.Store.fifo, arrivals...)
	for {
		oldest := x.Store.Oldest()
		if oldest == nil || !expired(oldest, x.Store.Len()) {
			break
		}
		x.Store.RemoveOldest()
		// The FIFO reaches this epoch's arrivals only after every older
		// document is gone, and then in batch order.
		if res.Dropped < len(arrivals) && oldest == arrivals[res.Dropped] {
			res.Dropped++
		} else {
			res.Expired = append(res.Expired, oldest)
		}
	}

	// The counting pass: per-term mutation counts for the shares' hot
	// test, and the largest term, so the list table grows here once and
	// never while shares run.
	survivors := arrivals[res.Dropped:]
	counts := x.batchCounts
	var maxTerm model.TermID
	count := func(docs []*model.Document) (postings int) {
		for _, d := range docs {
			for _, p := range d.Postings {
				counts = covering(counts, p.Term)
				counts[p.Term]++
				maxTerm = max(maxTerm, p.Term)
			}
			postings += len(d.Postings)
		}
		return postings
	}
	res.Inserts = count(survivors)
	res.Deletes = count(res.Expired)
	x.batchCounts = counts
	if res.Inserts+res.Deletes > 0 {
		x.lists = covering(x.lists, maxTerm)
	}

	n := shares(res.Inserts + res.Deletes)
	for len(x.shares) < n {
		x.shares = append(x.shares, shareScratch{})
	}
	if n == 1 { // every single-document epoch: no goroutine, nothing to allocate
		x.nonEmpty += x.applyShare(0, 1, survivors, res.Expired)
	} else {
		old := res.Expired
		deltas := make([]int, n)
		var wg sync.WaitGroup
		for w := 1; w < n; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				deltas[w] = x.applyShare(w, n, survivors, old)
			}()
		}
		deltas[0] = x.applyShare(0, n, survivors, old)
		wg.Wait()
		for _, d := range deltas {
			x.nonEmpty += d
		}
	}
	for w := n; w < len(x.shares); w++ {
		x.shares[w].shrink(0) // idle this epoch
	}

	// Re-zero the counters by the postings that raised them; the table
	// is dictionary-sized and an epoch touches a sliver of it.
	for _, docs := range [2][]*model.Document{survivors, res.Expired} {
		for _, d := range docs {
			for _, p := range d.Postings {
				counts[p.Term] = 0
			}
		}
	}
	return res, nil
}

// listMut is one hot list's buffered mutations for an epoch.
type listMut struct{ ins, del []EntryKey }

// applyShare applies the epoch's net postings whose term t has
// t mod n = w — expirations first, then arrivals, each in stream order —
// with share w's merge scratch, and returns the change in the number of
// non-empty lists. Shares edit disjoint lists and only read batchCounts
// and the list table, so all n run side by side; n = 1 is the whole
// pass.
//
// Grouping a term's mutations to apply them in one list pass only pays
// off for hot terms — Zipf-head lists collecting a meaningful number of
// entries per epoch; at realistic dictionary sparsity the vast majority
// of touched terms see one or two mutations, where buffering costs more
// than the point operations it saves. So the counting pass finds the
// hot terms, cold terms take direct point operations with no buffering,
// and only hot terms are grouped and merge-applied.
func (x *Index) applyShare(w, n int, survivors, expired []*model.Document) (nonEmpty int) {
	counts, lists := x.batchCounts, x.lists
	mine := func(t model.TermID) bool { return n == 1 || int(t)%n == w }
	// hot reports whether term t's mutations are worth grouping: enough
	// of them in absolute terms AND a meaningful fraction of the
	// current list, mirroring applyBatch's rebuild condition — there is
	// no point buffering mutations that will be applied as point
	// operations anyway.
	hot := func(t model.TermID) bool {
		c := counts[t]
		if c < hotTermMutations {
			return false
		}
		l := lists[t]
		return l == nil || int(c)*2 >= l.length
	}
	var muts map[model.TermID]*listMut
	mutFor := func(t model.TermID) *listMut {
		mu := muts[t]
		if mu == nil {
			if muts == nil {
				muts = make(map[model.TermID]*listMut)
			}
			mu = new(listMut)
			muts[t] = mu
		}
		return mu
	}
	for _, d := range expired {
		for _, p := range d.Postings {
			if !mine(p.Term) {
				continue
			}
			e := EntryKey{W: p.Weight, Doc: d.ID}
			if hot(p.Term) {
				mu := mutFor(p.Term)
				mu.del = append(mu.del, e)
			} else if l := lists[p.Term]; l != nil && l.delete(e) && l.length == 0 {
				// An emptied list is kept, with the capacity of its last
				// small chunk parked: at realistic dictionary sparsity the
				// same rare terms keep reappearing, and recreating a list
				// per reappearance costs two allocations per term per
				// document — measured as a third of the whole per-document
				// index cost. The retained residue is bounded by the
				// dictionary size.
				nonEmpty--
			}
		}
	}
	for _, d := range survivors {
		for _, p := range d.Postings {
			if !mine(p.Term) {
				continue
			}
			e := EntryKey{W: p.Weight, Doc: d.ID}
			if hot(p.Term) {
				mu := mutFor(p.Term)
				mu.ins = append(mu.ins, e)
				continue
			}
			l := x.listFor(p.Term)
			if l.length == 0 {
				nonEmpty++
			}
			l.insert(e)
		}
	}
	s := &x.shares[w]
	used := 0
	for t, mu := range muts {
		slices.SortFunc(mu.ins, compareKeys)
		slices.SortFunc(mu.del, compareKeys)
		l := x.listFor(t)
		wasEmpty := l.length == 0
		s.buf = l.applyBatch(mu.ins, mu.del, s.buf)
		used = max(used, len(s.buf))
		if wasEmpty && l.length > 0 {
			nonEmpty++
		} else if !wasEmpty && l.length == 0 {
			nonEmpty--
		}
	}
	s.shrink(used)
	return nonEmpty
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
// inverted list, the term table and the epoch scratch, every share's
// merge space included.
func (x *Index) MemoryBytes() uint64 {
	b := x.Store.MemoryBytes() + x.PostingBytes() +
		allocSize(uint64(cap(x.lists))*slotBytes) +
		allocSize(uint64(cap(x.batchCounts))*countBytes) +
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

// PostingCount is the total number of impact entries across all lists.
func (x *Index) PostingCount() int {
	n := 0
	for _, l := range x.lists {
		if l != nil {
			n += l.length
		}
	}
	return n
}

// hotTermMutations is the per-term mutation count at which ApplyBatch
// switches from direct point operations to grouped one-pass
// application. It matches applyBatch's own small-set cutoff.
const hotTermMutations = 8
