package textproc

import (
	"runtime"
	"sync"
	"sync/atomic"

	"ita/internal/model"
)

// Batch analysis. CountBatch takes a batch in rounds of roundDocs texts.
// A round with enough text is analysed by several shares side by side,
// each taking the round's next text until none is left (phase 1): a
// share tokenises, lowercases, takes the fixed-point shortcut, drops
// stopwords, stems and looks terms up, but only reads the dictionary and
// the fixed bitset. A token whose term the dictionary lacks is a miss; a
// known term whose token is its own surface but whose fixed bit is unset
// is a mark. A share analyses each lowercased surface it misses once per
// round: it keeps the term, the term's hash and whether the surface is
// the term itself, and finds the surface's later tokens in a scratch
// table. A text with neither misses nor marks is finished inside its
// share. The rest are held, and the caller's goroutine finishes them in
// record order (phase 2): it replays their marks and misses in token
// order, a mark by setting its fixed bit and a surface's first miss by
// interning its term and, when the surface is the term, setting the
// term's bit. Every later token of the surface analyses to the same id
// and, in Counts, changes neither the dictionary nor the bitset, so
// every write to either happens as Counts would have made it.
//
// Every id phase 2 assigns lies above every id known when the round
// began, and phase 1 counted only those known ids, so a held text's
// counts are its phase-1 counts followed by its sorted new ones: the
// order Counts produces. Term ids, the dictionary's order and the fixed
// bitset's set bits and length therefore match serial Counts at any
// share count.

const (
	// roundDocs is the most texts one round takes. A cold dictionary
	// turns almost every token of the first round into a miss, which
	// phase 2 finishes on one goroutine; rounds keep that to one round's
	// worth.
	roundDocs = 64
	// shareText is the least text, in bytes, worth a share of its own.
	// It is about half a millisecond of analysis, well above the time
	// an idle CPU takes to pick up a new goroutine (140–170 µs on a
	// 2-CPU container), and a one-document round never splits.
	shareText = 32 << 10
)

// analyzeShares is the share count of a round holding bytes of text:
// one per shareText, capped at GOMAXPROCS, at least one.
func analyzeShares(bytes int) int {
	return max(1, min(runtime.GOMAXPROCS(0), bytes/shareText))
}

// share is the state of one analysing goroutine: Counts' and phase 2's
// for share 0, phase 1's for every share.
type share struct {
	lower, stemmed []byte            // the current token, lowercased and stemmed
	lowerHash      uint64            // the dictionary's hash of lower
	counts         []int32           // frequency per TermID of the current text
	touched        []model.TermID    // ids with a non-zero count, in first-seen order
	out            []model.TermCount // the current text's counts, sorted by term id
	held           []heldText        // texts phase 2 finishes, in record order
	known          []model.TermCount // their phase-1 counts, back to back
	deferred       []int             // their misses and marks, back to back (see mark)
	surfaces       *Dictionary       // the round's missed surfaces, numbering misses
	misses         []miss            // per missed surface
	terms          []byte            // their terms, back to back
	low            [6]int            // rounds each of the six above was sparse (see trim)
	next           int               // phase 2's next held text
	err            error             // Emit's error; the share stopped at it,
	errAt          int               // at this text

	// Phase 1 writes the fields above on every token; the padding keeps
	// the next allocation, another share's among them, off their cache
	// lines.
	_ [64]byte
}

// A held text's deferred tokens are ints, in token order: a miss is its
// surface's index in the share's misses, and a mark for term id is
// mark(id), which is negative.
func mark(id model.TermID) int { return -1 - int(id) }

// miss is one surface a share missed in a round. Its term ends at end in
// the share's terms and begins where the previous miss's ends.
type miss struct {
	hash     uint64 // the term's hash
	end      int
	own      bool         // the surface is the term itself
	interned bool         // phase 2 has interned the term,
	id       model.TermID // as id
}

// trim empties buf for the next round. A buffer its last round filled
// to at most a quarter, shrinkAfter rounds running, is reallocated at
// twice that use first (the policy of invindex's grouping scratch), so a
// cold round's capacity does not stay for the engine's life; low counts
// the rounds.
func trim[T any](buf []T, low *int) []T {
	const (
		minCap      = 256
		shrinkAfter = 16
	)
	if cap(buf) <= minCap || len(buf)*4 > cap(buf) {
		*low = 0
		return buf[:0]
	}
	*low++
	if *low < shrinkAfter {
		return buf[:0]
	}
	*low = 0
	return make([]T, 0, max(2*len(buf), minCap))
}

// heldText is one text phase 2 finishes: its index in the batch and
// the ends of its runs in the share's known and deferred.
type heldText struct {
	i, known, deferred int
}

// Batch is what CountBatch analyses.
type Batch interface {
	// Len is the number of texts.
	Len() int
	// Text returns text i.
	Text(i int) string
	// Emit takes text i's counts, sorted by term id and valid only
	// during the call. It is called once per text, from share
	// goroutines for different texts at once, and must not touch the
	// pipeline.
	Emit(i int, counts []model.TermCount) error
}

// CountBatch analyses b's texts as one Counts call each, in index
// order, would, and hands text i's counts to b.Emit. It stops at the
// first error Emit returns, in index order, and returns it. A round
// with enough text is split across goroutines that exit before
// CountBatch returns.
func (p *Pipeline) CountBatch(b Batch) error {
	return p.countBatch(b, analyzeShares)
}

// countBatch is CountBatch with the share count of a round chosen by
// shares from the round's text bytes.
func (p *Pipeline) countBatch(b Batch, shares func(bytes int) int) error {
	for lo := 0; lo < b.Len(); lo += roundDocs {
		hi := min(b.Len(), lo+roundDocs)
		bytes := 0
		for i := lo; i < hi; i++ {
			bytes += len(b.Text(i))
		}
		if n := min(hi-lo, shares(bytes)); n > 1 {
			if err := p.round(b, lo, hi, n); err != nil {
				return err
			}
			continue
		}
		for i := lo; i < hi; i++ { // no goroutine, nothing to allocate
			if err := b.Emit(i, p.Counts(b.Text(i))); err != nil {
				return err
			}
		}
	}
	return nil
}

// round analyses texts [lo, hi) in n shares, then finishes the held
// texts in record order.
func (p *Pipeline) round(b Batch, lo, hi, n int) error {
	for len(p.shares) < n {
		p.shares = append(p.shares, new(share))
	}
	// Phase 1. The shares take texts one at a time, so a goroutine that
	// starts late, or loses its CPU, leaves its part to the others.
	var next atomic.Int64
	next.Store(int64(lo))
	var wg sync.WaitGroup
	for _, sh := range p.shares[1:n] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.lookup(b, sh, &next, hi)
		}()
	}
	p.lookup(b, p.shares[0], &next, hi)
	wg.Wait()

	// Phase 2, counting in share 0. Each share's held texts ascend, and
	// a share stopped at its error, so merging the shares by text index
	// visits every held text, and the first error, in record order.
	s := p.shares[0]
	for {
		var sh *share
		at := hi
		for _, c := range p.shares[:n] {
			if c.next < len(c.held) && c.held[c.next].i < at {
				sh, at = c, c.held[c.next].i
			} else if c.next == len(c.held) && c.err != nil && c.errAt < at {
				sh, at = c, c.errAt
			}
		}
		if sh == nil {
			return nil
		}
		if sh.next == len(sh.held) {
			return sh.err
		}
		h, from := sh.held[sh.next], heldText{}
		if sh.next > 0 {
			from = sh.held[sh.next-1]
		}
		sh.next++
		for _, d := range sh.deferred[from.deferred:h.deferred] {
			if d < 0 {
				p.setFixed(model.TermID(-1 - d))
				continue
			}
			m := &sh.misses[d]
			if !m.interned {
				start := 0
				if d > 0 {
					start = sh.misses[d-1].end
				}
				m.id, m.interned = p.dict.intern(bytesString(sh.terms[start:m.end]), m.hash), true
				if m.own {
					p.setFixed(m.id)
				}
			}
			s.count(m.id)
		}
		s.out = s.drain(append(s.out[:0], sh.known[from.known:h.known]...))
		if err := b.Emit(h.i, s.out); err != nil {
			return err
		}
	}
}

// lookup is phase 1 for one share: it takes texts below hi from next
// and counts the known terms of each, emits a text with no miss and no
// mark, and holds the rest for phase 2. It stops at the first error
// Emit returns. It only reads the pipeline.
func (p *Pipeline) lookup(b Batch, sh *share, next *atomic.Int64, hi int) {
	sh.held, sh.known = trim(sh.held, &sh.low[0]), trim(sh.known, &sh.low[1])
	sh.deferred, sh.misses, sh.terms = trim(sh.deferred, &sh.low[2]), trim(sh.misses, &sh.low[3]), trim(sh.terms, &sh.low[4])
	if sh.surfaces == nil {
		sh.surfaces = new(Dictionary)
	}
	sh.surfaces.reset(p.dict, &sh.low[5])
	sh.next, sh.err = 0, nil
	for {
		i := int(next.Add(1)) - 1
		if i >= hi {
			return
		}
		t := b.Text(i)
		deferred := len(sh.deferred)
		for j := 0; ; {
			start, end, ascii := nextToken(t, j)
			if start == len(t) {
				break
			}
			j = end
			id, ok := p.shortcut(sh, t[start:end], ascii)
			if !ok {
				lower := bytesString(sh.lower)
				if k, seen := sh.surfaces.lookup(lower, sh.lowerHash); seen {
					sh.deferred = append(sh.deferred, int(k))
					continue
				}
				term, h, own, keep := p.term(sh)
				if !keep {
					continue
				}
				if id, ok = p.dict.lookup(term, h); !ok {
					sh.deferred = append(sh.deferred, int(sh.surfaces.intern(lower, sh.lowerHash)))
					sh.terms = append(sh.terms, term...)
					sh.misses = append(sh.misses, miss{hash: h, end: len(sh.terms), own: own})
					continue
				}
				if own && !p.isFixed(id) {
					sh.deferred = append(sh.deferred, mark(id))
				}
			}
			sh.count(id)
		}
		if len(sh.deferred) > deferred {
			sh.known = sh.drain(sh.known)
			sh.held = append(sh.held, heldText{i: i, known: len(sh.known), deferred: len(sh.deferred)})
			continue
		}
		sh.out = sh.drain(sh.out[:0])
		if sh.err = b.Emit(i, sh.out); sh.err != nil {
			sh.errAt = i
			return
		}
	}
}
