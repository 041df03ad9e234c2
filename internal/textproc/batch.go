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
// is a mark. A text with neither is finished inside its share. The rest
// are held, and the caller's goroutine finishes them in record order
// (phase 2): it replays their marks and misses in token order, a mark by
// setting its fixed bit and a miss through Counts' per-token path, which
// interns it, so every write to the dictionary and the bitset happens as
// Counts would have made it.
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
	// phase 2 analyses again; rounds keep that to one round's worth.
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
	counts         []int32           // frequency per TermID of the current text
	touched        []model.TermID    // ids with a non-zero count, in first-seen order
	out            []model.TermCount // the current text's counts, sorted by term id
	held           []heldText        // texts phase 2 finishes, in record order
	known          []model.TermCount // their phase-1 counts, back to back
	deferred       []int             // their misses and marks, back to back (see mark)
	next           int               // phase 2's next held text
	err            error             // Emit's error; the share stopped at it,
	errAt          int               // at this text

	// Phase 1 writes the fields above on every token; the padding keeps
	// the next allocation, another share's among them, off their cache
	// lines.
	_ [64]byte
}

// A held text's deferred tokens are ints, in token order: a miss is the
// offset its token starts at, where nextToken finds it again, and a
// mark for term id is mark(id), which is negative.
func mark(id model.TermID) int { return -1 - int(id) }

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
		t := b.Text(h.i)
		for _, d := range sh.deferred[from.deferred:h.deferred] {
			if d < 0 {
				p.setFixed(model.TermID(-1 - d))
				continue
			}
			// As in Counts: a term an earlier miss interned may take the
			// shortcut now.
			start, end, ascii := nextToken(t, d)
			id, ok := p.shortcut(s, t[start:end], ascii)
			if !ok {
				id, _ = p.analyze(s) // phase 1 found it no stopword
			}
			s.count(id)
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
	sh.held, sh.known, sh.deferred, sh.next, sh.err = sh.held[:0], sh.known[:0], sh.deferred[:0], 0, nil
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
				term, keep := p.term(sh)
				if !keep {
					continue
				}
				if id, ok = p.dict.ids[string(term)]; !ok {
					sh.deferred = append(sh.deferred, start)
					continue
				}
				if string(term) == string(sh.lower) && !p.isFixed(id) {
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
