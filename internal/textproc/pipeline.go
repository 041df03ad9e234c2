package textproc

import (
	"slices"
	"strings"

	"ita/internal/model"
)

// Pipeline is the document/query analysis chain of the system:
// tokenize → stopword-filter → (optionally) stem → intern. It produces
// the raw term frequencies f_{d,t} (or f_{Q,t}) that the vector-space
// weighting layer turns into impact weights.
//
// A Pipeline reuses its scratch across calls and, like its Dictionary,
// is not safe for concurrent use. CountBatch splits one call across
// goroutines of its own: they only read the dictionary and the fixed
// bitset, and every write to either stays on the caller's goroutine
// (see batch.go).
type Pipeline struct {
	dict *Dictionary
	stem bool
	stop bool

	// fixed has bit id set once a token's lowercased surface was seen to
	// be terms[id] itself: not a stopword and its own stem. The
	// dictionary is append-only and the stem/stop settings never change,
	// so the bit stays true: any later token whose lowercased surface is
	// terms[id] analyses to id, and Counts takes it without the stopword
	// check and the stemmer.
	fixed []uint64

	// shares[0] holds Counts' buffers and is CountBatch's share 0; the
	// rest are allocated the first time a round needs them.
	shares []*share
}

// NewPipeline builds a pipeline over dict. When stem is true tokens are
// Porter-stemmed; when stop is true stopwords are removed first (the
// paper applies "standard stopword removal" before building its
// 181,978-term dictionary).
func NewPipeline(dict *Dictionary, stem, stop bool) *Pipeline {
	return &Pipeline{dict: dict, stem: stem, stop: stop, shares: []*share{new(share)}}
}

// Dictionary returns the underlying dictionary.
func (p *Pipeline) Dictionary() *Dictionary { return p.dict }

// Counts analyzes text and returns each surviving term with its
// frequency, sorted by term id. Terms are interned into the pipeline's
// dictionary in the order they first occur. The result lives in the
// pipeline's scratch and is valid only until the next call.
func (p *Pipeline) Counts(text string) []model.TermCount {
	s := p.shares[0]
	for i := 0; ; {
		start, end, ascii := nextToken(text, i)
		if start == len(text) {
			break
		}
		i = end
		if id, ok := p.shortcut(s, text[start:end], ascii); ok {
			s.count(id)
		} else if id, ok := p.analyze(s); ok {
			s.count(id)
		}
	}
	s.out = s.drain(s.out[:0])
	return s.out
}

// shortcut lowercases tok into s.lower, with its hash in s.lowerHash,
// and returns its term id if the fixed-point path applies: tok is ASCII
// and its lowercased surface is a term whose fixed bit is set. It only
// reads the dictionary and p.fixed.
func (p *Pipeline) shortcut(s *share, tok string, ascii bool) (model.TermID, bool) {
	if !ascii {
		s.lower = append(s.lower[:0], strings.ToLower(tok)...)
		s.lowerHash = p.dict.hash(bytesString(s.lower))
		return 0, false
	}
	s.lower = s.lower[:0]
	for _, c := range []byte(tok) {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		s.lower = append(s.lower, c)
	}
	s.lowerHash = p.dict.hash(bytesString(s.lower))
	id, ok := p.dict.lookup(bytesString(s.lower), s.lowerHash)
	return id, ok && p.isFixed(id)
}

// term returns the term the lowercased token in s.lower analyses to, in
// s.lower or s.stemmed, with its hash and whether it is the token's own
// surface, and reports false for a stopword.
func (p *Pipeline) term(s *share) (term string, h uint64, own, ok bool) {
	if p.stop {
		if _, ok := stopwords[string(s.lower)]; ok {
			return "", 0, false, false
		}
	}
	if p.stem {
		s.stemmed = stemBytes(append(s.stemmed[:0], s.lower...))
		if string(s.stemmed) != string(s.lower) {
			term = bytesString(s.stemmed)
			return term, p.dict.hash(term), false, true
		}
	}
	return bytesString(s.lower), s.lowerHash, true, true
}

// analyze maps the lowercased token in s.lower to its term id, interning
// a new term and setting its fixed bit when the token is the term
// itself, and reports false for a stopword.
func (p *Pipeline) analyze(s *share) (model.TermID, bool) {
	term, h, own, ok := p.term(s)
	if !ok {
		return 0, false
	}
	id := p.dict.intern(term, h)
	if own {
		p.setFixed(id)
	}
	return id, true
}

// isFixed reports whether id's bit is set in p.fixed.
func (p *Pipeline) isFixed(id model.TermID) bool {
	w := int(id / 64)
	return w < len(p.fixed) && p.fixed[w]&(1<<(id%64)) != 0
}

// setFixed sets id's bit in p.fixed, growing the bitset by an eighth.
func (p *Pipeline) setFixed(id model.TermID) {
	w := int(id / 64)
	if w >= len(p.fixed) {
		p.fixed = append(p.fixed, make([]uint64, w+1-len(p.fixed)+w/8)...)
	}
	p.fixed[w] |= 1 << (id % 64)
}

// count adds one occurrence of id to the current text's counts.
func (s *share) count(id model.TermID) {
	if int(id) >= len(s.counts) {
		n := int(id) + 1
		s.counts = append(s.counts, make([]int32, n+n/8-len(s.counts))...)
	}
	if s.counts[id] == 0 {
		s.touched = append(s.touched, id)
	}
	s.counts[id]++
}

// drain appends the current text's counts to out, sorted by term id,
// and clears them.
func (s *share) drain(out []model.TermCount) []model.TermCount {
	slices.Sort(s.touched)
	for _, id := range s.touched {
		out = append(out, model.TermCount{Term: id, Count: int(s.counts[id])})
		s.counts[id] = 0
	}
	s.touched = s.touched[:0]
	return out
}

// TermFreqs analyzes text like Counts and returns the frequencies as a
// map the caller owns.
func (p *Pipeline) TermFreqs(text string) map[model.TermID]int {
	counts := p.Counts(text)
	freqs := make(map[model.TermID]int, len(counts))
	for _, c := range counts {
		freqs[c.Term] = c.Count
	}
	return freqs
}
