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
// is not safe for concurrent use.
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

	lower, stemmed []byte         // the current token, lowercased and stemmed
	counts         []int32        // frequency per TermID of the current text
	touched        []model.TermID // ids with a non-zero count, in first-seen order
	out            []model.TermCount
}

// NewPipeline builds a pipeline over dict. When stem is true tokens are
// Porter-stemmed; when stop is true stopwords are removed first (the
// paper applies "standard stopword removal" before building its
// 181,978-term dictionary).
func NewPipeline(dict *Dictionary, stem, stop bool) *Pipeline {
	return &Pipeline{dict: dict, stem: stem, stop: stop}
}

// Dictionary returns the underlying dictionary.
func (p *Pipeline) Dictionary() *Dictionary { return p.dict }

// Counts analyzes text and returns each surviving term with its
// frequency, sorted by term id. Terms are interned into the pipeline's
// dictionary in the order they first occur. The result lives in the
// pipeline's scratch and is valid only until the next call.
func (p *Pipeline) Counts(text string) []model.TermCount {
	for i := 0; ; {
		start, end, ascii := nextToken(text, i)
		if start == len(text) {
			break
		}
		i = end
		if !ascii {
			p.lower = append(p.lower[:0], strings.ToLower(text[start:end])...)
		} else {
			p.lower = p.lower[:0]
			for _, c := range []byte(text[start:end]) {
				if 'A' <= c && c <= 'Z' {
					c += 'a' - 'A'
				}
				p.lower = append(p.lower, c)
			}
			if id, ok := p.dict.ids[string(p.lower)]; ok && p.isFixed(id) {
				p.count(id)
				continue
			}
		}
		if id, ok := p.analyze(); ok {
			p.count(id)
		}
	}
	slices.Sort(p.touched)
	p.out = p.out[:0]
	for _, id := range p.touched {
		p.out = append(p.out, model.TermCount{Term: id, Count: int(p.counts[id])})
		p.counts[id] = 0
	}
	p.touched = p.touched[:0]
	return p.out
}

// analyze maps the lowercased token in p.lower to its term id, interning
// a new term, and reports false for a stopword.
func (p *Pipeline) analyze() (model.TermID, bool) {
	if p.stop {
		if _, ok := stopwords[string(p.lower)]; ok {
			return 0, false
		}
	}
	term := p.lower
	if p.stem {
		p.stemmed = stemBytes(append(p.stemmed[:0], p.lower...))
		term = p.stemmed
	}
	id := p.dict.internBytes(term)
	if string(term) == string(p.lower) {
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
func (p *Pipeline) count(id model.TermID) {
	if int(id) >= len(p.counts) {
		n := int(id) + 1
		p.counts = append(p.counts, make([]int32, n+n/8-len(p.counts))...)
	}
	if p.counts[id] == 0 {
		p.touched = append(p.touched, id)
	}
	p.counts[id]++
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
