// Package corpus supplies the document sources of the evaluation: a
// synthetic corpus calibrated to the statistics the paper reports for
// the WSJ collection (172,961 articles, 181,978 distinct terms after
// stopword removal), a small newswire text generator for the runnable
// examples, and a plain-text directory loader for users with a real
// corpus on disk.
//
// The WSJ collection itself is licensed TREC data and cannot ship with
// an open-source repository, so the benchmarks substitute the synthetic
// corpus. It matches the statistics both algorithms' costs depend on:
// dictionary size, document length and the Zipfian term distribution.
package corpus

import (
	"fmt"
	"math/rand"
	"time"

	"ita/internal/model"
	"ita/internal/stats"
	"ita/internal/vsm"
)

// SynthConfig calibrates the synthetic corpus.
type SynthConfig struct {
	// DictSize is the dictionary size; the paper's WSJ dictionary has
	// 181,978 terms after stopword removal.
	DictSize int
	// ZipfS is the exponent of the term-popularity distribution.
	// Natural-language corpora follow Zipf's law with s ≈ 1 over the
	// head; the default of 1.2 also reproduces realistic Heaps-law
	// vocabulary growth (a large hapax tail), which governs how often a
	// uniformly drawn dictionary term matches any window document — the
	// quantity the Naïve baseline's rescan rate hinges on.
	ZipfS float64
	// LogMu and LogSigma parameterize the log-normal distribution of
	// distinct terms per document. The defaults give a median of ~148
	// and mean of ~177 distinct terms, in line with WSJ articles.
	LogMu, LogSigma float64
	// TFGeomP is the success probability of the geometric distribution
	// of within-document term frequencies (mean 1/p occurrences).
	TFGeomP float64
	// Seed makes the corpus reproducible.
	Seed int64
}

// WSJConfig returns the calibration used by all paper-reproduction
// experiments.
func WSJConfig() SynthConfig {
	return SynthConfig{
		DictSize: 181978,
		ZipfS:    1.2,
		LogMu:    5.0,
		LogSigma: 0.6,
		TFGeomP:  0.55,
		Seed:     20090329, // first day of ICDE 2009
	}
}

// Synth generates an endless stream of synthetic documents and random
// queries over a shared dictionary.
type Synth struct {
	cfg      SynthConfig
	rng      *rand.Rand
	zipf     *stats.Zipf
	weighter vsm.Weighter
	scratch  map[model.TermID]int
}

// NewSynth builds a generator; weighter converts raw frequencies into
// impact weights (vsm.Cosine{} for all paper experiments).
func NewSynth(cfg SynthConfig, weighter vsm.Weighter) (*Synth, error) {
	if cfg.DictSize <= 0 {
		return nil, fmt.Errorf("corpus: dictionary size %d", cfg.DictSize)
	}
	rng := stats.NewRand(cfg.Seed)
	z, err := stats.NewZipf(rng, cfg.ZipfS, cfg.DictSize)
	if err != nil {
		return nil, fmt.Errorf("corpus: zipf: %w", err)
	}
	return &Synth{
		cfg:      cfg,
		rng:      rng,
		zipf:     z,
		weighter: weighter,
		scratch:  make(map[model.TermID]int, 256),
	}, nil
}

// DictSize returns the dictionary size.
func (s *Synth) DictSize() int { return s.cfg.DictSize }

// nextLen draws a document's distinct-term count, clamped to [8, 2000]
// to keep pathological tails out of the cost measurements.
func (s *Synth) nextLen() int {
	n := int(stats.LogNormal(s.rng, s.cfg.LogMu, s.cfg.LogSigma))
	if n < 8 {
		n = 8
	}
	if n > 2000 {
		n = 2000
	}
	return n
}

// Freqs draws one document's raw term-frequency vector: nextLen distinct
// terms with Zipf-distributed identities and geometric frequencies.
func (s *Synth) Freqs() map[model.TermID]int {
	n := s.nextLen()
	freqs := make(map[model.TermID]int, n)
	for len(freqs) < n {
		t := model.TermID(s.zipf.Next())
		if _, dup := freqs[t]; dup {
			continue
		}
		freqs[t] = stats.Geometric(s.rng, s.cfg.TFGeomP)
	}
	return freqs
}

// Document draws one synthetic document with the given id and arrival
// time.
func (s *Synth) Document(id model.DocID, arrival time.Time) *model.Document {
	d, err := model.NewDocument(id, arrival, s.weighter.DocPostings(s.Freqs()))
	if err != nil {
		// The weighter produces sorted positive postings by
		// construction; a failure here is a programming error.
		panic(fmt.Sprintf("corpus: generated invalid document: %v", err))
	}
	return d
}

// Query draws a random continuous query of n distinct terms, each
// occurring once, as in the paper's workload ("terms selected randomly
// from the dictionary"). Uniform selection over the full dictionary
// makes most query terms rare — exactly the regime that separates ITA
// from Naïve.
func (s *Synth) Query(id model.QueryID, k, n int) *model.Query {
	freqs := make(map[model.TermID]int, n)
	for len(freqs) < n {
		freqs[model.TermID(s.rng.Intn(s.cfg.DictSize))] = 1
	}
	q, err := model.NewQuery(id, k, s.weighter.QueryTerms(freqs))
	if err != nil {
		panic(fmt.Sprintf("corpus: generated invalid query: %v", err))
	}
	return q
}

// PopularQuery draws a query whose terms follow the corpus Zipf
// distribution instead of the uniform one — a harder adversarial
// workload where query terms are common in documents (used by the
// ablation experiments).
func (s *Synth) PopularQuery(id model.QueryID, k, n int) *model.Query {
	if n > s.cfg.DictSize {
		n = s.cfg.DictSize
	}
	freqs := make(map[model.TermID]int, n)
	for len(freqs) < n {
		freqs[model.TermID(s.zipf.Next())] = 1
	}
	q, err := model.NewQuery(id, k, s.weighter.QueryTerms(freqs))
	if err != nil {
		panic(fmt.Sprintf("corpus: generated invalid query: %v", err))
	}
	return q
}
