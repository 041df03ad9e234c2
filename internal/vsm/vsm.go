// Package vsm implements the vector-space weighting schemes that turn
// raw term frequencies into the impact weights consumed by the engines:
// the paper's cosine formulation (Formula 1) and, as the extension the
// paper mentions, an Okapi BM25 formulation with static document-side
// impacts.
package vsm

import (
	"cmp"
	"math"
	"slices"

	"ita/internal/model"
)

// Weighter converts term frequencies into document-side impact weights
// w_{d,t} and query-side weights w_{Q,t}. Document weights must be fixed
// at arrival time (they are embedded into inverted-list entries), so a
// Weighter may not depend on mutable collection statistics.
//
// Weigh and WeighQuery take the term-sorted counts that analysis emits
// and keep their order. DocPostings and QueryTerms take a frequency map
// and are wrappers over them.
type Weighter interface {
	// Weigh converts a document's term counts, sorted by term id, into
	// its composition list in the same order.
	Weigh(counts []model.TermCount) []model.Posting
	// WeighQuery converts a query's term counts, sorted by term id, into
	// weighted query terms in the same order.
	WeighQuery(counts []model.TermCount) []model.QueryTerm
	// DocPostings converts a document's term frequencies into a
	// composition list, sorted by term id.
	DocPostings(freqs map[model.TermID]int) []model.Posting
	// QueryTerms converts a query's term frequencies into weighted
	// query terms, sorted by term id.
	QueryTerms(freqs map[model.TermID]int) []model.QueryTerm
	// Name identifies the scheme in reports.
	Name() string
}

// sortedCounts flattens a frequency map into counts sorted by term id,
// dropping the terms whose frequency is not positive.
func sortedCounts(freqs map[model.TermID]int) []model.TermCount {
	counts := make([]model.TermCount, 0, len(freqs))
	for t, f := range freqs {
		if f > 0 {
			counts = append(counts, model.TermCount{Term: t, Count: f})
		}
	}
	slices.SortFunc(counts, func(a, b model.TermCount) int { return cmp.Compare(a.Term, b.Term) })
	return counts
}

// weighEach applies w to every count, keeping the order. An empty input
// yields nil.
func weighEach[T any](counts []model.TermCount, w func(model.TermCount) T) []T {
	if len(counts) == 0 {
		return nil
	}
	out := make([]T, len(counts))
	for i, c := range counts {
		out[i] = w(c)
	}
	return out
}

// Cosine is the paper's similarity: w_{x,t} = f_{x,t} / sqrt(Σ f²).
// Document and query vectors are L2-normalized over their own terms
// (terms with f = 0 contribute nothing to the norm), so S(d|Q) is the
// cosine of the angle between the two frequency vectors.
type Cosine struct{}

// Name implements Weighter.
func (Cosine) Name() string { return "cosine" }

// norm returns sqrt(Σ f²). The sum is taken in integers, so it is exact
// and the weights do not depend on the order the terms are visited in.
func norm(counts []model.TermCount) float64 {
	var sq int64
	for _, c := range counts {
		sq += int64(c.Count) * int64(c.Count)
	}
	return math.Sqrt(float64(sq))
}

// Weigh implements Weighter.
func (Cosine) Weigh(counts []model.TermCount) []model.Posting {
	n := norm(counts)
	return weighEach(counts, func(c model.TermCount) model.Posting {
		return model.Posting{Term: c.Term, Weight: float64(c.Count) / n}
	})
}

// WeighQuery implements Weighter.
func (Cosine) WeighQuery(counts []model.TermCount) []model.QueryTerm {
	n := norm(counts)
	return weighEach(counts, func(c model.TermCount) model.QueryTerm {
		return model.QueryTerm{Term: c.Term, Weight: float64(c.Count) / n}
	})
}

// DocPostings implements Weighter.
func (c Cosine) DocPostings(freqs map[model.TermID]int) []model.Posting {
	return c.Weigh(sortedCounts(freqs))
}

// QueryTerms implements Weighter.
func (c Cosine) QueryTerms(freqs map[model.TermID]int) []model.QueryTerm {
	return c.WeighQuery(sortedCounts(freqs))
}

// Okapi is a BM25-style weighting with static document impacts:
//
//	w_{d,t} = ((k1+1)·f) / (k1·((1-b) + b·len/avdl) + f)
//	w_{Q,t} = ((k3+1)·f) / (k3 + f)
//
// The document length len is the total token count Σf. AvgDocLen is a
// fixed calibration constant rather than a live collection statistic, so
// that document impacts never change after arrival — the property the
// inverted-list entries and thresholds rely on. Collection-dependent idf
// can be folded into the query weights by the caller at registration
// time if desired.
type Okapi struct {
	K1        float64 // term-frequency saturation, typically 1.2
	B         float64 // length normalization, typically 0.75
	K3        float64 // query-side saturation, typically 8
	AvgDocLen float64 // calibration constant, e.g. the corpus mean length
}

// NewOkapi returns an Okapi weighter with the standard parameterization
// around the given average document length.
func NewOkapi(avgDocLen float64) Okapi {
	return Okapi{K1: 1.2, B: 0.75, K3: 8, AvgDocLen: avgDocLen}
}

// Name implements Weighter.
func (o Okapi) Name() string { return "okapi" }

// Weigh implements Weighter.
func (o Okapi) Weigh(counts []model.TermCount) []model.Posting {
	var total int64
	for _, c := range counts {
		total += int64(c.Count)
	}
	dl := float64(total)
	avdl := o.AvgDocLen
	if avdl <= 0 {
		avdl = dl
	}
	return weighEach(counts, func(c model.TermCount) model.Posting {
		tf := float64(c.Count)
		return model.Posting{Term: c.Term, Weight: ((o.K1 + 1) * tf) / (o.K1*((1-o.B)+o.B*dl/avdl) + tf)}
	})
}

// WeighQuery implements Weighter.
func (o Okapi) WeighQuery(counts []model.TermCount) []model.QueryTerm {
	return weighEach(counts, func(c model.TermCount) model.QueryTerm {
		tf := float64(c.Count)
		return model.QueryTerm{Term: c.Term, Weight: ((o.K3 + 1) * tf) / (o.K3 + tf)}
	})
}

// DocPostings implements Weighter.
func (o Okapi) DocPostings(freqs map[model.TermID]int) []model.Posting {
	return o.Weigh(sortedCounts(freqs))
}

// QueryTerms implements Weighter.
func (o Okapi) QueryTerms(freqs map[model.TermID]int) []model.QueryTerm {
	return o.WeighQuery(sortedCounts(freqs))
}
