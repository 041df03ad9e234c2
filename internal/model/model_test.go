package model

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func mustDoc(t *testing.T, id DocID, ps []Posting) *Document {
	t.Helper()
	d, err := NewDocument(id, time.Time{}, ps)
	if err != nil {
		t.Fatalf("NewDocument: %v", err)
	}
	return d
}

func mustQuery(t *testing.T, id QueryID, k int, ts []QueryTerm) *Query {
	t.Helper()
	q, err := NewQuery(id, k, ts)
	if err != nil {
		t.Fatalf("NewQuery: %v", err)
	}
	return q
}

func TestNewDocumentSortsPostings(t *testing.T) {
	d := mustDoc(t, 1, []Posting{{Term: 9, Weight: 0.1}, {Term: 3, Weight: 0.2}, {Term: 7, Weight: 0.3}})
	for i := 1; i < len(d.Postings); i++ {
		if d.Postings[i-1].Term >= d.Postings[i].Term {
			t.Fatalf("postings not sorted: %v", d.Postings)
		}
	}
}

func TestNewDocumentRejectsDuplicates(t *testing.T) {
	_, err := NewDocument(1, time.Time{}, []Posting{{Term: 3, Weight: 0.1}, {Term: 3, Weight: 0.2}})
	if !errors.Is(err, ErrDuplicateTerm) {
		t.Fatalf("want ErrDuplicateTerm, got %v", err)
	}
}

func TestNewDocumentRejectsNonPositiveWeights(t *testing.T) {
	for _, w := range []float64{0, -0.5, math.NaN()} {
		_, err := NewDocument(1, time.Time{}, []Posting{{Term: 3, Weight: w}})
		if !errors.Is(err, ErrNonPositiveWeight) {
			t.Fatalf("weight %g: want ErrNonPositiveWeight, got %v", w, err)
		}
	}
}

func TestNewDocumentAllowsEmptyComposition(t *testing.T) {
	// A document that is all stopwords has an empty composition list; it
	// is valid and simply never matches anything.
	d := mustDoc(t, 1, nil)
	if d.Terms() != 0 {
		t.Fatalf("Terms() = %d, want 0", d.Terms())
	}
}

func TestDocumentWeightLookup(t *testing.T) {
	d := mustDoc(t, 1, []Posting{{Term: 2, Weight: 0.5}, {Term: 5, Weight: 0.25}, {Term: 8, Weight: 0.125}})
	for _, tc := range []struct {
		term TermID
		want float64
		ok   bool
	}{
		{2, 0.5, true}, {5, 0.25, true}, {8, 0.125, true},
		{0, 0, false}, {3, 0, false}, {9, 0, false},
	} {
		got, ok := d.Weight(tc.term)
		if got != tc.want || ok != tc.ok {
			t.Errorf("Weight(%d) = (%g,%v), want (%g,%v)", tc.term, got, ok, tc.want, tc.ok)
		}
	}
}

func TestNewQueryValidation(t *testing.T) {
	if _, err := NewQuery(1, 0, []QueryTerm{{Term: 1, Weight: 1}}); !errors.Is(err, ErrBadK) {
		t.Errorf("k=0: want ErrBadK, got %v", err)
	}
	if _, err := NewQuery(1, -2, []QueryTerm{{Term: 1, Weight: 1}}); !errors.Is(err, ErrBadK) {
		t.Errorf("k=-2: want ErrBadK, got %v", err)
	}
	if _, err := NewQuery(1, 3, nil); !errors.Is(err, ErrNoTerms) {
		t.Errorf("no terms: want ErrNoTerms, got %v", err)
	}
	if _, err := NewQuery(1, 3, []QueryTerm{{Term: 1, Weight: 1}, {Term: 1, Weight: 2}}); !errors.Is(err, ErrDuplicateTerm) {
		t.Errorf("dup: want ErrDuplicateTerm, got %v", err)
	}
	if _, err := NewQuery(1, 3, []QueryTerm{{Term: 1, Weight: -1}}); !errors.Is(err, ErrNonPositiveWeight) {
		t.Errorf("neg: want ErrNonPositiveWeight, got %v", err)
	}
	if _, err := NewQuery(1, 3, []QueryTerm{{Term: 1, Weight: math.NaN()}}); !errors.Is(err, ErrNonPositiveWeight) {
		t.Errorf("NaN: want ErrNonPositiveWeight, got %v", err)
	}
}

func TestQueryWeightLookup(t *testing.T) {
	q := mustQuery(t, 1, 5, []QueryTerm{{Term: 10, Weight: 0.6}, {Term: 20, Weight: 0.8}})
	if w, ok := q.Weight(10); !ok || w != 0.6 {
		t.Errorf("Weight(10) = (%g,%v)", w, ok)
	}
	if _, ok := q.Weight(15); ok {
		t.Errorf("Weight(15) should be absent")
	}
}

func TestScoreMatchesPaperExample(t *testing.T) {
	// Query {white white tower}: f(white)=2, f(tower)=1, so the
	// normalized query weights are 2/sqrt(5) and 1/sqrt(5).
	const (
		tower TermID = 11
		white TermID = 20
	)
	wQtower := 1 / math.Sqrt(5)
	wQwhite := 2 / math.Sqrt(5)
	q := mustQuery(t, 1, 2, []QueryTerm{{Term: tower, Weight: wQtower}, {Term: white, Weight: wQwhite}})

	d := mustDoc(t, 9, []Posting{{Term: tower, Weight: 0.16}, {Term: white, Weight: 0.05}})
	got := Score(q, d)
	want := wQtower*0.16 + wQwhite*0.05
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("Score = %g, want %g", got, want)
	}
}

func TestScoreDisjointTermsIsZero(t *testing.T) {
	q := mustQuery(t, 1, 1, []QueryTerm{{Term: 1, Weight: 1}, {Term: 3, Weight: 1}})
	d := mustDoc(t, 1, []Posting{{Term: 2, Weight: 1}, {Term: 4, Weight: 1}})
	if s := Score(q, d); s != 0 {
		t.Fatalf("Score = %g, want 0", s)
	}
}

// TestScoreAgainstBruteForce cross-checks Score against a quadratic
// reference on randomized term sets.
func TestScoreAgainstBruteForce(t *testing.T) {
	f := func(qterms, dterms []uint8) bool {
		qm := map[TermID]float64{}
		for _, x := range qterms {
			qm[TermID(x%32)] += 0.5
		}
		dm := map[TermID]float64{}
		for _, x := range dterms {
			dm[TermID(x%32)] += 0.25
		}
		var qts []QueryTerm
		for term, w := range qm {
			qts = append(qts, QueryTerm{Term: term, Weight: w})
		}
		var dps []Posting
		for term, w := range dm {
			dps = append(dps, Posting{Term: term, Weight: w})
		}
		if len(qts) == 0 {
			return true
		}
		q, err := NewQuery(1, 1, qts)
		if err != nil {
			return false
		}
		d, err := NewDocument(1, time.Time{}, dps)
		if err != nil {
			return false
		}
		var want float64
		for term, qw := range qm {
			want += qw * dm[term]
		}
		return math.Abs(Score(q, d)-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSortScoredOrdering(t *testing.T) {
	s := []ScoredDoc{{Doc: 3, Score: 0.5}, {Doc: 1, Score: 0.9}, {Doc: 2, Score: 0.5}, {Doc: 4, Score: 0.7}}
	SortScored(s)
	want := []ScoredDoc{{Doc: 1, Score: 0.9}, {Doc: 4, Score: 0.7}, {Doc: 2, Score: 0.5}, {Doc: 3, Score: 0.5}}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("SortScored[%d] = %+v, want %+v", i, s[i], want[i])
		}
	}
}
