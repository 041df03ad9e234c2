package core

import (
	"testing"

	"ita/internal/invindex"
	"ita/internal/model"
)

// TestScoreDocMatchesModelScore checks scoring from the term table
// against model.Score, bit for bit, across documents that grow it and
// an empty document.
func TestScoreDocMatchesModelScore(t *testing.T) {
	var stats Stats
	m := NewMaintainer(invindex.NewIndex(0), &stats, MaintainerConfig{})
	g := newContGen(3, 400)
	var queries []*queryState
	for i := 0; i < 50; i++ {
		q := g.query(t, model.QueryID(i+1))
		if err := m.Register(q); err != nil {
			t.Fatal(err)
		}
		queries = append(queries, m.lookup(q.ID))
	}
	var docs []*model.Document
	for i := 0; i < 200; i++ {
		docs = append(docs, g.doc(t))
	}
	// A document with more postings than the table's first size, and one
	// sharing every query's terms.
	wide, every := []model.Posting{}, map[model.TermID]bool{}
	for term := 0; term < 400; term += 3 {
		wide = append(wide, model.Posting{Term: model.TermID(term), Weight: 0.01 + float64(term)/1000})
	}
	for _, qs := range queries {
		for _, ts := range qs.terms {
			every[ts.term] = true
		}
	}
	var all []model.Posting
	for term := range every {
		all = append(all, model.Posting{Term: term, Weight: 1 / (1 + float64(term))})
	}
	for _, ps := range [][]model.Posting{wide, all} {
		d, err := model.NewDocument(model.DocID(len(docs)+1), docs[0].Arrival, ps)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, d)
	}
	docs = append(docs, &model.Document{ID: model.DocID(len(docs) + 1)})

	check := func(tag string) {
		for _, d := range docs {
			m.prepDoc(d)
			for _, qs := range queries {
				if got, want := m.scoreDoc(qs), model.Score(qs.q, d); got != want {
					t.Fatalf("%s: doc %d query %d: scoreDoc %v, model.Score %v", tag, d.ID, qs.q.ID, got, want)
				}
			}
		}
	}
	check("growing")
	check("grown")
}
