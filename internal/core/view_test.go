package core

import (
	"reflect"
	"testing"
	"time"

	"ita/internal/model"
	"ita/internal/topk"
	"ita/internal/window"
)

// viewDoc builds a single-term document for the view tests.
func viewDoc(id model.DocID, term model.TermID, w float64, ms int) *model.Document {
	d, err := model.NewDocument(id, time.Unix(0, int64(ms)*1e6), []model.Posting{{Term: term, Weight: w}})
	if err != nil {
		panic(err)
	}
	return d
}

// servingEngines are the constructors of every ServingEngine; the
// view tests run against each.
var servingEngines = []struct {
	name string
	new  func(window.Policy) ServingEngine
}{
	{"ita", func(p window.Policy) ServingEngine { return NewITA(p) }},
	{"naive", func(p window.Policy) ServingEngine { return NewNaive(p) }},
	{"naive-plain", func(p window.Policy) ServingEngine {
		return NewNaive(p, WithKmax(func(k int) int { return k }))
	}},
}

// TestPublishedViewsTrackBoundaries drives each engine and checks the
// published read path: unpublished maintenance is invisible, PublishViews
// exposes exactly the boundary state byte-identical to Result, and
// unregistration removes the query at the next boundary.
func TestPublishedViewsTrackBoundaries(t *testing.T) {
	for _, c := range servingEngines {
		t.Run(c.name, func(t *testing.T) { testPublishedViewsTrackBoundaries(t, c.new) })
	}
}

func testPublishedViewsTrackBoundaries(t *testing.T, build func(window.Policy) ServingEngine) {
	e := build(window.Count{N: 10})
	reader := e.PublishViews()
	q, err := model.NewQuery(7, 2, []model.QueryTerm{{Term: 1, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Register(q); err != nil {
		t.Fatal(err)
	}

	// Until the next publication the query is registered but invisible
	// to readers.
	if _, ok := reader.Result(7); ok {
		t.Fatal("unpublished query visible through the reader")
	}
	e.PublishViews()
	f, ok := reader.Result(7)
	if !ok || len(f.Docs) != 0 {
		t.Fatalf("published empty result = %v, %v", f, ok)
	}

	if err := e.Process(viewDoc(1, 1, 0.5, 0)); err != nil {
		t.Fatal(err)
	}
	// The arrival is applied but not yet published: readers still see
	// the previous boundary.
	if f, _ := reader.Result(7); len(f.Docs) != 0 {
		t.Fatalf("in-flight state leaked to readers: %v", f.Docs)
	}
	e.PublishViews()
	f, _ = reader.Result(7)
	want, _ := e.Result(7)
	if !reflect.DeepEqual(f.Docs, want) {
		t.Fatalf("published %v, Result %v", f.Docs, want)
	}
	if len(f.Docs) != 1 || f.Docs[0].Doc != 1 {
		t.Fatalf("published boundary = %v", f.Docs)
	}

	// Publishing with no changes keeps the same snapshot pointer.
	before, _ := reader.Result(7)
	e.PublishViews()
	after, _ := reader.Result(7)
	if before != after {
		t.Fatal("no-op publish replaced the snapshot")
	}

	// Each enumerates the published query.
	seen := map[model.QueryID]int{}
	reader.Each(func(id model.QueryID, top *topk.Frozen) { seen[id] = len(top.Docs) })
	if len(seen) != 1 || seen[7] != 1 {
		t.Fatalf("Each saw %v", seen)
	}

	if !e.Unregister(7) {
		t.Fatal("Unregister failed")
	}
	e.PublishViews()
	if _, ok := reader.Result(7); ok {
		t.Fatal("unregistered query still visible")
	}
}

// TestPublishedViewsEpochPath checks that the epoch pipeline marks every
// touched query dirty: after ProcessEpoch + PublishViews the reader
// matches Result for all affected queries.
func TestPublishedViewsEpochPath(t *testing.T) {
	for _, c := range servingEngines {
		t.Run(c.name, func(t *testing.T) { testPublishedViewsEpochPath(t, c.new) })
	}
}

func testPublishedViewsEpochPath(t *testing.T, build func(window.Policy) ServingEngine) {
	e := build(window.Count{N: 4})
	for _, q := range []struct {
		id   model.QueryID
		term model.TermID
	}{{1, 1}, {2, 2}} {
		mq, err := model.NewQuery(q.id, 2, []model.QueryTerm{{Term: q.term, Weight: 1}})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Register(mq); err != nil {
			t.Fatal(err)
		}
	}
	reader := e.PublishViews()

	docs := []*model.Document{
		viewDoc(1, 1, 0.9, 0),
		viewDoc(2, 2, 0.8, 10),
		viewDoc(3, 1, 0.7, 20),
		viewDoc(4, 2, 0.6, 30),
		viewDoc(5, 1, 0.5, 40), // expires doc 1 from the 4-window
	}
	if err := e.ProcessEpoch(docs); err != nil {
		t.Fatal(err)
	}
	e.PublishViews()
	for _, id := range []model.QueryID{1, 2} {
		f, ok := reader.Result(id)
		if !ok {
			t.Fatalf("query %d unpublished after epoch", id)
		}
		want, _ := e.Result(id)
		if !reflect.DeepEqual(f.Docs, want) {
			t.Fatalf("query %d: published %v, Result %v", id, f.Docs, want)
		}
	}
}
