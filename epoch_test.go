package ita

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestBatchFlushOnBarrierOps checks that Register, Advance, Unregister
// and Close act on a state that already holds every document of the
// IngestBatch call that returned before them: an epoch is complete when
// its call returns, so no operation has anything left to flush.
func TestBatchFlushOnBarrierOps(t *testing.T) {
	batch := []TimedText{{Text: "solar turbine output", At: at(0)}, {Text: "markets were calm", At: at(1)}}
	t.Run("register", func(t *testing.T) {
		e := newEngine(t, WithCountWindow(10))
		if _, err := e.IngestBatch(batch); err != nil {
			t.Fatal(err)
		}
		q, err := e.Register("solar turbine", 2)
		if err != nil {
			t.Fatal(err)
		}
		// The initial search must have seen the ingested document.
		if got := e.Results(q); len(got) != 1 {
			t.Fatalf("Results = %v, want the pre-registration document", got)
		}
	})
	t.Run("advance", func(t *testing.T) {
		e := newEngine(t, WithTimeWindow(50*time.Millisecond))
		if _, err := e.IngestBatch(batch); err != nil {
			t.Fatal(err)
		}
		if err := e.Advance(at(100)); err != nil {
			t.Fatal(err)
		}
		// Applied by the ingest, then expired by the span.
		if got := e.WindowLen(); got != 0 {
			t.Fatalf("WindowLen = %d, want 0", got)
		}
		if got := e.Stats().Arrivals; got != 2 {
			t.Fatalf("Arrivals = %d, want 2", got)
		}
	})
	t.Run("unregister", func(t *testing.T) {
		e := newEngine(t, WithCountWindow(10))
		q, err := e.Register("solar turbine", 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.IngestBatch(batch); err != nil {
			t.Fatal(err)
		}
		if !e.Unregister(q) {
			t.Fatal("Unregister reported unknown query")
		}
		if got := e.WindowLen(); got != 2 {
			t.Fatalf("WindowLen = %d, want 2", got)
		}
	})
	t.Run("close", func(t *testing.T) {
		e := newEngine(t, WithCountWindow(10))
		q, err := e.Register("solar turbine", 1)
		if err != nil {
			t.Fatal(err)
		}
		var deltas int
		if err := e.Watch(q, func(Delta) { deltas++ }); err != nil {
			t.Fatal(err)
		}
		if _, err := e.IngestBatch(batch); err != nil {
			t.Fatal(err)
		}
		if deltas != 1 {
			t.Fatalf("ingest delivered %d deltas before returning, want 1", deltas)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		if deltas != 1 {
			t.Fatalf("Close delivered %d more deltas, want none", deltas-1)
		}
	})
}

// TestBatchGridMatchesSerialFacade drives every epoch size × shard
// count combination through an identical text stream — the stream cut
// into IngestBatch calls of B documents — and compares results at every
// epoch boundary against the single-document single-threaded facade,
// under the epoch pipeline's guarantee (sameTopK).
func TestBatchGridMatchesSerialFacade(t *testing.T) {
	texts := feedTexts(160)
	queries := []string{"crude oil", "tanker export market", "refinery barrel price", "oil price"}

	serial := newEngine(t, WithCountWindow(12))
	for _, q := range queries {
		if _, err := serial.Register(q, 3); err != nil {
			t.Fatal(err)
		}
	}
	type boundary struct {
		step    int
		results [][]Match
	}
	// Record the serial engine's results at every step so any epoch
	// boundary can be compared.
	var steps []boundary
	for i, text := range texts {
		if _, err := serial.IngestText(text, at(i*10)); err != nil {
			t.Fatal(err)
		}
		b := boundary{step: i}
		for qid := QueryID(1); qid <= QueryID(len(queries)); qid++ {
			b.results = append(b.results, serial.Results(qid))
		}
		steps = append(steps, b)
	}

	for _, B := range []int{1, 4, 64} {
		for _, S := range []int{0, 1, 2, 8} { // 0 = no WithShards option
			B, S := B, S
			t.Run(fmt.Sprintf("b%d_s%d", B, S), func(t *testing.T) {
				opts := []Option{WithCountWindow(12)}
				if S > 0 {
					opts = append(opts, WithShards(S))
				}
				e := newEngine(t, opts...)
				defer e.Close()
				for _, q := range queries {
					if _, err := e.Register(q, 3); err != nil {
						t.Fatal(err)
					}
				}
				// The last, partial epoch compares the final state too.
				for start := 0; start < len(texts); start += B {
					var items []TimedText
					for i := start; i < min(start+B, len(texts)); i++ {
						items = append(items, TimedText{Text: texts[i], At: at(i * 10)})
					}
					if _, err := e.IngestBatch(items); err != nil {
						t.Fatal(err)
					}
					i := start + len(items) - 1
					for qi := range queries {
						got := e.Results(QueryID(qi + 1))
						want := steps[i].results[qi]
						if err := sameTopK(got, want); err != nil {
							t.Fatalf("epoch boundary at step %d, query %d: %v", i, qi+1, err)
						}
					}
				}
			})
		}
	}
}

// TestConcurrentFlushDeltaOrder drives concurrent IngestText writers,
// whose calls commit in groups of varying size, and checks the
// cross-epoch delivery guarantee: a watcher replaying its deltas in
// delivery order must always see a consistent top-k mirror — every
// Exited doc present, every Entered doc absent. Out-of-order epoch
// delivery breaks this immediately. Run under -race in CI.
func TestConcurrentFlushDeltaOrder(t *testing.T) {
	e := newEngine(t, WithCountWindow(3))
	defer e.Close()
	q, err := e.Register("solar turbine", 2)
	if err != nil {
		t.Fatal(err)
	}
	mirror := map[DocID]bool{}
	var violation error
	if err := e.Watch(q, func(d Delta) {
		// Callbacks are serialized by the delivery drainer, so the
		// mirror needs no lock.
		for _, doc := range d.Exited {
			if !mirror[doc] {
				violation = fmt.Errorf("doc %d exited but was never entered", doc)
			}
			delete(mirror, doc)
		}
		for _, m := range d.Entered {
			if mirror[m.Doc] {
				violation = fmt.Errorf("doc %d entered twice", m.Doc)
			}
			mirror[m.Doc] = true
		}
	}); err != nil {
		t.Fatal(err)
	}

	texts := []string{
		"solar turbine output rose",
		"markets were calm today",
		"giant solar turbine unveiled",
		"a quiet day in parliament",
	}
	// One shared arrival time: concurrent writers reach the queue in any
	// order, and equal times never regress.
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 100; i++ {
				if _, err := e.IngestText(texts[(w+i)%len(texts)], at(0)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	writers.Wait()
	if violation != nil {
		t.Fatal(violation)
	}
	// The mirror must now equal the engine's current result.
	cur := map[DocID]bool{}
	for _, m := range e.Results(q) {
		cur[m.Doc] = true
	}
	if len(cur) != len(mirror) {
		t.Fatalf("mirror %v diverged from results %v", mirror, cur)
	}
	for doc := range cur {
		if !mirror[doc] {
			t.Fatalf("mirror %v missing doc %d from results %v", mirror, doc, cur)
		}
	}
}

// TestBatchWatchCoalescing checks the per-epoch delivery guarantee: a
// document that enters and leaves the top-k within one epoch produces
// no notification, and a burst produces one net delta per query.
func TestBatchWatchCoalescing(t *testing.T) {
	e := newEngine(t, WithCountWindow(2))
	q, err := e.Register("solar turbine", 1)
	if err != nil {
		t.Fatal(err)
	}
	var got []Delta
	if err := e.Watch(q, func(d Delta) { got = append(got, d) }); err != nil {
		t.Fatal(err)
	}
	// One epoch: a match arrives, then two unrelated documents push it
	// out of the 2-document window — all inside the same batch.
	if _, err := e.IngestBatch([]TimedText{
		{Text: "solar turbine output rose", At: at(0)},
		{Text: "markets were calm", At: at(10)},
		{Text: "a quiet day in parliament", At: at(20)},
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("transient in-epoch match produced deltas: %+v", got)
	}

	// A burst whose net effect is one new top document: exactly one
	// delta with the net change, not one per arrival.
	if _, err := e.IngestBatch([]TimedText{
		{Text: "solar turbine blades spin", At: at(30)},
		{Text: "giant solar turbine unveiled today", At: at(40)},
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("burst produced %d deltas, want 1: %+v", len(got), got)
	}
	if len(got[0].Entered) != 1 {
		t.Fatalf("net delta entered %v, want exactly the surviving top document", got[0].Entered)
	}
}
