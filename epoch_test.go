package ita

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestBatchSizeValidation covers the option's input checking.
func TestBatchSizeValidation(t *testing.T) {
	if _, err := New(WithCountWindow(5), WithBatchSize(0)); err == nil {
		t.Fatal("WithBatchSize(0) accepted")
	}
	if _, err := New(WithCountWindow(5), WithBatchSize(-3)); err == nil {
		t.Fatal("WithBatchSize(-3) accepted")
	}
	e := newEngine(t, WithCountWindow(5), WithBatchSize(1))
	if _, err := e.IngestText("plain unbatched path", at(0)); err != nil {
		t.Fatal(err)
	}
	if e.WindowLen() != 1 {
		t.Fatalf("WindowLen = %d, want 1 (batch size 1 must not buffer)", e.WindowLen())
	}
}

// TestBatchBufferingAndFlush checks the core WithBatchSize semantics:
// reads reflect flushed epochs only, the buffer auto-flushes at the
// epoch size, and Flush bounds staleness on a quiet stream.
func TestBatchBufferingAndFlush(t *testing.T) {
	e := newEngine(t, WithCountWindow(10), WithBatchSize(4))
	q, err := e.Register("solar turbine", 2)
	if err != nil {
		t.Fatal(err)
	}
	id1, err := e.IngestText("solar turbine output", at(0))
	if err != nil {
		t.Fatal(err)
	}
	id2, err := e.IngestText("solar panel farm", at(10))
	if err != nil {
		t.Fatal(err)
	}
	if id2 != id1+1 {
		t.Fatalf("buffered ingest ids %d, %d: want consecutive", id1, id2)
	}
	// Nothing flushed yet: reads are allowed to be stale.
	if got := e.WindowLen(); got != 0 {
		t.Fatalf("WindowLen = %d before flush, want 0", got)
	}
	if got := e.Results(q); len(got) != 0 {
		t.Fatalf("Results = %v before flush, want empty", got)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := e.WindowLen(); got != 2 {
		t.Fatalf("WindowLen = %d after Flush, want 2", got)
	}
	if got := e.Results(q); len(got) == 0 || got[0].Doc != id1 {
		t.Fatalf("Results after Flush = %v, want doc %d first", got, id1)
	}
	// Flush with an empty buffer is a no-op.
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}

	// Auto-flush on the 4th buffered document.
	for i := 0; i < 3; i++ {
		if _, err := e.IngestText("unrelated filler text", at(20+i)); err != nil {
			t.Fatal(err)
		}
		if got := e.WindowLen(); got != 2 {
			t.Fatalf("WindowLen = %d with %d buffered, want 2", got, i+1)
		}
	}
	if _, err := e.IngestText("more filler arrives", at(30)); err != nil {
		t.Fatal(err)
	}
	if got := e.WindowLen(); got != 6 {
		t.Fatalf("WindowLen = %d after auto-flush, want 6", got)
	}
	if got := e.Stats().Epochs; got == 0 {
		t.Fatal("auto-flush did not take the epoch path")
	}
}

// TestBatchFlushOnBarrierOps checks that Register, Advance, Snapshot and
// Close apply the buffered epoch before acting.
func TestBatchFlushOnBarrierOps(t *testing.T) {
	t.Run("register", func(t *testing.T) {
		e := newEngine(t, WithCountWindow(10), WithBatchSize(8))
		if _, err := e.IngestText("solar turbine output", at(0)); err != nil {
			t.Fatal(err)
		}
		q, err := e.Register("solar turbine", 2)
		if err != nil {
			t.Fatal(err)
		}
		// The initial search must have seen the buffered document.
		if got := e.Results(q); len(got) != 1 {
			t.Fatalf("Results = %v, want the pre-registration document", got)
		}
	})
	t.Run("advance", func(t *testing.T) {
		e := newEngine(t, WithTimeWindow(50*time.Millisecond), WithBatchSize(8))
		if _, err := e.IngestText("a breaking story", at(0)); err != nil {
			t.Fatal(err)
		}
		if err := e.Advance(at(100)); err != nil {
			t.Fatal(err)
		}
		// Flushed by Advance, then immediately expired by the span.
		if got := e.WindowLen(); got != 0 {
			t.Fatalf("WindowLen = %d, want 0", got)
		}
		if got := e.Stats().Arrivals; got != 1 {
			t.Fatalf("Arrivals = %d, want 1 (buffer must flush before expiry)", got)
		}
	})
	t.Run("unregister", func(t *testing.T) {
		e := newEngine(t, WithCountWindow(10), WithBatchSize(8))
		q, err := e.Register("solar turbine", 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.IngestText("solar turbine output", at(0)); err != nil {
			t.Fatal(err)
		}
		if !e.Unregister(q) {
			t.Fatal("Unregister reported unknown query")
		}
		if got := e.WindowLen(); got != 1 {
			t.Fatalf("WindowLen = %d, want 1 (buffer must flush before unregister)", got)
		}
	})
	t.Run("close", func(t *testing.T) {
		e := newEngine(t, WithCountWindow(10), WithBatchSize(8))
		q, err := e.Register("solar turbine", 1)
		if err != nil {
			t.Fatal(err)
		}
		var deltas int
		if err := e.Watch(q, func(Delta) { deltas++ }); err != nil {
			t.Fatal(err)
		}
		if _, err := e.IngestText("solar turbine output", at(0)); err != nil {
			t.Fatal(err)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		if deltas != 1 {
			t.Fatalf("Close delivered %d deltas, want 1 (final epoch)", deltas)
		}
	})
}

// TestBatchGridMatchesSerialFacade drives every epoch size × shard
// count combination through an identical text stream and compares
// results at every epoch boundary against the unbatched single-threaded
// facade, under the epoch pipeline's guarantee (sameTopK).
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
				if B > 1 {
					opts = append(opts, WithBatchSize(B))
				}
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
				for i, text := range texts {
					if _, err := e.IngestText(text, at(i*10)); err != nil {
						t.Fatal(err)
					}
					if (i+1)%B != 0 {
						continue // mid-epoch: results are allowed to lag
					}
					for qi := range queries {
						got := e.Results(QueryID(qi + 1))
						want := steps[i].results[qi]
						if err := sameTopK(got, want); err != nil {
							t.Fatalf("epoch boundary at step %d, query %d: %v", i, qi+1, err)
						}
					}
				}
				// Drain the tail and compare the final state too.
				if err := e.Flush(); err != nil {
					t.Fatal(err)
				}
				last := steps[len(steps)-1]
				for qi := range queries {
					if err := sameTopK(e.Results(QueryID(qi+1)), last.results[qi]); err != nil {
						t.Fatalf("final state, query %d: %v", qi+1, err)
					}
				}
			})
		}
	}
}

// TestConcurrentFlushDeltaOrder drives an ingest goroutine against a
// background Flush goroutine (the itaserver -flush ticker pattern) and
// checks the cross-epoch delivery guarantee: a watcher replaying its
// deltas in delivery order must always see a consistent top-k mirror —
// every Exited doc present, every Entered doc absent. Out-of-order
// epoch delivery breaks this immediately. Run under -race in CI.
func TestConcurrentFlushDeltaOrder(t *testing.T) {
	e := newEngine(t, WithCountWindow(3), WithBatchSize(4))
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

	stop := make(chan struct{})
	var flusher sync.WaitGroup
	flusher.Add(1)
	go func() {
		defer flusher.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := e.Flush(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	texts := []string{
		"solar turbine output rose",
		"markets were calm today",
		"giant solar turbine unveiled",
		"a quiet day in parliament",
	}
	for i := 0; i < 400; i++ {
		if _, err := e.IngestText(texts[i%len(texts)], at(i*10)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	flusher.Wait()
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
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
	e := newEngine(t, WithCountWindow(2), WithBatchSize(4))
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
	if _, err := e.IngestText("solar turbine output rose", at(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.IngestText("markets were calm", at(10)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.IngestText("a quiet day in parliament", at(20)); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("transient in-epoch match produced deltas: %+v", got)
	}

	// A burst whose net effect is one new top document: exactly one
	// delta with the net change, not one per arrival.
	if _, err := e.IngestText("solar turbine blades spin", at(30)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.IngestText("giant solar turbine unveiled today", at(40)); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("burst produced %d deltas, want 1: %+v", len(got), got)
	}
	if len(got[0].Entered) != 1 {
		t.Fatalf("net delta entered %v, want exactly the surviving top document", got[0].Entered)
	}
}
