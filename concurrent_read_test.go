package ita

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// resultsLocked is the test-only reference read: copy the inner
// engine's live result under the engine lock. The equivalence suites
// compare it byte-for-byte against the wait-free Results to prove the
// published views never diverge from the engine's own state.
func (e *Engine) resultsLocked(id QueryID) []Match {
	e.mu.Lock()
	defer e.mu.Unlock()
	docs, ok := e.inner.Result(id)
	if !ok {
		return nil
	}
	out := make([]Match, len(docs))
	for i, d := range docs {
		out[i] = Match{Doc: d.Doc, Score: d.Score}
		if e.texts != nil {
			out[i].Text = e.texts.get(d.Doc)
		}
	}
	return out
}

// TestReadsAcquireNoEngineLock is the direct proof that the read path
// never touches e.mu, for every algorithm: the test holds the engine
// lock and the reads must still complete. Before the published views,
// every one of these calls deadlocked here.
func TestReadsAcquireNoEngineLock(t *testing.T) {
	for _, a := range []Algorithm{IncrementalThreshold, NaiveKmax, NaivePlain} {
		t.Run(a.String(), func(t *testing.T) { testReadsAcquireNoEngineLock(t, a) })
	}
}

// TestReadPathAllocations pins what the published read path allocates:
// Results copies the frozen view into the one caller-owned slice it
// returns, and QueryText reads the text off the same snapshot with no
// allocation at all, for ITA and NaivePlain, with and without text
// retention. The query id is past 255 so that boxing it into an
// interface would allocate and show.
func TestReadPathAllocations(t *testing.T) {
	for _, a := range []Algorithm{IncrementalThreshold, NaivePlain} {
		for _, retain := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/retain=%v", a, retain), func(t *testing.T) {
				opts := []Option{WithCountWindow(8), WithAlgorithm(a)}
				if retain {
					opts = append(opts, WithTextRetention())
				}
				e := newEngine(t, opts...)
				const q = QueryID(1000)
				if err := e.RegisterWithID(q, "solar turbine", 2); err != nil {
					t.Fatal(err)
				}
				for i, text := range []string{"solar turbine output", "turbine blades", "solar panels"} {
					if _, err := e.IngestText(text, at(i)); err != nil {
						t.Fatal(err)
					}
				}
				if got := e.Results(q); len(got) != 2 || (got[0].Text != "") != retain {
					t.Fatalf("Results = %v", got)
				}
				if got := testing.AllocsPerRun(200, func() { e.Results(q) }); got != 1 {
					t.Errorf("Results allocates %.2f times per call, want 1", got)
				}
				if got := testing.AllocsPerRun(200, func() { e.QueryText(q) }); got != 0 {
					t.Errorf("QueryText allocates %.2f times per call, want 0", got)
				}
			})
		}
	}
}

func testReadsAcquireNoEngineLock(t *testing.T, a Algorithm) {
	e := newEngine(t, WithCountWindow(8), WithTextRetention(), WithAlgorithm(a))
	q, err := e.Register("solar turbine", 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.IngestText("solar turbine output", at(0)); err != nil {
		t.Fatal(err)
	}

	e.mu.Lock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if got := e.Results(q); len(got) != 1 || got[0].Text == "" {
			t.Errorf("Results under held lock = %v", got)
		}
		if all := e.ResultsAll(); len(all) != 1 || all[0].Query != q {
			t.Errorf("ResultsAll under held lock = %v", all)
		}
		if e.WindowLen() != 1 || e.Queries() != 1 || e.DictionarySize() == 0 {
			t.Errorf("scalar reads under held lock: window=%d queries=%d dict=%d",
				e.WindowLen(), e.Queries(), e.DictionarySize())
		}
		if s := e.Stats(); s.Arrivals != 1 {
			t.Errorf("Stats under held lock = %+v", s)
		}
		if text, ok := e.QueryText(q); !ok || text != "solar turbine" {
			t.Errorf("QueryText under held lock = %q, %v", text, ok)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("reads blocked on the engine lock")
	}
	e.mu.Unlock()
}

// TestConcurrentReadersSeeEpochBoundaries hammers Results (and a
// toggling Watch) from reader goroutines while a writer drives epochs,
// under -race in CI. Every view a reader observes must correspond to
// some epoch boundary the writer actually published — no torn reads —
// and the publication sequence each reader observes must be monotonic.
func TestConcurrentReadersSeeEpochBoundaries(t *testing.T) {
	const (
		B       = 8
		epochs  = 120
		readers = 4
	)
	e := newEngine(t, WithCountWindow(6), WithShards(2))
	defer e.Close()
	queries := []string{"crude oil", "tanker export market", "refinery barrel price"}
	var qids []QueryID
	for _, q := range queries {
		id, err := e.Register(q, 2)
		if err != nil {
			t.Fatal(err)
		}
		qids = append(qids, id)
	}

	// boundaries records, per query, every result signature published at
	// an epoch boundary. The writer is the only goroutine driving
	// epochs, so its own post-flush reads are exactly the boundary
	// states.
	sig := func(ms []Match) string {
		s := ""
		for _, m := range ms {
			s += fmt.Sprintf("%d:%g;", m.Doc, m.Score)
		}
		return s
	}
	boundaries := make([]sync.Map, len(qids)) // signature → true
	record := func() {
		for i, id := range qids {
			boundaries[i].Store(sig(e.Results(id)), true)
		}
	}
	record() // initial boundary (registration)

	var stop atomic.Bool
	var wg sync.WaitGroup
	type observation struct {
		query int
		sig   string
	}
	observed := make([][]observation, readers)
	// The writer starts once every reader is reading: epochs without
	// handoffs to other goroutines can finish before a reader is first
	// scheduled.
	var reading sync.WaitGroup
	reading.Add(readers)
	for r := 0; r < readers; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastSeq uint64
			for i := 0; !stop.Load(); i++ {
				if i == 1 {
					reading.Done()
				}
				ps := e.pub.Load()
				if ps.seq < lastSeq {
					t.Errorf("reader %d: publication sequence went backwards: %d after %d", r, ps.seq, lastSeq)
					return
				}
				lastSeq = ps.seq
				qi := (i + r) % len(qids)
				observed[r] = append(observed[r], observation{qi, sig(e.Results(qids[qi]))})
			}
		}()
	}
	// One goroutine toggles a watcher while epochs flow, exercising the
	// Watch/Unwatch path against concurrent publication.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			if err := e.Watch(qids[0], func(Delta) {}); err != nil {
				t.Errorf("watch: %v", err)
				return
			}
			e.Unwatch(qids[0])
		}
	}()

	reading.Wait()
	texts := feedTexts(B * epochs)
	for i := 0; i < epochs; i++ {
		items := make([]TimedText, B)
		for j := 0; j < B; j++ {
			items[j] = TimedText{Text: texts[i*B+j], At: at((i*B + j) * 10)}
		}
		if _, err := e.IngestBatch(items); err != nil {
			t.Fatal(err)
		}
		record()
	}
	stop.Store(true)
	wg.Wait()

	for r, obs := range observed {
		if len(obs) == 0 {
			t.Fatalf("reader %d made no observations", r)
		}
		for _, o := range obs {
			if _, ok := boundaries[o.query].Load(o.sig); !ok {
				t.Fatalf("reader %d observed a state of query %d that was never an epoch boundary: %q",
					r, o.query, o.sig)
			}
		}
	}
}
