package ita

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ita/internal/wal"
)

// queuedWriters reports how many IngestBatch calls wait in the group
// commit queue.
func (e *Engine) queuedWriters() int {
	e.qmu.Lock()
	defer e.qmu.Unlock()
	return len(e.queue)
}

// waitQueued polls until n writers are queued behind the lock the test
// holds.
func waitQueued(t *testing.T, e *Engine, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for e.queuedWriters() < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d writers queued after 10s", e.queuedWriters(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGroupCommitSharesOneEpoch queues eight IngestText writers behind
// the engine lock, plus a ninth whose arrival time regresses, then lets
// them go: the eight commit as one KindBatch record of eight items with
// one epoch marker and one publication, their ids are contiguous in
// queue order, every watched query sees one delta, and the ninth fails
// alone.
func TestGroupCommitSharesOneEpoch(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir, WithCountWindow(32), WithDurability(DurabilityEpochSync), WithCheckpointEvery(0))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	queries := []string{"solar turbine", "writer"}
	deltas := make([]int, len(queries))
	for i, text := range queries {
		q, err := e.Register(text, 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Watch(q, func(Delta) { deltas[i]++ }); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.IngestText("a quiet opening day", at(100)); err != nil {
		t.Fatal(err)
	}

	e.mu.Lock()
	off := e.wal.log.Offset()
	seq := e.pub.Load().seq
	const writers = 8
	texts := make([]string, writers+1)
	ids := make([]DocID, writers+1)
	errs := make([]error, writers+1)
	var wg sync.WaitGroup
	for i := range texts {
		texts[i] = fmt.Sprintf("solar turbine writer %d", i)
		when := at(100)
		if i == writers {
			when = at(50) // precedes the clock: fails alone
		}
		wg.Add(1)
		go func(i int, when time.Time) {
			defer wg.Done()
			ids[i], errs[i] = e.IngestText(texts[i], when)
		}(i, when)
	}
	waitQueued(t, e, writers+1)
	order := map[string]int{} // text → queue position among the writers that commit
	e.qmu.Lock()
	for _, r := range e.queue {
		if r.items[0].At.Equal(at(100)) {
			order[r.items[0].Text] = len(order)
		}
	}
	e.qmu.Unlock()
	e.mu.Unlock()
	wg.Wait()

	if !errors.Is(errs[writers], ErrTimeRegression) {
		t.Fatalf("regressing writer: err %v, want ErrTimeRegression", errs[writers])
	}
	first := ids[0] - DocID(order[texts[0]])
	for i := 0; i < writers; i++ {
		if errs[i] != nil {
			t.Fatalf("writer %d: %v", i, errs[i])
		}
		if want := first + DocID(order[texts[i]]); ids[i] != want {
			t.Fatalf("writer %d (queue position %d) got id %d, want %d", i, order[texts[i]], ids[i], want)
		}
	}
	if got := e.pub.Load().seq - seq; got != 1 {
		t.Fatalf("group published %d times, want 1", got)
	}
	for i, n := range deltas {
		// The opening document matches neither query; the group is one
		// epoch, so one delta each.
		if n != 1 {
			t.Fatalf("query %q got %d deltas, want 1", queries[i], n)
		}
	}

	data, err := os.ReadFile(wal.SegmentPath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	res := wal.Scan(data[off:])
	var batches, markers int
	for _, rec := range res.Records {
		switch rec.Kind {
		case wal.KindBatch:
			batches++
			if len(rec.Items) != writers || DocID(rec.Doc) != first {
				t.Fatalf("group record holds %d items from doc %d, want %d from %d", len(rec.Items), rec.Doc, writers, first)
			}
			for j, it := range rec.Items {
				if order[it.Text] != j {
					t.Fatalf("record item %d is %q, queued at %d", j, it.Text, order[it.Text])
				}
			}
		case wal.KindEpoch:
			markers++
		default:
			t.Fatalf("unexpected record kind %d", rec.Kind)
		}
	}
	if batches != 1 || markers != 1 {
		t.Fatalf("group logged %d batch records and %d markers, want 1 and 1", batches, markers)
	}
}

// TestConcurrentIngestReadsOwnWrite: each writer ingests a document
// carrying its own token and has a query on that token; the moment its
// IngestText returns, Results already holds the document, whichever
// writer committed the group.
func TestConcurrentIngestReadsOwnWrite(t *testing.T) {
	const writers, rounds = 8, 25
	e := newEngine(t, WithCountWindow(writers*rounds), WithShards(2))
	defer e.Close()
	token := func(w int) string { return fmt.Sprintf("zq%cx", 'a'+w) }
	queries := make([]QueryID, writers)
	for w := range queries {
		q, err := e.Register(token(w), rounds)
		if err != nil {
			t.Fatal(err)
		}
		queries[w] = q
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				id, err := e.IngestText(fmt.Sprintf("%s report %d", token(w), r), at(0))
				if err != nil {
					t.Error(err)
					return
				}
				found := false
				for _, m := range e.Results(queries[w]) {
					found = found || m.Doc == id
				}
				if !found {
					t.Errorf("writer %d: doc %d missing from its query's results right after IngestText", w, id)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkIngestConcurrentDurable measures group commit: 1, 2 and 8
// goroutines call IngestText on a durable engine under
// DurabilityEpochSync, where every epoch pays one fsync. It reports
// docs/s and epochs per document, which under EpochSync is fsyncs per
// document.
func BenchmarkIngestConcurrentDurable(b *testing.B) {
	feed := NewNewsFeed(1)
	texts := make([]string, 512)
	for i := range texts {
		_, texts[i] = feed.Mixed()
	}
	for _, writers := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			e, err := Open(b.TempDir(), WithCountWindow(1000), WithDurability(DurabilityEpochSync))
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			for _, topic := range NewsTopics() {
				if _, err := e.Register(topic, 10); err != nil {
					b.Fatal(err)
				}
			}
			e.mu.Lock()
			first := e.wal.epochSeq
			e.mu.Unlock()
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			start := time.Now()
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := next.Add(1) - 1; i < int64(b.N); i = next.Add(1) - 1 {
						// One shared arrival time: writers reach the queue in any
						// order.
						if _, err := e.IngestText(texts[i%int64(len(texts))], at(0)); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			elapsed := time.Since(start)
			b.StopTimer()
			e.mu.Lock()
			epochs := e.wal.epochSeq - first
			e.mu.Unlock()
			b.ReportMetric(float64(b.N)/elapsed.Seconds(), "docs/s")
			b.ReportMetric(float64(epochs)/float64(b.N), "epochs/doc")
		})
	}
}
