package ita

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ita/internal/model"
)

func TestWatchUnknownQuery(t *testing.T) {
	e := newEngine(t, WithCountWindow(5))
	if err := e.Watch(42, func(Delta) {}); err == nil {
		t.Fatal("watch on unknown query succeeded")
	}
}

func TestWatchDeliversEntries(t *testing.T) {
	e := newEngine(t, WithCountWindow(5), WithTextRetention())
	q, err := e.Register("solar turbine", 2)
	if err != nil {
		t.Fatal(err)
	}
	var got []Delta
	if err := e.Watch(q, func(d Delta) { got = append(got, d) }); err != nil {
		t.Fatal(err)
	}

	if _, err := e.IngestText("the weather was mild", at(0)); err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("irrelevant arrival produced delta: %+v", got)
	}

	id, err := e.IngestText("a new solar turbine array", at(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("deltas = %+v, want 1", got)
	}
	d := got[0]
	if d.Query != q || len(d.Entered) != 1 || d.Entered[0].Doc != id || len(d.Exited) != 0 {
		t.Fatalf("delta = %+v", d)
	}
	if d.Entered[0].Text == "" {
		t.Fatal("entered match missing retained text")
	}
}

func TestWatchDeliversExits(t *testing.T) {
	e := newEngine(t, WithCountWindow(2))
	q, err := e.Register("solar turbine", 2)
	if err != nil {
		t.Fatal(err)
	}
	id, err := e.IngestText("solar turbine output rose", at(0))
	if err != nil {
		t.Fatal(err)
	}
	var got []Delta
	if err := e.Watch(q, func(d Delta) { got = append(got, d) }); err != nil {
		t.Fatal(err)
	}
	// Two unrelated docs push the match out of the 2-doc window.
	if _, err := e.IngestText("markets were calm", at(5)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.IngestText("a quiet day in parliament", at(10)); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("deltas = %+v, want exactly 1 (the exit)", got)
	}
	if len(got[0].Exited) != 1 || got[0].Exited[0] != id || len(got[0].Entered) != 0 {
		t.Fatalf("delta = %+v", got[0])
	}
}

func TestWatchOnAdvanceExpiry(t *testing.T) {
	e := newEngine(t, WithTimeWindow(50*time.Millisecond))
	q, err := e.Register("breaking story", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.IngestText("a breaking story develops", at(0)); err != nil {
		t.Fatal(err)
	}
	var got []Delta
	if err := e.Watch(q, func(d Delta) { got = append(got, d) }); err != nil {
		t.Fatal(err)
	}
	if err := e.Advance(at(100)); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || len(got[0].Exited) != 1 {
		t.Fatalf("deltas = %+v", got)
	}
}

func TestWatchCallbackMayReenterEngine(t *testing.T) {
	e := newEngine(t, WithCountWindow(5))
	q, err := e.Register("solar turbine", 1)
	if err != nil {
		t.Fatal(err)
	}
	fired := false
	if err := e.Watch(q, func(d Delta) {
		fired = true
		// Re-entrancy: reading results inside the callback must not
		// deadlock.
		_ = e.Results(q)
		_ = e.Stats()
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.IngestText("solar turbine blades", at(0)); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("watch never fired")
	}
}

func TestUnwatch(t *testing.T) {
	e := newEngine(t, WithCountWindow(5))
	q, err := e.Register("solar turbine", 1)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	if err := e.Watch(q, func(Delta) { calls++ }); err != nil {
		t.Fatal(err)
	}
	if !e.Unwatch(q) {
		t.Fatal("Unwatch failed")
	}
	if e.Unwatch(q) {
		t.Fatal("double Unwatch succeeded")
	}
	if _, err := e.IngestText("solar turbine", at(0)); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatal("unwatched callback fired")
	}
}

func TestWatchReplacesPrevious(t *testing.T) {
	e := newEngine(t, WithCountWindow(5))
	q, err := e.Register("solar turbine", 1)
	if err != nil {
		t.Fatal(err)
	}
	var a, b int
	if err := e.Watch(q, func(Delta) { a++ }); err != nil {
		t.Fatal(err)
	}
	if err := e.Watch(q, func(Delta) { b++ }); err != nil {
		t.Fatal(err)
	}
	if _, err := e.IngestText("solar turbine", at(0)); err != nil {
		t.Fatal(err)
	}
	if a != 0 || b != 1 {
		t.Fatalf("a=%d b=%d, want 0/1", a, b)
	}
}

func TestWatchDroppedWithUnregister(t *testing.T) {
	e := newEngine(t, WithCountWindow(5))
	q, err := e.Register("solar turbine", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Watch(q, func(Delta) { t.Fatal("fired after unregister") }); err != nil {
		t.Fatal(err)
	}
	e.Unregister(q)
	if _, err := e.IngestText("solar turbine", at(0)); err != nil {
		t.Fatal(err)
	}
}

// TestWatchDeliveryOrder checks the documented guarantee that one
// epoch's deltas are delivered in ascending query id, regardless of
// registration or watch order.
func TestWatchDeliveryOrder(t *testing.T) {
	e := newEngine(t, WithCountWindow(8))
	var qids []QueryID
	for _, text := range []string{"solar turbine", "turbine blades", "solar panels", "turbine output", "solar farming"} {
		q, err := e.Register(text, 2)
		if err != nil {
			t.Fatal(err)
		}
		qids = append(qids, q)
	}
	var order []QueryID
	// Watch in reverse registration order: delivery must still be by id.
	for i := len(qids) - 1; i >= 0; i-- {
		if err := e.Watch(qids[i], func(d Delta) { order = append(order, d.Query) }); err != nil {
			t.Fatal(err)
		}
	}
	// One epoch that matches every query.
	var batch []TimedText
	for i := 0; i < 4; i++ {
		batch = append(batch, TimedText{Text: "solar turbine blades panels output farming", At: at(i)})
	}
	if _, err := e.IngestBatch(batch); err != nil {
		t.Fatal(err)
	}
	if len(order) != len(qids) {
		t.Fatalf("delivered %d deltas, want %d", len(order), len(qids))
	}
	for i := 1; i < len(order); i++ {
		if order[i-1] >= order[i] {
			t.Fatalf("delivery order %v not ascending by query id", order)
		}
	}
}

// TestWatchPanicDoesNotWedgeDelivery checks that a panicking callback
// (recovered by the caller, as net/http handlers do) does not leave the
// delivery drainer marked busy forever — later deltas must still fire.
func TestWatchPanicDoesNotWedgeDelivery(t *testing.T) {
	e := newEngine(t, WithCountWindow(5))
	q, err := e.Register("solar turbine", 1)
	if err != nil {
		t.Fatal(err)
	}
	panicked := false
	var delivered int
	if err := e.Watch(q, func(Delta) {
		delivered++
		if !panicked {
			panicked = true
			panic("watcher bug")
		}
	}); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() { _ = recover() }()
		_, _ = e.IngestText("solar turbine output", at(0))
	}()
	if !panicked {
		t.Fatal("first delta never fired")
	}
	// A pure-match document displaces the top-1, forcing a second delta.
	if _, err := e.IngestText("solar turbine", at(10)); err != nil {
		t.Fatal(err)
	}
	if delivered != 2 {
		t.Fatalf("delivered %d deltas, want 2 (delivery wedged after panic)", delivered)
	}
}

func TestWatchDisplacementProducesEnterAndExit(t *testing.T) {
	e := newEngine(t, WithCountWindow(10))
	q, err := e.Register("turbine", 1) // top-1: displacement swaps the slot
	if err != nil {
		t.Fatal(err)
	}
	weak, err := e.IngestText("one turbine among many other words entirely unrelated", at(0))
	if err != nil {
		t.Fatal(err)
	}
	var got []Delta
	if err := e.Watch(q, func(d Delta) { got = append(got, d) }); err != nil {
		t.Fatal(err)
	}
	strong, err := e.IngestText("turbine turbine turbine", at(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("deltas = %+v", got)
	}
	d := got[0]
	if len(d.Entered) != 1 || d.Entered[0].Doc != strong {
		t.Fatalf("entered = %+v, want doc %d", d.Entered, strong)
	}
	if len(d.Exited) != 1 || d.Exited[0] != weak {
		t.Fatalf("exited = %+v, want doc %d", d.Exited, weak)
	}
}

// TestWatchPanicKeepsBatchTail pins the delivery-loss fix: when one
// epoch produces deltas for several watchers and an early watcher
// panics, the deltas after it must survive. collectDeltas has already
// advanced those watchers' cursors, so if the batch tail were dropped
// with the panic the later watchers would simply never learn about the
// epoch — the next delta would silently diff from a boundary they never
// saw.
func TestWatchPanicKeepsBatchTail(t *testing.T) {
	e := newEngine(t, WithCountWindow(5))
	q1, err := e.Register("solar", 1)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := e.Register("turbine", 1)
	if err != nil {
		t.Fatal(err)
	}
	// Deltas deliver in ascending query id: q1's panicking watcher runs
	// before q2's in the same batch.
	if err := e.Watch(q1, func(Delta) { panic("watcher bug") }); err != nil {
		t.Fatal(err)
	}
	var got []Delta
	if err := e.Watch(q2, func(d Delta) { got = append(got, d) }); err != nil {
		t.Fatal(err)
	}
	func() {
		// The panic unwinds out of IngestText itself (delivery runs
		// inside the call), so the returned id never lands; the entered
		// document is read back from the boundary result instead.
		defer func() {
			if recover() == nil {
				t.Fatal("watcher panic did not propagate")
			}
		}()
		_, _ = e.IngestText("solar turbine", at(0))
	}()
	res := e.Results(q2)
	if len(res) != 1 {
		t.Fatalf("q2 boundary result = %+v", res)
	}
	id := res[0].Doc
	// The tail is re-enqueued, not delivered inside the panicking drain;
	// the next engine operation drains it, in order, before its own
	// deltas.
	if _, err := e.IngestText("entirely unrelated weather words", at(5)); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("q2 deltas = %+v, want the one delta its sibling's panic tried to eat", got)
	}
	if got[0].Query != q2 || len(got[0].Entered) != 1 || got[0].Entered[0].Doc != id {
		t.Fatalf("q2 delta = %+v, want entry of doc %d", got[0], id)
	}
}

// TestWatchBaselineIsPublishedBoundary pins the Watch baseline to the
// published boundary view. For publishing engines the boundary result
// is the frozen slice collectDeltas itself diffs against, so the stored
// baseline must alias it — a baseline read from the live inner state is
// a different allocation, and (on a follower applying a chunk that
// stopped short of its epoch marker) a different, mid-epoch value.
func TestWatchBaselineIsPublishedBoundary(t *testing.T) {
	e := newEngine(t, WithCountWindow(8))
	q, err := e.Register("solar turbine", 2)
	if err != nil {
		t.Fatal(err)
	}
	first, err := e.IngestText("solar turbine array", at(0))
	if err != nil {
		t.Fatal(err)
	}
	var got []Delta
	if err := e.Watch(q, func(d Delta) { got = append(got, d) }); err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	ws := e.watches[q]
	bound, ok := e.boundaryResultLocked(q)
	e.mu.Unlock()
	if !ok || len(bound) == 0 {
		t.Fatalf("published boundary result missing: %v %v", bound, ok)
	}
	if len(ws.last) != len(bound) || &ws.last[0] != &bound[0] {
		t.Fatalf("watch baseline is not the published boundary slice: %v vs %v", ws.last, bound)
	}
	if ws.last[0].Doc != first {
		t.Fatalf("baseline = %+v, want the published boundary {doc %d}", ws.last, first)
	}
	// The next epoch must deliver exactly the boundary-to-boundary
	// difference.
	second, err := e.IngestText("solar panel field", at(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || len(got[0].Entered) != 1 || got[0].Entered[0].Doc != second || len(got[0].Exited) != 0 {
		t.Fatalf("deltas = %+v, want a single entry of doc %d", got, second)
	}
}

// TestWatchChurnRacesFlushes hammers Watch/Unwatch from several
// goroutines while IngestBatch calls commit epochs of 8 and deliver
// deltas. Run under -race; the assertions are the race detector's plus
// the engine surviving with a consistent final state.
func TestWatchChurnRacesFlushes(t *testing.T) {
	e := newEngine(t, WithCountWindow(32))
	var ids []QueryID
	for _, text := range []string{"solar turbine", "oil tanker", "grid storage", "crude futures"} {
		id, err := e.Register(text, 2)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := ids[w%len(ids)]
			var n atomic.Int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := e.Watch(id, func(Delta) { n.Add(1) }); err != nil {
					t.Errorf("watch %d: %v", id, err)
					return
				}
				e.Unwatch(id)
			}
		}(w)
	}
	texts := []string{"solar turbine output", "oil tanker docked", "grid storage demand", "crude futures price"}
	for i := 0; i < 400; i += 8 {
		batch := make([]TimedText, 8)
		for j := range batch {
			batch[j] = TimedText{Text: texts[(i+j)%len(texts)], At: at(i + j)}
		}
		if _, err := e.IngestBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	for _, id := range ids {
		if res := e.Results(id); len(res) == 0 {
			t.Fatalf("query %d lost its results under churn", id)
		}
	}
}

// quiesceDelivery waits until the delivery queue is drained and no
// drainer is active. After it returns, every delta enqueued so far has
// either been delivered or suppressed; nothing is in flight.
func quiesceDelivery(e *Engine) {
	for {
		e.dmu.Lock()
		idle := !e.delivering && len(e.deliveryQ) == 0
		e.dmu.Unlock()
		if idle {
			return
		}
		runtime.Gosched()
	}
}

// TestUnwatchSuppressesQueuedDelta pins the delivery-after-Unwatch fix
// deterministically. One epoch produces deltas for q1 and q2; they are
// queued together and delivered in ascending id, so q1's callback runs
// while q2's delta is still sitting in the batch. Unwatching q2 from
// inside q1's callback must suppress that queued delta: with the old
// capture-the-callback queue it fired anyway, after Unwatch returned.
func TestUnwatchSuppressesQueuedDelta(t *testing.T) {
	e := newEngine(t, WithCountWindow(8))
	q1, err := e.Register("solar", 1)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := e.Register("turbine", 1)
	if err != nil {
		t.Fatal(err)
	}
	unwatched := false
	if err := e.Watch(q1, func(Delta) {
		if !e.Unwatch(q2) {
			t.Error("Unwatch(q2) found no watcher")
		}
		unwatched = true
	}); err != nil {
		t.Fatal(err)
	}
	q2fired := 0
	if err := e.Watch(q2, func(Delta) { q2fired++ }); err != nil {
		t.Fatal(err)
	}
	// One epoch matching both queries: the batch is [q1 delta, q2 delta].
	if _, err := e.IngestText("solar turbine", at(0)); err != nil {
		t.Fatal(err)
	}
	if !unwatched {
		t.Fatal("q1 watcher never fired")
	}
	if q2fired != 0 {
		t.Fatalf("q2 callback fired %d times after Unwatch returned", q2fired)
	}
}

// TestWatchReplaceSuppressesQueuedDelta is the re-Watch flavour: a
// replacing Watch detaches the previous watcher, so a delta queued for
// the old callback must not invoke it once Watch has returned. The new
// watcher's baseline is the already-published boundary, so it receives
// nothing for the epoch that was in flight either — only for later
// changes.
func TestWatchReplaceSuppressesQueuedDelta(t *testing.T) {
	e := newEngine(t, WithCountWindow(8))
	q1, err := e.Register("solar", 1)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := e.Register("turbine", 1)
	if err != nil {
		t.Fatal(err)
	}
	var newDeltas []Delta
	if err := e.Watch(q1, func(Delta) {
		if err := e.Watch(q2, func(d Delta) { newDeltas = append(newDeltas, d) }); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	oldFired := 0
	if err := e.Watch(q2, func(Delta) { oldFired++ }); err != nil {
		t.Fatal(err)
	}
	if _, err := e.IngestText("solar turbine", at(0)); err != nil {
		t.Fatal(err)
	}
	if oldFired != 0 {
		t.Fatalf("replaced q2 callback fired %d times after re-Watch returned", oldFired)
	}
	if len(newDeltas) != 0 {
		t.Fatalf("replacement watcher got the in-flight epoch's delta: %+v", newDeltas)
	}
	// The replacement watcher is live for subsequent epochs.
	displacer, err := e.IngestText("turbine turbine turbine", at(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(newDeltas) != 1 || len(newDeltas[0].Entered) != 1 || newDeltas[0].Entered[0].Doc != displacer {
		t.Fatalf("replacement watcher deltas = %+v, want entry of doc %d", newDeltas, displacer)
	}
}

// TestWatchQuiescedUnwatchNeverFiresLate churns Watch/Unwatch against a
// concurrent ingester under -race, asserting the strongest sound form of
// the Unwatch guarantee: once Unwatch has returned AND in-flight
// delivery has quiesced, the detached callback can never fire again.
func TestWatchQuiescedUnwatchNeverFiresLate(t *testing.T) {
	e := newEngine(t, WithCountWindow(16))
	q, err := e.Register("solar turbine", 4)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		texts := []string{
			"solar turbine output rose", "a quiet day", "turbine blades spin",
			"solar panel field", "markets were calm", "solar turbine array",
		}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := e.IngestText(texts[i%len(texts)], at(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	iters := 300
	if testing.Short() {
		iters = 50
	}
	for i := 0; i < iters; i++ {
		var detached atomic.Bool
		if err := e.Watch(q, func(Delta) {
			if detached.Load() {
				t.Error("delta delivered after Unwatch returned and delivery quiesced")
			}
		}); err != nil {
			t.Fatal(err)
		}
		runtime.Gosched()
		e.Unwatch(q)
		quiesceDelivery(e)
		detached.Store(true)
	}
	close(stop)
	wg.Wait()
}

// TestWatchDiffReusesScratch asserts the steady state of a watched query
// — an epoch boundary where the result did not change — performs zero
// allocations in the diff, by reusing the watcher's scratch sets instead
// of building two fresh maps per query per epoch.
func TestWatchDiffReusesScratch(t *testing.T) {
	prev := []model.ScoredDoc{{Doc: 1, Score: 0.9}, {Doc: 2, Score: 0.5}, {Doc: 3, Score: 0.1}}
	cur := []model.ScoredDoc{{Doc: 1, Score: 0.9}, {Doc: 2, Score: 0.5}, {Doc: 3, Score: 0.1}}
	ws := &watchState{last: prev}
	allocs := testing.AllocsPerRun(200, func() {
		d := ws.diff(7, cur, nil)
		if len(d.Entered) != 0 || len(d.Exited) != 0 {
			t.Fatalf("unexpected delta: %+v", d)
		}
	})
	if allocs != 0 {
		t.Fatalf("diff of an unchanged result allocates %.1f times per epoch, want 0", allocs)
	}
}
