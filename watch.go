package ita

import (
	"fmt"
	"sort"
	"sync/atomic"

	"ita/internal/model"
)

// Delta describes how one query's result changed across one epoch — an
// Advance call, or an ingest epoch (one IngestText or IngestBatch call,
// or a group of concurrent ones that committed together). Entered lists documents newly present in the
// top-k, in result order; Exited lists documents that left it (by
// expiring or by being displaced).
//
// Delivery guarantee: watchers receive at most one delta per query per
// epoch, the net difference between the query's result at consecutive
// epoch boundaries. Intermediate states inside an epoch are never
// delivered — a document that enters and leaves the top-k within one
// epoch produces no notification at all, and a burst of arrivals that
// repeatedly reshuffles a result produces a single coalesced delta
// instead of one per event. Deltas of one epoch are delivered in
// ascending query id, after the triggering call released the engine
// lock; consecutive epochs deliver in epoch order even when different
// goroutines commit them (concurrent writers cannot reorder a watcher's
// view).
type Delta struct {
	Query   QueryID
	Entered []Match
	Exited  []DocID
}

// WatchFunc receives result deltas. It is invoked synchronously after
// the triggering call releases the engine lock; it may call back into
// the Engine.
type WatchFunc func(Delta)

type watchState struct {
	fn   WatchFunc
	last []model.ScoredDoc
	// gone is set (under e.mu) when the watcher is removed or replaced.
	// deliverBatch re-checks it immediately before each invocation, so a
	// delta that was queued while the watcher was live is suppressed once
	// Unwatch (or a replacing Watch) has returned, instead of invoking a
	// callback the caller already detached. A callback that had already
	// begun when the flag flipped still completes — stopping it would
	// require holding a lock across user code.
	gone atomic.Bool
	// prevSet and curSet are diff scratch, reused across epochs so the
	// steady state (a watched query whose result did not change) performs
	// zero allocations per boundary. Only collectDeltas touches them,
	// under e.mu.
	prevSet, curSet map[model.DocID]bool
}

// diff computes the boundary-to-boundary delta from ws.last to cur.
// Must be called with e.mu held (it mutates the watcher's scratch sets).
func (ws *watchState) diff(id QueryID, cur []model.ScoredDoc, texts *textRing) Delta {
	if ws.prevSet == nil {
		ws.prevSet = make(map[model.DocID]bool, len(ws.last)+1)
		ws.curSet = make(map[model.DocID]bool, len(cur)+1)
	} else {
		clear(ws.prevSet)
		clear(ws.curSet)
	}
	for _, d := range ws.last {
		ws.prevSet[d.Doc] = true
	}
	delta := Delta{Query: id}
	for _, d := range cur {
		ws.curSet[d.Doc] = true
		if !ws.prevSet[d.Doc] {
			m := Match{Doc: d.Doc, Score: d.Score}
			if texts != nil {
				m.Text = texts.get(d.Doc)
			}
			delta.Entered = append(delta.Entered, m)
		}
	}
	for _, d := range ws.last {
		if !ws.curSet[d.Doc] {
			delta.Exited = append(delta.Exited, d.Doc)
		}
	}
	return delta
}

// Watch subscribes fn to result changes of query id. The continuous
// query model makes this the natural alerting primitive: the paper's
// security analyst wants the moment an email enters a threat profile's
// top-k, not a poll loop. One watcher per query; watching again
// replaces the previous watcher.
func (e *Engine) Watch(id QueryID, fn WatchFunc) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	// The baseline is the last published boundary — the same source
	// collectDeltas diffs against. Reading the live inner result here
	// would baseline a watcher registered mid-epoch (say, on a follower
	// whose replicated chunk stopped short of the epoch marker) on an
	// in-epoch transient, and the transient-to-boundary difference
	// would be lost from its delta stream.
	cur, ok := e.boundaryResultLocked(id)
	if !ok {
		return fmt.Errorf("ita: watch: unknown query %d", id)
	}
	if e.watches == nil {
		e.watches = make(map[QueryID]*watchState)
	}
	// Replacing a watcher tombstones the old state so any of its deltas
	// still sitting in the delivery queue are dropped rather than invoking
	// the superseded callback after this call returns.
	e.dropWatchLocked(id)
	e.watches[id] = &watchState{fn: fn, last: cur}
	return nil
}

// Unwatch removes the watcher of query id, reporting whether one
// existed. Deltas already queued for the watcher but not yet delivered
// are discarded; a callback that was already executing when Unwatch was
// called may still complete concurrently.
func (e *Engine) Unwatch(id QueryID) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.dropWatchLocked(id)
}

// dropWatchLocked removes and tombstones the watcher of query id,
// reporting whether one existed. Every removal path (Unwatch, a
// replacing Watch, unregister, a diff against a vanished query) funnels
// through here so the delivery queue's identity check stays in force.
// Must be called with e.mu held.
func (e *Engine) dropWatchLocked(id QueryID) bool {
	ws, ok := e.watches[id]
	if !ok {
		return false
	}
	ws.gone.Store(true)
	delete(e.watches, id)
	return true
}

// collectDeltas publishes the boundary just reached to wait-free
// readers, then compares every watched query's current result against
// the last delivered one and returns the non-empty deltas along with
// their callbacks, in ascending query id so an epoch's notifications
// are delivered deterministically. Every mutating operation funnels
// through here, which is what keeps the published views and the watch
// stream in lockstep: both observe exactly the epoch boundaries,
// never in-epoch transients. Must be called with e.mu held.
func (e *Engine) collectDeltas() []pendingDelta {
	e.publishLocked()
	if len(e.watches) == 0 {
		return nil
	}
	var out []pendingDelta
	for id, ws := range e.watches {
		cur, ok := e.boundaryResultLocked(id)
		if !ok {
			// Query unregistered out from under the watch; drop it.
			e.dropWatchLocked(id)
			continue
		}
		delta := ws.diff(id, cur, e.texts)
		if len(delta.Entered) == 0 && len(delta.Exited) == 0 {
			continue
		}
		ws.last = cur
		out = append(out, pendingDelta{ws: ws, delta: delta})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].delta.Query < out[j].delta.Query })
	return out
}

// pendingDelta references the watcher itself rather than capturing its
// callback: capturing fn at enqueue time is precisely the
// delivery-after-Unwatch bug — a queued delta would invoke a callback
// the caller had already detached. Delivery re-resolves liveness through
// ws.gone at invocation time instead.
type pendingDelta struct {
	ws    *watchState
	delta Delta
}

// boundaryResultLocked reads a query's result at the just-published
// boundary. It borrows the frozen view directly — no copy, since both
// the published slice and ws.last are immutable. Must be called with
// e.mu held, after publishLocked.
func (e *Engine) boundaryResultLocked(id QueryID) ([]model.ScoredDoc, bool) {
	f, ok := e.pub.Load().reader.Result(id)
	if !ok {
		return nil, false
	}
	return f.Docs, true
}

// queueDeltasLocked appends one epoch's deltas to the delivery queue.
// Must be called with e.mu held: e.mu serializes epochs, so enqueueing
// under it keeps the queue in epoch order even when several goroutines
// (say, concurrent writers) commit epochs concurrently.
func (e *Engine) queueDeltasLocked(deltas []pendingDelta) {
	if len(deltas) == 0 {
		return
	}
	e.dmu.Lock()
	e.deliveryQ = append(e.deliveryQ, deltas...)
	e.dmu.Unlock()
}

// deliverQueued drains the delivery queue, invoking watch callbacks in
// queue (epoch) order. Only one goroutine drains at a time; a second
// caller finding a drain in progress leaves its deltas for the active
// drainer, which loops until the queue is empty — this is what makes
// the cross-epoch delivery order a real guarantee under concurrent
// writers, not just within one goroutine. Must be called without e.mu
// held; callbacks run with no engine locks held and may re-enter the
// engine (a re-entrant ingest simply enqueues for the active drainer).
func (e *Engine) deliverQueued() {
	for {
		e.dmu.Lock()
		if e.delivering || len(e.deliveryQ) == 0 {
			e.dmu.Unlock()
			return
		}
		e.delivering = true
		batch := e.deliveryQ
		e.deliveryQ = nil
		e.dmu.Unlock()
		e.deliverBatch(batch)
	}
}

// deliverBatch invokes one drained batch's callbacks. The drainer flag
// is released via defer so a panicking callback (possibly recovered
// upstream, e.g. by net/http) cannot wedge delivery for the rest of the
// engine's life; the panic itself still propagates. The deltas after
// the panicking one are pushed back to the front of the queue first:
// collectDeltas already advanced their watchers' cursors when it
// produced them, so dropping them here would silently lose
// notifications — the next epoch would diff against a boundary those
// watchers never saw.
func (e *Engine) deliverBatch(batch []pendingDelta) {
	i := 0
	defer func() {
		e.dmu.Lock()
		e.delivering = false
		if i < len(batch) {
			// Panicked at batch[i]: that delta's callback ran (partially);
			// re-enqueueing it would break at-most-once-per-epoch, so only
			// the untouched tail goes back. Prepending keeps epoch order
			// ahead of anything queued during this drain; the full-slice
			// expression forces a fresh array so the append cannot
			// scribble over batch's backing storage.
			e.deliveryQ = append(batch[i+1:len(batch):len(batch)], e.deliveryQ...)
		}
		e.dmu.Unlock()
	}()
	for ; i < len(batch); i++ {
		if batch[i].ws.gone.Load() {
			continue
		}
		batch[i].ws.fn(batch[i].delta)
	}
}
