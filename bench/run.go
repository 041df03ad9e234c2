package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"ita"
)

// runOpts is what a run needs from its environment.
type runOpts struct {
	server  string // itaserver binary, for HTTP workloads
	scratch string // directory for WAL files, removed by the caller
	out     string // directory for trace files
	corrupt bool   // selftest: damage one canary and one sampled result
	y       *yardstick
}

// runResult is one run's outcome. Notes say why a run is invalid (the
// closed phase drifted, the paced backlog grew) or which operations
// failed.
type runResult struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Invalid   bool               `json:"invalid,omitempty"`
	Notes     []string           `json:"notes,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
}

func (r *runResult) fail(format string, a ...any) {
	r.Failed++
	if len(r.Notes) < 20 {
		r.Notes = append(r.Notes, fmt.Sprintf(format, a...))
	}
}

func (r *runResult) invalid(format string, a ...any) {
	r.Invalid = true
	r.Notes = append(r.Notes, fmt.Sprintf(format, a...))
}

// standing holds the ids a set-up registered.
type standing struct {
	queries  []ita.QueryID
	canaries []ita.QueryID
}

// newTarget builds the empty system a workload runs against.
func newTarget(w workload, opt runOpts) (target, error) {
	if !w.HTTP {
		base := liveHeap()
		e, err := newEngine(w)
		if err != nil {
			return nil, err
		}
		return &engineTarget{e, base}, nil
	}
	walDir, err := os.MkdirTemp(opt.scratch, "wal-")
	if err != nil {
		return nil, err
	}
	return startServer(opt.server, walDir, w.Window)
}

// setUp fills the window, registers the standing and canary queries
// against the full window, and warms up. It is the timed set-up; tick
// runs after every ingest call.
func setUp(tg target, w workload, in *inputs, tick func()) (*standing, error) {
	for from := 0; from < in.plan.fill; from += fillBatch {
		if err := tg.ingest(in.items(from, min(from+fillBatch, in.plan.fill)), nil); err != nil {
			return nil, fmt.Errorf("fill: %w", err)
		}
		tick()
	}
	st := &standing{}
	var err error
	if st.queries, err = registerAll(tg, in.standing); err != nil {
		return nil, err
	}
	if st.canaries, err = registerAll(tg, in.canaries); err != nil {
		return nil, err
	}
	if err := ingestEpochs(tg, in, in.plan.fill, in.plan.fill+in.plan.warm, tick); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return st, nil
}

func registerAll(tg target, texts []string) ([]ita.QueryID, error) {
	ids := make([]ita.QueryID, len(texts))
	for i, text := range texts {
		id, err := tg.register(text, topK)
		if err != nil {
			return nil, fmt.Errorf("register: %w", err)
		}
		ids[i] = id
	}
	return ids, nil
}

// noTick is the tick of a set-up nobody times.
func noTick() {}

// ingestEpochs feeds documents [from, to) in closedBatch-sized epochs,
// calling tick after each.
func ingestEpochs(tg target, in *inputs, from, to int, tick func()) error {
	for ; from < to; from += closedBatch {
		if err := tg.ingest(in.items(from, min(from+closedBatch, to)), nil); err != nil {
			return err
		}
		tick()
	}
	return nil
}

// runEndToEnd is one untraced run: every end-to-end metric of one
// workload, with every output checked. Each phase starts from a forced
// collection, so the collector's cycle does not land differently in
// every run, and carries its own yardstick (see yardstick.go).
func runEndToEnd(w workload, seed int64, opt runOpts) (res *runResult, err error) {
	p := plan{fill: w.Window, warm: w.Warmup, closed: w.ClosedDocs, paced: w.pacedDocs(w.PacedSeconds)}
	in, err := generate(w, p, w.Churn, seed)
	if err != nil {
		return nil, err
	}
	res = &runResult{Metrics: map[string]float64{}}

	// Set up SetupReps times and keep the last: one set-up per run is a
	// single sample of a multi-second operation.
	var tg target
	var st *standing
	var setups []float64
	defer func() {
		if tg != nil {
			err = errors.Join(err, tg.close())
		}
	}()
	for n := 0; n < w.SetupReps; n++ {
		if tg != nil {
			err := tg.close()
			tg = nil // or the next engine's baseline heap would hold this one
			if err != nil {
				return nil, err
			}
		}
		if tg, err = newTarget(w, opt); err != nil {
			return nil, err
		}
		pc := &pace{y: opt.y}
		start := time.Now()
		st, err = setUp(tg, w, in, pc.tick)
		took := time.Since(start).Seconds()
		if err != nil {
			return nil, err
		}
		setups = append(setups, (took-sum(pc.slices))*pc.speed())
	}
	res.Metrics["setup_s"] = median(setups)

	// Closed loop: epochs back to back.
	runtime.GC()
	pc := &pace{y: opt.y}
	from := p.closedStart()
	half := from + p.closed/2/closedBatch*closedBatch
	start := time.Now()
	if err := ingestEpochs(tg, in, from, half, pc.tick); err != nil {
		return nil, fmt.Errorf("closed phase: %w", err)
	}
	mid, firstTicks := time.Now(), sum(pc.slices)
	if err := ingestEpochs(tg, in, half, from+p.closed, pc.tick); err != nil {
		return nil, fmt.Errorf("closed phase: %w", err)
	}
	first := mid.Sub(start).Seconds() - firstTicks
	second := time.Since(mid).Seconds() - (sum(pc.slices) - firstTicks)
	res.Attempted += p.closed
	res.Metrics["ingest_docs_per_s"] = float64(p.closed) / (first + second) / pc.speed()
	if p.closed >= 40*closedBatch {
		drift := (float64(from+p.closed-half) / second) / (float64(half-from) / first)
		if drift < 0.85 || drift > 1.15 {
			res.invalid("closed.drift %.3f outside 0.85–1.15", drift)
		}
	}

	// Gauge memory in the steady state of batched ingest, before the
	// paced phase's single documents leave the posting lists in
	// whatever mix of raw and packed blocks they happen to.
	if res.Metrics["heap_mb"], err = tg.memoryMB(); err != nil {
		return nil, err
	}

	// Open loop, with a reader beside the writer.
	pc = &pace{y: opt.y}
	po, readUS, err := pacedWithReader(tg, in, w, st, seed, pc, opt.corrupt, res)
	if err != nil {
		return nil, err
	}
	res.Metrics["visible_p50_ms"] = percentile(po.visibleMS, 0.50) * pc.speed()
	res.Metrics["read_p50_us"] = percentile(readUS, 0.50) * pc.speed()
	if float64(po.backlogMax) > w.PacedRate {
		res.invalid("paced backlog reached %d documents, over a second of load", po.backlogMax)
	}

	// Query churn against the static window.
	runtime.GC()
	pc = &pace{y: opt.y}
	var registerUS []float64
	for i, text := range in.churn {
		start := time.Now()
		id, err := tg.register(text, topK)
		registerUS = append(registerUS, micros(time.Since(start)))
		if err == nil {
			err = tg.unregister(id)
		}
		if err != nil {
			res.fail("churn: %v", err)
		}
		if i%16 == 0 {
			pc.tick()
		}
	}
	res.Attempted += 2 * len(in.churn)
	res.Metrics["register_p50_us"] = percentile(registerUS, 0.50) * pc.speed()

	// Check.
	sample := sampleQueries(w, st)
	got := make([][]ita.Match, len(sample))
	for i, j := range sample {
		if got[i], err = tg.results(st.queries[j]); err != nil {
			res.fail("read sample: %v", err)
		}
	}
	if dict, err := tg.dictionarySize(); err != nil {
		res.fail("dictionary size: %v", err)
	} else if dict != in.terms {
		res.fail("dictionary holds %d terms, the generator made %d: words and terms are not one to one", dict, in.terms)
	}
	res.Attempted++
	err = tg.close()
	tg = nil
	if err != nil {
		return nil, fmt.Errorf("shut down: %w", err)
	}
	if opt.corrupt {
		corruptOne(got)
	}
	if err := checkAgainstReference(w, in, sample, got, res); err != nil {
		return nil, err
	}
	return res, nil
}

// sampleQueries picks Samples standing queries, evenly spaced.
func sampleQueries(w workload, st *standing) []int {
	n := min(w.Samples, len(st.queries))
	out := make([]int, n)
	for i := range out {
		out[i] = i * len(st.queries) / n
	}
	return out
}

// spinWindow is how long before a document is due the paced writer
// stops sleeping and polls the clock.
const spinWindow = time.Millisecond

// idleForSlice is the shortest wait for the next document in which the
// paced writer runs a yardstick slice.
const idleForSlice = 3 * yardstickNominal

type pacedOutcome struct {
	visibleMS  []float64 // per document: due time → return of the call that published it
	lateMS     []float64 // per sleep: how late the loop woke against its schedule
	backlogMax int
	calls      int
	err        error
}

// pacedPhase is the open loop: document i is due at i/rate after the
// phase starts, whatever the system does. The writer publishes whatever
// is due in one call; a document that waited behind a slow call carries
// that wait in its latency. After the call that carried a canary
// document returns, the canary query must already show it.
func pacedPhase(tg target, in *inputs, rate float64, canaries []ita.QueryID, pc *pace, corrupt bool, res *runResult) pacedOutcome {
	n, first := in.plan.paced, in.plan.pacedStart()
	due := func(i int) time.Duration { return time.Duration(float64(i) / rate * float64(time.Second)) }
	grace := due(n) + time.Second
	out := pacedOutcome{visibleMS: make([]float64, 0, n)}
	canary := 0
	pc.tick() // so that even a phase with no idle gap has a slice
	start := time.Now()
	for i := 0; i < n; {
		now := time.Since(start)
		ready := min(n, int(now.Seconds()*rate)+1) - i
		if ready <= 0 {
			wait := due(i) - now
			// A yardstick slice when the gap leaves room for one.
			if wait > idleForSlice {
				pc.tick()
				continue
			}
			// Sleep most of the way, then spin: the container's timers
			// wake about half a millisecond late, which would otherwise
			// be most of an uncontended document's latency.
			if wait > spinWindow {
				time.Sleep(wait - spinWindow)
			}
			for time.Since(start) < due(i) {
			}
			out.lateMS = append(out.lateMS, millis(time.Since(start)-due(i)))
			continue
		}
		out.backlogMax = max(out.backlogMax, ready)
		batch := min(ready, tg.maxBatch())
		published := i
		out.err = tg.ingest(in.items(first+i, first+i+batch), func(k int) {
			now := time.Since(start)
			if now > grace {
				res.fail("document %d still queued %v after the paced phase", first+published, now-due(n))
			}
			for ; k > 0; k-- {
				out.visibleMS = append(out.visibleMS, millis(now-due(published)))
				published++
			}
		})
		if out.err != nil {
			return out
		}
		out.calls++
		i += batch
		for ; canary < len(canaries) && in.canaryAt[canary] < first+i; canary++ {
			want := ita.DocID(in.canaryAt[canary] + 1)
			if corrupt && canary == 0 {
				want++
			}
			got, err := tg.results(canaries[canary])
			if err != nil || len(got) != 1 || got[0].Doc != want {
				res.fail("canary %d: document %d not visible when its ingest returned (got %v, %v)", canary, want, got, err)
			}
		}
	}
	return out
}

// pacedWithReader runs the paced phase with a second goroutine reading
// results beside the writer, and returns the reads' times in
// microseconds.
func pacedWithReader(tg target, in *inputs, w workload, st *standing, seed int64, pc *pace, corrupt bool, res *runResult) (pacedOutcome, []float64, error) {
	var stop atomic.Bool
	type readOutcome struct {
		us   []float64
		errs []error
	}
	reads := make(chan readOutcome, 1)
	go func() {
		us, errs := readLoop(tg.reader(), st.queries, w.ReadRate, seed, &stop)
		reads <- readOutcome{us, errs}
	}()
	po := pacedPhase(tg, in, w.PacedRate, st.canaries, pc, corrupt, res)
	stop.Store(true)
	rd := <-reads
	if po.err != nil {
		return po, nil, fmt.Errorf("paced phase: %w", po.err)
	}
	for _, err := range rd.errs {
		res.fail("read: %v", err)
	}
	res.Attempted += in.plan.paced + len(st.canaries) + len(rd.us)
	return po, rd.us, nil
}

// readLoop reads a random standing query's result rate times a second
// until stop, timing each call on its own, in microseconds.
func readLoop(read func(ita.QueryID) ([]ita.Match, error), ids []ita.QueryID, rate float64, seed int64, stop *atomic.Bool) (us []float64, errs []error) {
	rng := rand.New(rand.NewSource(seed))
	start := time.Now()
	for k := 0; !stop.Load(); k++ {
		if wait := time.Duration(float64(k)/rate*float64(time.Second)) - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		id := ids[rng.Intn(len(ids))]
		t := time.Now()
		_, err := read(id)
		us = append(us, micros(time.Since(t)))
		if err != nil {
			errs = append(errs, err)
		}
	}
	return us, errs
}

// percentile is the nearest-rank percentile of xs (not sorted in place).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[max(0, int(math.Ceil(p*float64(len(s))))-1)]
}

func median(xs []float64) float64 {
	_, q2, _ := quartiles(xs)
	return q2
}

// Durations as the floating-point units the metrics use.
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
