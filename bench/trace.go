package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"ita"
)

// span is one timed call. Spans nest: a twin's call into the system is
// a root, and the staged twin's layer calls are its children. Spans of
// one call share its epoch number.
type span struct {
	Twin   string `json:"twin"`     // facade, staged, staged-s1 or server
	Phase  string `json:"phase"`    // closed, singles or churn
	Name   string `json:"name"`     // the call, or layer.stage
	Start  int64  `json:"start_ns"` // since the traced pass began
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span in the file, -1 for a root
	Epoch  int    `json:"epoch"`
	Docs   int    `json:"docs"` // documents the call carried
}

// tracer keeps spans in memory until the pass ends. One goroutine uses it.
type tracer struct {
	start       time.Time
	spans       []span
	twin, phase string
	epoch       int
	open        int // innermost open span, -1 for none
}

func newTracer() *tracer { return &tracer{start: time.Now(), open: -1} }

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string, docs int) int {
	if t.open < 0 {
		t.epoch++
	}
	t.spans = append(t.spans, span{
		Twin: t.twin, Phase: t.phase, Name: name, Start: time.Since(t.start).Nanoseconds(),
		Parent: t.open, Epoch: t.epoch, Docs: docs,
	})
	t.open = len(t.spans) - 1
	return t.open
}

func (t *tracer) end(i int) {
	t.spans[i].End = time.Since(t.start).Nanoseconds()
	t.open = t.spans[i].Parent
}

// total sums the spans of one name: time in microseconds, documents and
// how many there were.
func (t *tracer) total(twin, phase, name string) (us float64, docs, n int) {
	for _, s := range t.spans {
		if s.Twin == twin && s.Phase == phase && s.Name == name {
			us += float64(s.End-s.Start) / 1e3
			docs += s.Docs
			n++
		}
	}
	return us, docs, n
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedPhases drives one twin through the count-based phases, a root
// span around every call. With alternate set, the closed phase turns
// the per-call spans off in every second block of traceBlock epochs, so
// the two kinds of block give the cost of tracing itself. docsDone runs
// between the last document and the first churn pair, where per-document
// counters are read.
func tracedPhases(tr *tracer, twin string, tg target, in *inputs, alternate bool, docsDone func()) error {
	tr.twin = twin
	tr.phase = "closed"
	next := in.plan.closedStart()
	for e := 0; e < in.plan.closed/closedBatch; e += traceBlock {
		spans := !alternate || e/traceBlock%2 == 0
		name := "block.untraced"
		if spans {
			name = "block.traced"
		}
		block := tr.begin(name, traceBlock*closedBatch)
		for range traceBlock {
			items := in.items(next, next+closedBatch)
			next += closedBatch
			call := -1
			if spans {
				call = tr.begin("ingest", closedBatch)
			}
			err := tg.ingest(items, nil)
			if spans {
				tr.end(call)
			}
			if err != nil {
				return err
			}
		}
		tr.end(block)
	}

	tr.phase = "singles"
	for ; next < in.plan.pacedStart(); next++ {
		call := tr.begin("ingest", 1)
		err := tg.ingest(in.items(next, next+1), nil)
		tr.end(call)
		if err != nil {
			return err
		}
	}

	docsDone()
	tr.phase = "churn"
	for _, text := range in.churn {
		call := tr.begin("register", 0)
		id, err := tg.register(text, topK)
		tr.end(call)
		if err != nil {
			return err
		}
		call = tr.begin("unregister", 0)
		err = tg.unregister(id)
		tr.end(call)
		if err != nil {
			return err
		}
	}
	return nil
}

// durableFacade opens an engine the way cmd/itaserver's buildEngine does
// for the flags startServer passes.
func durableFacade(w workload, dir string) (*ita.Engine, error) {
	return ita.Open(dir, ita.WithTextRetention(), ita.WithCountWindow(w.Window),
		ita.WithDurability(ita.DurabilityOff), ita.WithCheckpointEvery(checkpointEvery))
}

// allResults reads every standing and canary query's result.
func allResults(tg target, st *standing) ([][]ita.Match, error) {
	var out [][]ita.Match
	for _, ids := range [][]ita.QueryID{st.queries, st.canaries} {
		for _, id := range ids {
			res, err := tg.results(id)
			if err != nil {
				return nil, err
			}
			out = append(out, res)
		}
	}
	return out, nil
}

// differing counts the queries whose results differ in any document id
// or any bit of any score.
func differing(a, b [][]ita.Match) int {
	diff := 0
	for i := range a {
		same := len(a[i]) == len(b[i])
		for j := 0; same && j < len(a[i]); j++ {
			same = a[i][j].Doc == b[i][j].Doc && math.Float64bits(a[i][j].Score) == math.Float64bits(b[i][j].Score)
		}
		if !same {
			diff++
		}
	}
	return diff
}

// runTraced is the traced pass: the same documents through the facade
// and through the staged twin(s), a span around every call, counts as
// deltas of the facade's own counters. Everything but the paced tail is
// count-based, so counters repeat exactly for a seed.
func runTraced(w workload, seed int64, opt runOpts) (*runResult, error) {
	p := plan{
		fill: w.Window, warm: w.Warmup,
		closed:  w.TraceClosedEpochs * closedBatch,
		singles: w.TraceSingles,
		paced:   w.pacedDocs(w.TracePacedSeconds),
	}
	in, err := generate(w, p, w.TraceChurn, seed)
	if err != nil {
		return nil, err
	}
	res := &runResult{Metrics: map[string]float64{}}
	for _, d := range perLayer {
		res.Metrics[d.Name] = 0
	}
	res.Metrics["gen.build_s"] = in.buildS
	tr := newTracer()

	want, err := tracedFacade(tr, w, in, seed, opt, res)
	if err != nil {
		return nil, fmt.Errorf("facade twin: %w", err)
	}
	// The staged pipeline, and at S>1 a serial one beside it, which is
	// then the twin with separate index and maintenance stages.
	serial := "staged"
	if err := tracedStaged(tr, "staged", w.Shards, w, in, opt, want, res); err != nil {
		return nil, fmt.Errorf("staged twin: %w", err)
	}
	if w.Shards > 1 {
		serial = "staged-s1"
		if err := tracedStaged(tr, serial, 1, w, in, opt, want, res); err != nil {
			return nil, fmt.Errorf("%s twin: %w", serial, err)
		}
	}
	if w.HTTP {
		if err := tracedServer(tr, w, in, opt, want, res); err != nil {
			return nil, fmt.Errorf("server twin: %w", err)
		}
	}
	stageMetrics(tr, w, p, serial, res.Metrics)

	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		return nil, err
	}
	return res, tr.write(filepath.Join(opt.out, "trace-"+w.Name+".jsonl"))
}

// tracedFacade runs twin A, the facade — over HTTP an in-process engine
// opened the way the server opens its own, beside the server itself —
// and returns every query's result for the other twins to match.
func tracedFacade(tr *tracer, w workload, in *inputs, seed int64, opt runOpts, res *runResult) (want [][]ita.Match, err error) {
	m, p := res.Metrics, in.plan
	measured := p.closed + p.singles // documents in the counted phases
	var eng *ita.Engine
	var dir string
	if w.HTTP {
		if dir, err = os.MkdirTemp(opt.scratch, "facade-"); err != nil {
			return nil, err
		}
		eng, err = durableFacade(w, dir)
	} else {
		eng, err = newEngine(w)
	}
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, eng.Close()) }()
	facade := &engineTarget{e: eng}
	st, err := setUp(facade, w, in, noTick)
	if err != nil {
		return nil, err
	}
	deltas := 0
	for _, j := range sampleQueries(w, st) {
		if err := eng.Watch(st.queries[j], func(ita.Delta) { deltas++ }); err != nil {
			return nil, err
		}
	}
	before := eng.Stats()
	var after ita.Stats
	if err := tracedPhases(tr, "facade", facade, in, true, func() { after = eng.Stats() }); err != nil {
		return nil, err
	}
	mem := eng.MemoryUsage()
	if want, err = allResults(facade, st); err != nil {
		return nil, err
	}
	res.Attempted += measured + 2*len(in.churn)

	per := func(a, b uint64) float64 { return float64(a-b) / float64(measured) }
	m["textproc.tokens_per_doc"] = float64(in.tokens) / float64(p.total())
	m["textproc.dict_terms"] = float64(eng.DictionarySize())
	m["invindex.postings_per_doc"] = per(after.IndexInserts, before.IndexInserts)
	m["invindex.bytes_per_posting"] = float64(mem.PostingBytes) / float64(mem.Postings)
	m["invindex.index_mb"] = float64(mem.IndexBytes) / 1e6
	m["core.probe_hits_per_doc"] = per(after.ProbeHits, before.ProbeHits)
	m["core.probe_selectivity"] = m["core.probe_hits_per_doc"] / float64(len(st.queries)+len(st.canaries))
	m["core.scores_per_doc"] = per(after.ScoreComputations, before.ScoreComputations)
	m["core.search_reads_per_doc"] = per(after.SearchReads, before.SearchReads)
	m["core.refills_per_kdoc"] = 1000 * per(after.Refills, before.Refills)
	m["core.rollup_drops_per_doc"] = per(after.RollupDrops, before.RollupDrops)
	m["core.tree_updates_per_doc"] = per(after.TreeUpdates, before.TreeUpdates)
	m["core.tree_mb"] = float64(mem.TreeBytes) / 1e6
	m["core.query_state_mb"] = float64(mem.QueryStateBytes) / 1e6
	m["core.view_mb"] = float64(mem.ViewBytes) / 1e6
	m["ita.watch_deltas_per_epoch"] = float64(deltas) / float64(w.TraceClosedEpochs+p.singles)

	// Idle reads, then the paced tail that measures the generator.
	const idleReads = 20000
	start := time.Now()
	for i := range idleReads {
		eng.Results(st.queries[i%len(st.queries)])
	}
	m["ita.results_ns"] = float64(time.Since(start).Nanoseconds()) / idleReads
	pc := &pace{y: opt.y}
	po, readUS, err := pacedWithReader(facade, in, w, st, seed, pc, false, res)
	if err != nil {
		return nil, err
	}
	m["visible_p99_ms"] = percentile(po.visibleMS, 0.99)
	m["read_p99_us"] = percentile(readUS, 0.99)
	if len(po.lateMS) > 0 {
		m["gen.late_p99_ms"] = percentile(po.lateMS, 0.99)
	}
	m["gen.backlog_max_docs"] = float64(po.backlogMax)
	m["gen.paced_batch_mean"] = float64(p.paced) / float64(po.calls)
	m["gen.machine_speed"] = pc.speed()

	if w.HTTP {
		start := time.Now()
		if err := eng.Checkpoint(); err != nil {
			return nil, err
		}
		m["ita.checkpoint_ms"] = millis(time.Since(start))
		if err := eng.Close(); err != nil {
			return nil, err
		}
		start = time.Now()
		reopened, err := durableFacade(w, dir)
		if err != nil {
			return nil, fmt.Errorf("reopen: %w", err)
		}
		eng = reopened // for the deferred Close; the first engine is closed already
		m["ita.open_ms"] = millis(time.Since(start))
	}
	return want, nil
}

// tracedStaged runs one staged twin and holds its results to want.
func tracedStaged(tr *tracer, name string, shards int, w workload, in *inputs, opt runOpts, want [][]ita.Match, res *runResult) (err error) {
	walDir := ""
	if w.HTTP {
		if walDir, err = os.MkdirTemp(opt.scratch, name+"-"); err != nil {
			return err
		}
	}
	sg, err := newStaged(w, tr, shards, walDir)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, sg.close()) }()
	tr.twin, tr.phase = name, "setup"
	st, err := setUp(sg, w, in, noTick)
	if err != nil {
		return err
	}
	var logStart int64
	if sg.log != nil {
		logStart = sg.log.Offset()
	}
	err = tracedPhases(tr, name, sg, in, false, func() {
		if sg.log != nil {
			res.Metrics["wal.bytes_per_doc"] = float64(sg.log.Offset()-logStart) / float64(in.plan.closed+in.plan.singles)
		}
	})
	if err != nil {
		return err
	}
	got, err := allResults(sg, st)
	if err != nil {
		return err
	}
	res.Attempted++
	if n := differing(want, got); n > 0 {
		res.fail("%s twin: %d of %d queries end with results that are not byte-identical to the facade's", name, n, len(want))
	}
	return nil
}

// stageMetrics turns the spans into time per document, by stage. serial
// names the staged twin with separate index and maintenance stages.
func stageMetrics(tr *tracer, w workload, p plan, serial string, m map[string]float64) {
	stage := func(twin, phase, name string) float64 {
		us, _, _ := tr.total(twin, phase, name)
		docs := p.closed
		if phase == "singles" {
			docs = p.singles
		}
		return us / float64(docs)
	}
	perCall := func(twin, phase, name string) float64 {
		us, _, n := tr.total(twin, phase, name)
		if n == 0 {
			return 0
		}
		return us / float64(n)
	}
	m["textproc.analyze_us_per_doc"] = stage("staged", "closed", "textproc.analyze")
	m["vsm.weigh_us_per_doc"] = stage("staged", "closed", "vsm.weigh")
	m["wal.append_us_per_doc"] = stage("staged", "closed", "wal.append")
	m["wal.sync_us_per_epoch"] = perCall("staged", "closed", "wal.sync")
	m["invindex.apply_us_per_doc"] = stage(serial, "closed", "invindex.apply")
	m["invindex.point_us_per_doc"] = stage(serial, "singles", "invindex.point")
	m["core.maintain_us_per_doc"] = stage(serial, "closed", "core.maintain")
	m["core.point_maintain_us_per_doc"] = stage(serial, "singles", "core.point_maintain")
	m["core.publish_us_per_epoch"] = perCall("staged", "closed", "core.publish")
	m["core.register_us"] = perCall(serial, "churn", "core.register")
	if w.Shards > 1 {
		m["shard.epoch_us_per_doc"] = stage("staged", "closed", "shard.epoch")
		m["shard.s1_epoch_us_per_doc"] = m["invindex.apply_us_per_doc"] + m["core.maintain_us_per_doc"]
		m["shard.speedup_s2"] = m["shard.s1_epoch_us_per_doc"] / m["shard.epoch_us_per_doc"]
	}

	// The facade against the sum of its stages. Only the traced blocks
	// carry per-call spans, so normalise by their documents. wal.sync is
	// left out: the staged twin syncs to price an fsync, the facade under
	// -durability off does not.
	us, docs, _ := tr.total("facade", "closed", "ingest")
	m["ita.ingest_us_per_doc"] = us / float64(docs)
	m["ita.ingest_point_us_per_doc"] = stage("facade", "singles", "ingest")
	stages := 0.0
	for _, name := range []string{"textproc.analyze", "vsm.weigh", "wal.append", "invindex.apply", "core.maintain", "shard.epoch", "core.publish"} {
		stages += stage("staged", "closed", name)
	}
	m["ita.facade_self_us_per_doc"] = m["ita.ingest_us_per_doc"] - stages
	m["trace.coverage"] = stages / m["ita.ingest_us_per_doc"]
	tracedUS, tracedDocs, _ := tr.total("facade", "closed", "block.traced")
	plainUS, plainDocs, _ := tr.total("facade", "closed", "block.untraced")
	m["trace.overhead_ratio"] = (float64(tracedDocs) / tracedUS) / (float64(plainDocs) / plainUS)
	m["closed.drift"] = closedDrift(tr, "facade")
	if w.HTTP {
		m["itaserver.post_doc_us"] = stage("server", "singles", "ingest")
		m["itaserver.http_overhead_us"] = m["itaserver.post_doc_us"] - m["ita.ingest_point_us_per_doc"]
	}
}

// closedDrift is the closed phase's throughput over its second half of
// blocks divided by that over its first half.
func closedDrift(tr *tracer, twin string) float64 {
	var blocks []span
	for _, s := range tr.spans {
		if s.Twin == twin && s.Parent < 0 && s.Phase == "closed" {
			blocks = append(blocks, s)
		}
	}
	rate := func(bs []span) float64 {
		docs, ns := 0, int64(0)
		for _, b := range bs {
			docs += b.Docs
			ns += b.End - b.Start
		}
		return float64(docs) / float64(ns)
	}
	return rate(blocks[len(blocks)/2:]) / rate(blocks[:len(blocks)/2])
}

// tracedServer runs the server twin: the same documents as single POSTs,
// results compared with the facade's, then timed reads, the resident
// set, and a SIGKILL with a timed restart on the same WAL.
func tracedServer(tr *tracer, w workload, in *inputs, opt runOpts, want [][]ita.Match, res *runResult) (err error) {
	m := res.Metrics
	walDir, err := os.MkdirTemp(opt.scratch, "server-")
	if err != nil {
		return err
	}
	srv, err := startServer(opt.server, walDir, w.Window)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			srv.kill()
		}
	}()
	tr.twin, tr.phase = "server", "setup"
	st, err := setUp(srv, w, in, noTick)
	if err != nil {
		return err
	}
	if err := tracedPhases(tr, "server", srv, in, false, noTick); err != nil {
		return err
	}
	got, err := allResults(srv, st)
	if err != nil {
		return err
	}
	res.Attempted++
	if n := differing(want, got); n > 0 {
		res.fail("server twin: %d of %d queries end with results that are not byte-identical to the facade's", n, len(want))
	}
	const reads = 500
	start := time.Now()
	for i := range reads {
		if _, err = srv.results(st.queries[i%len(st.queries)]); err != nil {
			return err
		}
	}
	m["itaserver.get_results_us"] = micros(time.Since(start)) / reads
	if m["itaserver.rss_mb"], err = srv.rssMB(); err != nil {
		return err
	}

	// Crash and recover.
	srv.kill()
	start = time.Now()
	restarted, err := startServer(opt.server, walDir, w.Window)
	if err != nil {
		// Nothing is running: the deferred kill of the dead server is harmless.
		return fmt.Errorf("restart after SIGKILL: %w", err)
	}
	srv = restarted
	m["itaserver.recover_ms"] = millis(time.Since(start))
	recovered, err := allResults(srv, st)
	if err != nil {
		return err
	}
	res.Attempted++
	if n := differing(want, recovered); n > 0 {
		res.fail("recovered server: %d of %d queries differ from before the crash", n, len(want))
	}
	return srv.close()
}
