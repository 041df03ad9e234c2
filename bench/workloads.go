package main

import "fmt"

// Sizes shared by every workload. A run is setup → closed → paced →
// churn → gauge + check; see README.md for why each phase exists.
const (
	topK        = 10
	fillBatch   = 1024 // documents per IngestBatch while filling the window
	closedBatch = 64   // documents per closed-loop epoch
	pacedCap    = 256  // most documents one paced-phase call may publish
)

// runSeconds is the run length the frozen counts below are sized for; it
// matches BENCHMARK.json's run_seconds. Another -seconds scales the
// closed count and the paced duration in proportion.
const runSeconds = 15

// workload is one set of inputs. Every count and rate is frozen here: a
// later commit is measured against the same load, so rates do not follow
// the code.
type workload struct {
	Name string
	Why  string

	Window     int  // count-window size
	Queries    int  // standing queries
	QueryTerms int  // distinct terms per standing query
	Popular    bool // query terms follow the corpus Zipf instead of the uniform dictionary
	Shards     int  // WithShards; 1 = serial ITA
	HTTP       bool // drive a real itaserver subprocess with a WAL over loopback

	ClosedDocs int     // closed phase: documents, back to back, at runSeconds
	PacedRate  float64 // paced phase: documents due per second
	ReadRate   float64 // paced phase: Results reads per second on the second goroutine/connection

	// Sizes the quick profile shrinks.
	SetupReps    int     // set-ups per run; setup_s is their median
	Warmup       int     // documents ingested after registration, before the clock starts
	Canaries     int     // single-term queries, each matched by exactly one paced document
	PacedSeconds float64 // at runSeconds
	Churn        int     // Register+Unregister pairs
	Samples      int     // standing queries compared with the NaivePlain reference

	// Traced pass (count-based, so counters repeat exactly).
	TraceClosedEpochs int // alternating blocks of traceBlock epochs, with and without spans
	TraceSingles      int // single-document epochs
	TraceChurn        int
	TracePacedSeconds float64 // untraced paced tail that measures the generator itself
}

const traceBlock = 4

// The four workloads. Windows and query counts are the largest that keep
// three set-ups plus a 15 s run inside the driver's per-run budget on the
// 2-CPU container while each layer still dominates where README.md says
// it does. Closed counts are sized for about 4.5 s at the authoring
// commit. Paced rates are about half of what the engine sustains in
// two-document epochs, its slowest mode, so that a backlog drains instead
// of feeding on itself (README.md, "The paced rate").
var workloads = []workload{
	standard(workload{
		Name:   "wide-window",
		Why:    "Long posting lists (10k-doc window, few queries): invindex apply, repack and expiry dominate; a core change must not move it.",
		Window: 10000, Queries: 1000, QueryTerms: 4, Shards: 1,
		ClosedDocs: 3840, PacedRate: 230, ReadRate: 1000,
	}),
	standard(workload{
		Name:   "many-queries",
		Why:    "40k standing 10-term queries over a short window: threshold-tree probes, scoring and publishing dominate; an index change moves it least.",
		Window: 1000, Queries: 40000, QueryTerms: 10, Shards: 1,
		ClosedDocs: 4096, PacedRate: 200, ReadRate: 1000,
	}),
	standard(workload{
		Name:   "hot-terms",
		Why:    "Query terms drawn from the corpus Zipf, two shards: a third of the queries are probed per document, so scoring, roll-up and shard fan-out dominate.",
		Window: 2000, Queries: 4000, QueryTerms: 4, Popular: true, Shards: 2,
		ClosedDocs: 4224, PacedRate: 200, ReadRate: 1000,
	}),
	standard(workload{
		Name:   "serve-http",
		Why:    "A real itaserver with a WAL over loopback HTTP: tokeniser, JSON, log writes, text retention and checkpoints dominate; an engine-only gain barely shows.",
		Window: 2000, Queries: 500, QueryTerms: 4, Shards: 1, HTTP: true,
		ClosedDocs: 4608, PacedRate: 250, ReadRate: 200,
	}),
}

// standard fills in the sizes every full-size workload shares.
func standard(w workload) workload {
	w.SetupReps = 3
	// One window turnover after registration, capped: query state
	// registered against a static window is not yet the steady state.
	w.Warmup = min(w.Window, 2048)
	w.Canaries = 64
	w.PacedSeconds = 9
	w.Churn = 1000
	w.Samples = 100
	w.TraceClosedEpochs = 48
	w.TraceSingles = 1000
	w.TraceChurn = 200
	w.TracePacedSeconds = 1.5
	return w
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// scaled returns w sized for a run of the given length.
func (w workload) scaled(seconds float64) workload {
	f := seconds / runSeconds
	w.ClosedDocs = max(1, int(float64(w.ClosedDocs)*f/closedBatch+0.5)) * closedBatch
	w.PacedSeconds *= f
	return w
}

// quick returns w at about a twentieth of its size with every phase
// kept, for the test suite.
func (w workload) quick() workload {
	w.Window = max(100, w.Window/20)
	w.Queries = max(50, w.Queries/20)
	w.ClosedDocs = 5 * closedBatch
	w.SetupReps = 1
	w.Warmup = 64
	w.Canaries = 8
	w.PacedSeconds = 0.4
	w.Churn = 20
	w.Samples = 20
	w.TraceClosedEpochs = 4 * traceBlock
	w.TraceSingles = 60
	w.TraceChurn = 10
	w.TracePacedSeconds = 0.2
	return w
}

// pacedDocs is the number of documents the paced phase schedules.
func (w workload) pacedDocs(seconds float64) int {
	return max(w.Canaries, int(w.PacedRate*seconds))
}

// metricDef names one reported metric. Bound is the share of the
// baseline's median by which an end-to-end metric may worsen before
// -compare calls it a regression; per-layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd lists what a user of the engine or the server sees. Failed
// operations are not a metric here: every run reports them as
// attempted/failed and any failure makes the run incorrect.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ingest_docs_per_s", "docs/s", "higher", 0.25},
	{"visible_p50_ms", "ms", "lower", 0.25},
	{"read_p50_us", "us", "lower", 0.25},
	{"register_p50_us", "us", "lower", 0.25},
	{"heap_mb", "MB", "lower", 0.10},
}

// perLayer lists the traced pass's metrics, by layer. A metric whose
// layer a workload does not run (wal.* without a WAL, shard.* at one
// shard, itaserver.* in process) reads 0 there.
var perLayer = []metricDef{
	{"textproc.analyze_us_per_doc", "us", "lower", 0},
	{"textproc.tokens_per_doc", "count", "lower", 0},
	{"textproc.dict_terms", "count", "lower", 0},
	{"vsm.weigh_us_per_doc", "us", "lower", 0},
	{"wal.append_us_per_doc", "us", "lower", 0},
	{"wal.sync_us_per_epoch", "us", "lower", 0},
	{"wal.bytes_per_doc", "B", "lower", 0},
	{"invindex.apply_us_per_doc", "us", "lower", 0},
	{"invindex.point_us_per_doc", "us", "lower", 0},
	{"invindex.postings_per_doc", "count", "lower", 0},
	{"invindex.bytes_per_posting", "B", "lower", 0},
	{"invindex.index_mb", "MB", "lower", 0},
	{"core.maintain_us_per_doc", "us", "lower", 0},
	{"core.point_maintain_us_per_doc", "us", "lower", 0},
	{"core.publish_us_per_epoch", "us", "lower", 0},
	{"core.register_us", "us", "lower", 0},
	{"core.probe_hits_per_doc", "count", "lower", 0},
	{"core.probe_selectivity", "ratio", "lower", 0},
	{"core.scores_per_doc", "count", "lower", 0},
	{"core.search_reads_per_doc", "count", "lower", 0},
	{"core.refills_per_kdoc", "count", "lower", 0},
	{"core.rollup_drops_per_doc", "count", "lower", 0},
	{"core.tree_updates_per_doc", "count", "lower", 0},
	{"core.tree_mb", "MB", "lower", 0},
	{"core.query_state_mb", "MB", "lower", 0},
	{"core.view_mb", "MB", "lower", 0},
	{"shard.epoch_us_per_doc", "us", "lower", 0},
	{"shard.s1_epoch_us_per_doc", "us", "lower", 0},
	{"shard.speedup_s2", "ratio", "higher", 0},
	{"ita.ingest_us_per_doc", "us", "lower", 0},
	{"ita.ingest_point_us_per_doc", "us", "lower", 0},
	{"ita.facade_self_us_per_doc", "us", "lower", 0},
	{"ita.watch_deltas_per_epoch", "count", "lower", 0},
	{"ita.results_ns", "ns", "lower", 0},
	{"ita.checkpoint_ms", "ms", "lower", 0},
	{"ita.open_ms", "ms", "lower", 0},
	{"itaserver.post_doc_us", "us", "lower", 0},
	{"itaserver.http_overhead_us", "us", "lower", 0},
	{"itaserver.get_results_us", "us", "lower", 0},
	{"itaserver.rss_mb", "MB", "lower", 0},
	{"itaserver.recover_ms", "ms", "lower", 0},
	{"visible_p99_ms", "ms", "lower", 0},
	{"read_p99_us", "us", "lower", 0},
	{"gen.build_s", "s", "lower", 0},
	{"gen.late_p99_ms", "ms", "lower", 0},
	{"gen.backlog_max_docs", "count", "lower", 0},
	{"gen.paced_batch_mean", "count", "lower", 0},
	{"gen.machine_speed", "ratio", "higher", 0},
	{"closed.drift", "ratio", "higher", 0},
	{"trace.coverage", "ratio", "higher", 0},
	{"trace.overhead_ratio", "ratio", "higher", 0},
}
