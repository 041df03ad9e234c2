// Command itabench regenerates the paper's experimental figures and the
// repository's ablation studies (DESIGN.md §5).
//
// Usage:
//
//	itabench -exp all                 # every figure, quick profile
//	itabench -exp fig3b -profile paper
//	itabench -exp setup               # corpus calibration report (E0)
//	itabench -exp ablations -csv out/ # ablations, also written as CSV
//	itabench -exp throughput -queries 10000 -shards 1,2,4,8 -json BENCH_SHARDED.json
//	itabench -exp batch -queries 10000 -epochs 1,8,64,256 -shards 4 -json BENCH_BATCH.json
//	itabench -exp reads -queries 2000 -readers 1,4,16 -json BENCH_READS.json
//	itabench -exp recovery -queries 2000 -ckpts 0,64,512 -json BENCH_RECOVERY.json
//	itabench -exp failover -queries 2000 -behind 4,16,64 -json BENCH_FAILOVER.json
//	itabench -exp cluster -queries 2000 -nodes 1,2,3 -json BENCH_CLUSTER.json
//
// The paper profile reproduces the published configuration (1,000
// queries, 181,978-term dictionary, windows up to 100,000 documents) and
// takes minutes per figure; the quick profile keeps the curve shapes in
// seconds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"ita/internal/harness"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: setup|validate|explain|fig3a|fig3b|fig3a-time|headline|ablations|throughput|batch|reads|recovery|scale|failover|cluster|all")
		profile = flag.String("profile", "quick", "workload profile: quick|paper")
		csvDir  = flag.String("csv", "", "directory to write per-figure CSV files (optional)")
		quiet   = flag.Bool("q", false, "suppress progress lines")
		// -exp throughput knobs: the sharding experiment sweeps the
		// single-threaded engine plus every count in -shards.
		queries  = flag.Int("queries", 10000, "throughput/batch: standing queries")
		shardSet = flag.String("shards", "1,2,4,8", "throughput/batch: comma-separated shard counts")
		batch    = flag.Int("batch", 64, "throughput/reads/recovery/failover/cluster: documents per ingest epoch")
		epochSet = flag.String("epochs", "1,8,64,256", "batch: comma-separated epoch sizes B")
		events   = flag.Int("events", 2000, "throughput/batch: measured events per configuration")
		jsonOut  = flag.String("json", "", "throughput/batch/reads: write the report as JSON to this path")
		// -exp reads knobs: the mixed read/write experiment sweeps the
		// wait-free published read path against the locked baseline at
		// every reader count in -readers.
		readerSet = flag.String("readers", "1,4,16", "reads: comma-separated concurrent reader counts")
		readMs    = flag.Int("readms", 400, "reads: measured wall milliseconds per cell")
		// -exp recovery knobs: the durability experiment measures WAL
		// overhead per fsync policy and crash-recovery time at every
		// checkpoint interval in -ckpts (0 = never checkpoint).
		ckptSet = flag.String("ckpts", "0,64,512", "recovery: comma-separated checkpoint intervals (epoch boundaries; 0 = never)")
		// -exp failover knobs: the warm-standby experiment measures
		// steady-state replication lag, catch-up time from each epoch
		// gap in -behind, and promote-to-first-served-read latency.
		behindSet = flag.String("behind", "4,16,64", "failover: comma-separated epoch gaps for the catch-up cells")
		// -exp cluster knobs: the multi-node experiment sweeps node
		// counts, measuring ingest fan-out overhead and merged-read
		// latency against the single-node baseline cell.
		nodesSet = flag.String("nodes", "1,2,3", "cluster: comma-separated node counts (first cell is the baseline)")
		// -exp scale knobs: the query-scale experiment sweeps registered
		// query counts, measuring engine bytes/query (forced-GC heap
		// deltas around registration) and ingest throughput.
		countSet = flag.String("counts", "10000,100000,1000000", "scale: comma-separated registered-query counts")
		scaleWin = flag.Int("scalewin", 32768, "scale: count-window size during the sweep")
		layout   = flag.String("layout", "theta-probe", "scale: label for the query-state layout under measurement")
		baseline = flag.String("baseline", "", "scale: path to an earlier layout's scale JSON to embed as the comparison baseline")
	)
	flag.Parse()

	var p harness.Profile
	switch *profile {
	case "quick":
		p = harness.QuickProfile()
	case "paper":
		p = harness.PaperProfile()
	default:
		fmt.Fprintf(os.Stderr, "itabench: unknown profile %q\n", *profile)
		os.Exit(2)
	}

	start := time.Now()
	progress := func(msg string) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "[%s] %s\n", harness.Elapsed(start), msg)
		}
	}

	var figures []harness.Figure
	switch *exp {
	case "validate":
		rep, err := harness.Validate(p, 400)
		if err != nil {
			fail(err)
		}
		fmt.Print(rep.Format())
		if !rep.OK() {
			os.Exit(1)
		}
		return
	case "setup":
		report, err := harness.Setup(p, 2000)
		if err != nil {
			fail(err)
		}
		fmt.Print(report.Format())
		return
	case "explain":
		report, err := harness.Explain(p)
		if err != nil {
			fail(err)
		}
		fmt.Print(report.Format())
		return
	case "throughput":
		rep, err := harness.Throughput(p, *queries, 10, 1000, *batch, parseInts(*shardSet, "-shards", 0), *events, progress)
		if err != nil {
			fail(err)
		}
		fmt.Print(rep.Format())
		writeJSON(*jsonOut, rep.JSON, *quiet)
		return
	case "batch":
		rep, err := harness.BatchSweep(p, *queries, 10, 1000,
			parseInts(*epochSet, "-epochs", 1), parseInts(*shardSet, "-shards", 0), *events, progress)
		if err != nil {
			fail(err)
		}
		fmt.Print(rep.Format())
		writeJSON(*jsonOut, rep.JSON, *quiet)
		return
	case "reads":
		rep, err := harness.ReadWrite(p, *queries, 10, 1000, *batch,
			parseInts(*readerSet, "-readers", 1), time.Duration(*readMs)*time.Millisecond, progress)
		if err != nil {
			fail(err)
		}
		fmt.Print(rep.Format())
		writeJSON(*jsonOut, rep.JSON, *quiet)
		return
	case "scale":
		rep, err := harness.Scale(p, parseInts(*countSet, "-counts", 1), 4, *scaleWin, *events, *layout, progress)
		if err != nil {
			fail(err)
		}
		if *baseline != "" {
			data, err := os.ReadFile(*baseline)
			if err != nil {
				fail(err)
			}
			var base harness.ScaleReport
			if err := json.Unmarshal(data, &base); err != nil {
				fail(fmt.Errorf("parse -baseline %s: %w", *baseline, err))
			}
			rep.AttachBaseline(base)
		}
		fmt.Print(rep.Format())
		writeJSON(*jsonOut, rep.JSON, *quiet)
		return
	case "failover":
		rep, err := harness.Failover(p, *queries, 10, 1000, *batch,
			parseInts(*behindSet, "-behind", 1), *events, progress)
		if err != nil {
			fail(err)
		}
		fmt.Print(rep.Format())
		writeJSON(*jsonOut, rep.JSON, *quiet)
		return
	case "cluster":
		rep, err := harness.Cluster(p, *queries, 10, 1000, *batch,
			parseInts(*nodesSet, "-nodes", 1), *events, progress)
		if err != nil {
			fail(err)
		}
		fmt.Print(rep.Format())
		writeJSON(*jsonOut, rep.JSON, *quiet)
		return
	case "recovery":
		rep, err := harness.Recovery(p, *queries, 10, 1000, *batch,
			parseInts(*ckptSet, "-ckpts", 0), *events, progress)
		if err != nil {
			fail(err)
		}
		fmt.Print(rep.Format())
		writeJSON(*jsonOut, rep.JSON, *quiet)
		return
	case "fig3a":
		figures = []harness.Figure{harness.Fig3a(p, progress)}
	case "fig3b":
		figures = []harness.Figure{harness.Fig3b(p, progress)}
	case "fig3a-time":
		figures = []harness.Figure{harness.Fig3aTime(p, progress)}
	case "headline":
		figures = []harness.Figure{harness.Headline(p, progress)}
	case "ablations":
		figures = harness.AllAblations(p, progress)
	case "all":
		report, err := harness.Setup(p, 2000)
		if err != nil {
			fail(err)
		}
		fmt.Print(report.Format())
		fmt.Println()
		figures = append(harness.AllFigures(p, progress), harness.AllAblations(p, progress)...)
	default:
		fmt.Fprintf(os.Stderr, "itabench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}

	failed := false
	for _, fig := range figures {
		fmt.Println(fig.Format())
		if fig.Err != nil {
			failed = true
			continue
		}
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fail(err)
			}
			path := filepath.Join(*csvDir, fig.ID+".csv")
			if err := os.WriteFile(path, []byte(fig.CSV()), 0o644); err != nil {
				fail(err)
			}
			if !*quiet {
				fmt.Fprintf(os.Stderr, "wrote %s\n", path)
			}
		}
	}
	fmt.Printf("total wall time: %s\n", harness.Elapsed(start))
	fmt.Println("note: values marked * exceed the stream's 5ms inter-arrival budget (cannot run at 200 docs/s).")
	if failed {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "itabench: %v\n", err)
	os.Exit(1)
}

// parseInts parses a comma-separated list of integers, each at least
// minVal (0 for -shards, where 0 means the automatic count; 1 for
// -epochs, where no smaller epoch exists).
func parseInts(s, flagName string, minVal int) []int {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < minVal {
			fmt.Fprintf(os.Stderr, "itabench: bad %s element %q\n", flagName, f)
			os.Exit(2)
		}
		out = append(out, n)
	}
	return out
}

// writeJSON writes a report to path when path is non-empty.
func writeJSON(path string, marshal func() ([]byte, error), quiet bool) {
	if path == "" {
		return
	}
	data, err := marshal()
	if err != nil {
		fail(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fail(err)
	}
	if !quiet {
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}
}
