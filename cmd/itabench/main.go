// Command itabench regenerates the paper's experimental figures
// (Fig. 3(a)/(b), the time-window variant and the headline ITA vs.
// Naïve/kmax comparison) and the repository's four ablation studies.
//
// Usage:
//
//	itabench -exp all                 # every figure, quick profile
//	itabench -exp fig3b -profile paper
//	itabench -exp setup               # corpus calibration report (E0)
//	itabench -exp validate            # oracle cross-check of every engine
//	itabench -exp ablations -csv out/ # ablations, also written as CSV
//
// The paper profile reproduces the published configuration (1,000
// queries, 181,978-term dictionary, windows up to 100,000 documents) and
// takes minutes per figure; the quick profile keeps the curve shapes in
// seconds.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ita/internal/harness"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: setup|validate|explain|fig3a|fig3b|fig3a-time|headline|ablations|all")
		profile = flag.String("profile", "quick", "workload profile: quick|paper")
		csvDir  = flag.String("csv", "", "directory to write per-figure CSV files (optional)")
		quiet   = flag.Bool("q", false, "suppress progress lines")
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
