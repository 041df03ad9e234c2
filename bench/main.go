// Command bench is the repository's benchmark: four workloads through
// the public facade (three in process, one against a real itaserver),
// eight end-to-end metrics, and a traced pass that attributes an epoch's
// time to the layers. README.md explains the choices; BENCHMARK.json at
// the repository root is the manifest a driver reads.
//
//	bash bench/run.sh                          # every workload, 3 runs + a traced pass, writes bench/out/results.json
//	bash bench/run.sh -workload hot-terms -seed 7 -trace 1
//	bash bench/run.sh -compare a.json b.json   # verdict per workload × metric
//
// With one workload and one run the last line of standard output is the
// driver's JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverLine is the object a driver reads from the last output line.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// results is the schema of bench/out/results.json.
type results struct {
	Schema    string           `json:"schema"`
	Env       environment      `json:"env"`
	Workloads []workloadResult `json:"workloads"`
}

type environment struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick,omitempty"`
}

type workloadResult struct {
	Name  string       `json:"name"`
	Runs  []*runResult `json:"runs"`
	Trace *runResult   `json:"trace,omitempty"`
}

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	reps     int
	quick    bool
	out      string
	server   string
	selftest bool
	compare  bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run, or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "length of one run's measured phases")
	flag.IntVar(&o.trace, "trace", -1, "0: untraced runs only; 1: the traced pass only; default: both")
	flag.IntVar(&o.reps, "reps", 0, "untraced runs per workload (default 1 for one workload, 3 for all)")
	flag.BoolVar(&o.quick, "quick", false, "run every phase at about a twentieth of the size")
	flag.StringVar(&o.out, "out", filepath.Join("bench", "out"), "directory for results.json, trace files and WAL scratch")
	flag.StringVar(&o.server, "server", "", "itaserver binary (bench/run.sh builds and passes it)")
	flag.BoolVar(&o.selftest, "selftest", false, "corrupt one canary and one sampled result; succeed only if both are caught")
	flag.BoolVar(&o.compare, "compare", false, "compare two results.json files given as arguments")
	flag.Parse()
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options, args []string) error {
	if o.compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare needs two results.json files")
		}
		return compareFiles(args[0], args[1], os.Stdout)
	}
	if len(args) > 0 {
		return fmt.Errorf("unexpected arguments %q", args)
	}
	selected := workloads
	if o.workload != "all" {
		w, err := findWorkload(o.workload)
		if err != nil {
			return err
		}
		selected = []workload{w}
	}
	if o.reps == 0 {
		o.reps = 1
		if o.workload == "all" {
			o.reps = 3
		}
	}
	// One directory per invocation for WAL files, under out so that
	// nothing is written outside the checkout.
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(o.out, "tmp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	opt := runOpts{server: o.server, scratch: scratch, out: o.out, corrupt: o.selftest, y: newYardstick()}

	all := results{Schema: "ita-bench/v1", Env: environment{
		Commit: commit(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: o.seed, Seconds: o.seconds, Quick: o.quick,
	}}
	for _, w := range selected {
		w = w.scaled(o.seconds)
		if o.quick {
			w = w.quick()
		}
		wr := workloadResult{Name: w.Name}
		if o.trace != 1 {
			for r := 0; r < o.reps; r++ {
				res, err := runEndToEnd(w, o.seed, opt)
				if err != nil {
					return fmt.Errorf("%s: %w", w.Name, err)
				}
				printRun(w.Name, fmt.Sprintf("run %d/%d", r+1, o.reps), res, endToEnd)
				wr.Runs = append(wr.Runs, res)
			}
		}
		if o.trace != 0 && !o.selftest {
			res, err := runTraced(w, o.seed, opt)
			if err != nil {
				return fmt.Errorf("%s traced: %w", w.Name, err)
			}
			printRun(w.Name, "traced pass", res, perLayer)
			wr.Trace = res
		}
		all.Workloads = append(all.Workloads, wr)
	}

	if o.selftest {
		for _, wr := range all.Workloads {
			for _, r := range wr.Runs {
				if r.Failed < 2 {
					return fmt.Errorf("selftest: %s reported %d failures; a corrupted canary and a corrupted result must both be caught", wr.Name, r.Failed)
				}
			}
		}
		fmt.Println("selftest: the corrupted canary and the corrupted result were both reported")
		return nil
	}
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(o.out, "results.json"), append(data, '\n'), 0o644); err != nil {
		return err
	}

	// One workload, one kind of run: the last line is the driver's, and
	// failed operations are its business.
	if len(selected) == 1 && o.trace >= 0 && o.reps == 1 {
		wr := all.Workloads[0]
		res, defs := wr.Trace, perLayer
		if o.trace == 0 {
			res, defs = wr.Runs[0], endToEnd
		}
		line := driverLine{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
		for _, d := range defs {
			line.Metrics[d.Name] = metricValue{res.Metrics[d.Name], d.Unit}
		}
		data, err := json.Marshal(line)
		if err != nil {
			return err
		}
		fmt.Println(string(data))
		return nil
	}
	failed := 0
	for _, wr := range all.Workloads {
		for _, r := range append(slices.Clone(wr.Runs), wr.Trace) {
			if r != nil {
				failed += r.Failed
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

// printRun prints every metric of one run by name and unit, then why
// the run is invalid or which operations failed.
func printRun(workload, label string, res *runResult, defs []metricDef) {
	fmt.Printf("%s — %s: attempted %d, failed %d\n", workload, label, res.Attempted, res.Failed)
	for _, d := range defs {
		fmt.Printf("  %-34s %14.4f %s\n", d.Name, res.Metrics[d.Name], d.Unit)
	}
	if res.Invalid {
		fmt.Println("  INVALID run: do not average it in")
	}
	for _, n := range res.Notes {
		fmt.Println("  note:", n)
	}
}

// commit is the VCS revision stamped into the binary, when it was built
// inside a repository.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	var rev, dirty string
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	if rev == "" {
		return "unknown"
	}
	return strings.TrimSpace(rev) + dirty
}
