package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"ita/internal/corpus"
	"ita/internal/model"
	"ita/internal/textproc"
)

// serverBin is the itaserver the tests drive, built once from source.
var serverBin string

var testYardstick = newYardstick()

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "itabench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	serverBin = filepath.Join(dir, "itaserver")
	if out, err := exec.Command("go", "build", "-o", serverBin, "ita/cmd/itaserver").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build itaserver: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func testOpts(t *testing.T) runOpts {
	dir := t.TempDir()
	return runOpts{server: serverBin, scratch: dir, out: dir, y: testYardstick}
}

// TestBenchmarkManifest holds BENCHMARK.json and the program to the same
// names, units, directions and bounds.
func TestBenchmarkManifest(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&manifest); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(manifest.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", manifest.Paths)
	}
	if manifest.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, the frozen counts are sized for %d", manifest.RunSeconds, runSeconds)
	}
	if len(manifest.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, the program %d", len(manifest.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := manifest.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: manifest has %q (%q), the program %q (%q)", i, got.Name, got.Why, w.Name, w.Why)
		}
	}
	if !slices.Equal(manifest.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\nmanifest %v\nprogram  %v", manifest.EndToEnd, endToEnd)
	}
	if !slices.Equal(manifest.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\nmanifest %v\nprogram  %v", manifest.PerLayer, perLayer)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q leaves [A-Za-z0-9_.-]", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	for _, d := range slices.Concat(endToEnd, perLayer) {
		check(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// textsHash hashes every generated text in order.
func textsHash(in *inputs) string {
	h := sha256.New()
	for _, texts := range [][]string{in.docs, in.standing, in.churn, in.canaries} {
		for _, s := range texts {
			h.Write([]byte(s))
			h.Write([]byte{0})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func quickInputs(t *testing.T, seed int64) (*inputs, workload) {
	w := workloads[1].quick()
	p := plan{fill: w.Window, warm: w.Warmup, closed: w.ClosedDocs, paced: w.pacedDocs(w.PacedSeconds)}
	in, err := generate(w, p, w.Churn, seed)
	if err != nil {
		t.Fatal(err)
	}
	return in, w
}

// TestGeneratorDeterministic pins the generated texts of seed 1: the
// same seed must give the same bytes on every machine and commit, or
// runs are not comparable.
func TestGeneratorDeterministic(t *testing.T) {
	const pinned = "86ca863a2f0891e5cb4bda56289c408274868a7bf00aa801b8d65fddedee9957"
	a, _ := quickInputs(t, 1)
	b, _ := quickInputs(t, 1)
	if textsHash(a) != textsHash(b) {
		t.Fatal("the same seed generated different texts")
	}
	if got := textsHash(a); got != pinned {
		t.Errorf("seed 1 texts hash to %s, pinned %s", got, pinned)
	}
	if c, _ := quickInputs(t, 2); textsHash(c) == textsHash(a) {
		t.Error("seeds 1 and 2 generated the same texts")
	}
}

// TestWordsSurvive checks, for every term a run can generate, that the
// default pipeline keeps its word whole: one token, not a stopword,
// unchanged by the stemmer. Words are distinct by construction, so terms
// and dictionary entries are then one to one.
func TestWordsSurvive(t *testing.T) {
	n := corpus.WSJConfig().DictSize + workloads[0].Canaries
	for id := 0; id < n; id++ {
		w := word(model.TermID(id))
		if toks := textproc.Tokens(w); len(toks) != 1 || toks[0] != w {
			t.Fatalf("term %d: %q tokenises to %q", id, w, toks)
		}
		if textproc.IsStopword(w) {
			t.Fatalf("term %d: %q is a stopword", id, w)
		}
		if s := textproc.Stem(w); s != w {
			t.Fatalf("term %d: %q stems to %q", id, w, s)
		}
	}
}

func TestCanariesOccurOnce(t *testing.T) {
	in, w := quickInputs(t, 1)
	if len(in.canaries) != w.Canaries {
		t.Fatalf("%d canaries, want %d", len(in.canaries), w.Canaries)
	}
	for j, c := range in.canaries {
		var at []int
		for i, d := range in.docs {
			if slices.Contains(strings.Fields(d), c) {
				at = append(at, i)
			}
		}
		if !slices.Equal(at, []int{in.canaryAt[j]}) {
			t.Errorf("canary %d (%q) occurs in documents %v, want only %d", j, c, at, in.canaryAt[j])
		}
		if in.canaryAt[j] < in.plan.pacedStart() {
			t.Errorf("canary %d lands at %d, before the paced phase at %d", j, in.canaryAt[j], in.plan.pacedStart())
		}
	}
}

// emitted fails unless res carries exactly the metrics defs names, each
// a finite number.
func emitted(t *testing.T, res *runResult, defs []metricDef) {
	t.Helper()
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok {
			t.Errorf("metric %s is in the manifest but was not emitted", d.Name)
		} else if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("metric %s = %v", d.Name, v)
		}
	}
	for name := range res.Metrics {
		if !slices.ContainsFunc(defs, func(d metricDef) bool { return d.Name == name }) {
			t.Errorf("metric %s was emitted but is not in the manifest", name)
		}
	}
	if res.Failed != 0 {
		t.Errorf("%d of %d operations failed: %v", res.Failed, res.Attempted, res.Notes)
	}
}

// TestQuickProfile runs every phase of every workload at a twentieth of
// the size: the untraced run with its canaries and reference check, and
// the traced pass with its byte-identical twins, server included.
func TestQuickProfile(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, err := runEndToEnd(w.quick(), 1, testOpts(t))
			if err != nil {
				t.Fatal(err)
			}
			emitted(t, res, endToEnd)
			for _, d := range endToEnd {
				if res.Metrics[d.Name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, must be positive", d.Name, res.Metrics[d.Name])
				}
			}
			res, err = runTraced(w.quick(), 1, testOpts(t))
			if err != nil {
				t.Fatal(err)
			}
			emitted(t, res, perLayer)
		})
	}
}

// TestTracedCountsRepeat runs the traced pass twice on one seed: every
// count must come out the same.
func TestTracedCountsRepeat(t *testing.T) {
	w := workloads[1].quick()
	a, err := runTraced(w, 5, testOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	b, err := runTraced(w, 5, testOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range perLayer {
		if d.Unit == "count" && !strings.HasPrefix(d.Name, "gen.") && a.Metrics[d.Name] != b.Metrics[d.Name] {
			t.Errorf("%s: %v then %v", d.Name, a.Metrics[d.Name], b.Metrics[d.Name])
		}
	}
}

// TestSelftest checks that the correctness gate bites: one corrupted
// canary and one corrupted sampled result must both count as failures.
func TestSelftest(t *testing.T) {
	opt := testOpts(t)
	opt.corrupt = true
	res, err := runEndToEnd(workloads[1].quick(), 1, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 2 {
		t.Errorf("%d failures reported, want the corrupted canary and the corrupted result: %v", res.Failed, res.Notes)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v %v %v", q1, q2, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	write := func(name string, ingest []float64, failed int) string {
		wr := workloadResult{Name: "many-queries"}
		for _, v := range ingest {
			m := map[string]float64{}
			for _, d := range endToEnd {
				m[d.Name] = 1
			}
			m["ingest_docs_per_s"] = v
			wr.Runs = append(wr.Runs, &runResult{Attempted: 10, Failed: failed, Metrics: m})
		}
		data, err := json.Marshal(results{Workloads: []workloadResult{wr}})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", []float64{1000, 1010, 990}, 0)
	for _, tc := range []struct {
		name    string
		ingest  []float64
		failed  int
		verdict string
		wantErr bool
	}{
		{"same", []float64{1005, 995, 1000}, 0, "ok", false},
		{"slower", []float64{700, 710, 690}, 0, "regressed", true},
		{"noisy", []float64{600, 1000, 1400}, 0, "unresolved", false},
		{"failing", []float64{1005, 995, 1000}, 1, "ok", true},
	} {
		var out bytes.Buffer
		err := compareFiles(base, write(tc.name+".json", tc.ingest, tc.failed), &out)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: error %v, want error %v", tc.name, err, tc.wantErr)
		}
		line := ""
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.Contains(l, "ingest_docs_per_s") {
				line = l
			}
		}
		if !strings.HasSuffix(line, tc.verdict) {
			t.Errorf("%s: verdict line %q, want %s", tc.name, line, tc.verdict)
		}
	}
}
