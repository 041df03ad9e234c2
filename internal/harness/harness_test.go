package harness

import (
	"strings"
	"testing"
	"time"

	"ita/internal/corpus"
	"ita/internal/window"
)

// tinyProfile keeps harness tests fast: small dictionary (alias-table
// construction dominates otherwise), few queries, short measurement.
func tinyProfile() Profile {
	return Profile{
		Label:       "test",
		Queries:     20,
		K:           5,
		MeasureDocs: 60,
		MaxMeasure:  5 * time.Second,
		MaxSetup:    10 * time.Second,
		MaxWindow:   200,
		Rate:        200,
		DictSize:    2000,
	}
}

func tinySpec(p Profile) Spec {
	s := p.spec(window.Count{N: 100}, 4, 100)
	return s
}

func TestRunProducesMeasurement(t *testing.T) {
	p := tinyProfile()
	m, err := Run(ITABuilder(), tinySpec(p))
	if err != nil {
		t.Fatal(err)
	}
	if m.Infeasible {
		t.Fatal("tiny spec infeasible")
	}
	if m.Events != p.MeasureDocs {
		t.Fatalf("events = %d, want %d", m.Events, p.MeasureDocs)
	}
	if m.MeanMs < 0 || m.P95Ms < m.P50Ms || m.MaxMs < m.P95Ms {
		t.Fatalf("inconsistent percentiles: %+v", m)
	}
	// Queue latency includes service time, so it can never undercut it.
	if m.QueueMeanMs < m.MeanMs-1e-9 || m.QueueMaxMs < m.QueueP95Ms-1e-9 {
		t.Fatalf("inconsistent queue latencies: %+v", m)
	}
	// Stats cover only the measured window, not warm-up.
	if m.Stats.Arrivals != uint64(p.MeasureDocs) {
		t.Fatalf("arrivals = %d, want %d", m.Stats.Arrivals, p.MeasureDocs)
	}
}

func TestRunNaive(t *testing.T) {
	p := tinyProfile()
	m, err := Run(NaiveBuilder(), tinySpec(p))
	if err != nil {
		t.Fatal(err)
	}
	if m.Stats.ScoreComputations == 0 {
		t.Fatal("naive should score every arrival")
	}
}

func TestRunRespectsSetupBudget(t *testing.T) {
	p := tinyProfile()
	s := tinySpec(p)
	s.WarmDocs = 1 << 30 // absurd warm-up
	s.MaxSetup = 50 * time.Millisecond
	m, err := Run(ITABuilder(), s)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Infeasible {
		t.Fatal("expected infeasible measurement")
	}
}

func TestFigureSweepAndFormat(t *testing.T) {
	p := tinyProfile()
	p.MeasureDocs = 30
	fig := sweep("t", "Test figure", "n",
		[]EngineBuilder{NaiveBuilder(), ITABuilder()},
		[]float64{2, 4},
		func(x float64) string { return "n" + string(rune('0'+int(x))) },
		func(x float64) Spec { return p.spec(window.Count{N: 50}, int(x), 50) },
		nil)
	if fig.Err != nil {
		t.Fatal(fig.Err)
	}
	if len(fig.Points) != 2 || len(fig.Points[0].M) != 2 {
		t.Fatalf("sweep shape wrong: %+v", fig)
	}
	out := fig.Format()
	for _, want := range []string{"Test figure", "Naive ms", "ITA ms", "speedup"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format missing %q:\n%s", want, out)
		}
	}
	csv := fig.CSV()
	if !strings.Contains(csv, "Naive_mean_ms") || len(strings.Split(strings.TrimSpace(csv), "\n")) != 3 {
		t.Fatalf("CSV malformed:\n%s", csv)
	}
}

func TestITABeatsNaiveOnPaperShapedWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short mode")
	}
	// A scaled-down Fig 3(a) point: ITA's mean event cost must be lower
	// than Naïve's. This is the paper's core claim; the margin is
	// asserted loosely (>1.5×) to stay robust on slow CI machines.
	p := Profile{
		Label:       "shape",
		Queries:     200,
		K:           10,
		MeasureDocs: 400,
		MaxMeasure:  30 * time.Second,
		MaxSetup:    60 * time.Second,
		MaxWindow:   1000,
		Rate:        200,
		DictSize:    50000,
	}
	spec := p.spec(window.Count{N: 1000}, 10, 1000)
	naive, err := Run(NaiveBuilder(), spec)
	if err != nil {
		t.Fatal(err)
	}
	ita, err := Run(ITABuilder(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if ita.MeanMs*1.5 > naive.MeanMs {
		t.Fatalf("ITA %.4fms vs Naive %.4fms: expected ≥1.5x speedup", ita.MeanMs, naive.MeanMs)
	}
	t.Logf("ITA %.4f ms, Naive %.4f ms, speedup %.1fx", ita.MeanMs, naive.MeanMs, naive.MeanMs/ita.MeanMs)
}

func TestSetupReport(t *testing.T) {
	p := tinyProfile()
	r, err := Setup(p, 200)
	if err != nil {
		t.Fatal(err)
	}
	if r.SampleDocs != 200 || r.DictSize != p.DictSize {
		t.Fatalf("report = %+v", r)
	}
	if r.MeanTerms <= 0 || r.MeanTokens < r.MeanTerms {
		t.Fatalf("implausible term stats: %+v", r)
	}
	if r.HeadTermShare <= 0 || r.HeadTermShare >= 1 {
		t.Fatalf("head share = %f", r.HeadTermShare)
	}
	out := r.Format()
	if !strings.Contains(out, "dictionary size") {
		t.Fatalf("Format output: %s", out)
	}
}

func TestSetupCorpusCalibration(t *testing.T) {
	// E0 at full scale: the real dictionary size and the WSJ-like
	// document length band. Uses a moderate sample to bound runtime.
	if testing.Short() {
		t.Skip("full-dictionary calibration skipped in -short mode")
	}
	cfg := corpus.WSJConfig()
	if cfg.DictSize != 181978 {
		t.Fatalf("dictionary size %d, want the paper's 181,978", cfg.DictSize)
	}
	p := PaperProfile()
	r, err := Setup(p, 500)
	if err != nil {
		t.Fatal(err)
	}
	if r.MeanTerms < 120 || r.MeanTerms > 240 {
		t.Fatalf("mean distinct terms %f outside WSJ-like band", r.MeanTerms)
	}
}

func TestQuickProfileFiguresRun(t *testing.T) {
	if testing.Short() {
		t.Skip("figure smoke test skipped in -short mode")
	}
	p := tinyProfile()
	p.MeasureDocs = 20
	fig := Headline(p, nil)
	if fig.Err != nil {
		t.Fatal(fig.Err)
	}
	if len(fig.Points) != 1 || len(fig.Points[0].M) != 3 {
		t.Fatalf("headline shape: %+v", fig.Points)
	}
}
