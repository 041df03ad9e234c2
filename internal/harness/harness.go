// Package harness runs the paper's experiments: it builds calibrated
// corpora, query workloads and Poisson streams, drives each engine
// through warm-up and a measured steady state, and renders the
// figure/table data the paper reports: the corpus calibration (E0),
// Fig. 3(a)/(b), the time-window variant, the headline ITA vs.
// Naïve/kmax comparison, and four ablations.
package harness

import (
	"fmt"
	"time"

	"ita/internal/core"
	"ita/internal/corpus"
	"ita/internal/model"
	"ita/internal/stats"
	"ita/internal/stream"
	"ita/internal/vsm"
	"ita/internal/window"
)

// Spec describes one measured point: an engine configuration driven by
// a fully specified workload.
type Spec struct {
	Policy      window.Policy
	NumQueries  int
	QueryLen    int
	K           int
	WarmDocs    int           // documents fed before registration/measurement
	MeasureDocs int           // events measured after warm-up
	MaxMeasure  time.Duration // wall-clock cap on the measurement loop
	MaxSetup    time.Duration // wall-clock cap on warm-up + registration; 0 = no cap
	Rate        float64       // Poisson arrival rate, docs/second
	Corpus      corpus.SynthConfig
	QuerySeed   int64
	PopularQ    bool // draw query terms from the corpus Zipf instead of uniformly
}

// Measurement is the outcome of one Spec run.
type Measurement struct {
	Events     int
	MeanMs     float64
	P50Ms      float64
	P95Ms      float64
	P99Ms      float64
	MaxMs      float64
	Wall       time.Duration
	Stats      core.Stats
	Truncated  bool // measurement loop hit MaxMeasure early
	Infeasible bool // setup exceeded MaxSetup; no measurement taken
	// RealTime is mean event cost divided by the mean inter-arrival gap:
	// above 1.0 the engine cannot keep up with the stream, the paper's
	// criterion for Naïve's missing point at N = 100,000.
	RealTime float64
	// QueueMeanMs / QueueP95Ms / QueueMaxMs come from a deterministic
	// single-server queue simulation replaying the measured service
	// times against the stream's actual Poisson arrival schedule. This
	// is the paper's metric — "the elapsed time between the arrival of
	// a new document and the point where all the query results are
	// updated" — which includes waiting behind earlier documents.
	// When RealTime exceeds 1 the queue diverges over the run, which is
	// how the paper's Naïve "becomes unstable" at N = 100,000.
	QueueMeanMs float64
	QueueP95Ms  float64
	QueueMaxMs  float64
}

// EngineBuilder constructs a fresh engine for a Spec's window policy.
type EngineBuilder struct {
	Name  string
	Build func(pol window.Policy) core.Engine
}

// ITABuilder is the paper's algorithm with default options.
func ITABuilder() EngineBuilder {
	return EngineBuilder{Name: "ITA", Build: func(pol window.Policy) core.Engine { return core.NewITA(pol) }}
}

// NaiveBuilder is the paper's competitor: Naïve enhanced with
// top-kmax views (kmax = 2k).
func NaiveBuilder() EngineBuilder {
	return EngineBuilder{Name: "Naive", Build: func(pol window.Policy) core.Engine { return core.NewNaive(pol) }}
}

// Run executes one point: generate workload, warm the window, register
// the queries, then measure per-event processing time over the
// steady-state stream.
func Run(b EngineBuilder, spec Spec) (Measurement, error) {
	qSynth, err := corpus.NewSynth(withSeed(spec.Corpus, spec.QuerySeed), vsm.Cosine{})
	if err != nil {
		return Measurement{}, fmt.Errorf("harness: query synth: %w", err)
	}
	queries := make([]*model.Query, spec.NumQueries)
	for i := range queries {
		if spec.PopularQ {
			queries[i] = qSynth.PopularQuery(model.QueryID(i+1), spec.K, spec.QueryLen)
		} else {
			queries[i] = qSynth.Query(model.QueryID(i+1), spec.K, spec.QueryLen)
		}
	}

	dSynth, err := corpus.NewSynth(spec.Corpus, vsm.Cosine{})
	if err != nil {
		return Measurement{}, fmt.Errorf("harness: doc synth: %w", err)
	}
	str := stream.New(dSynth.Document, spec.Rate, spec.Corpus.Seed+1, time.Unix(0, 0))

	eng := b.Build(spec.Policy)

	setupStart := time.Now()
	overBudget := func() bool {
		return spec.MaxSetup > 0 && time.Since(setupStart) > spec.MaxSetup
	}
	for i := 0; i < spec.WarmDocs; i++ {
		if err := eng.Process(str.Next()); err != nil {
			return Measurement{}, fmt.Errorf("harness: warm: %w", err)
		}
		if i%1024 == 0 && overBudget() {
			return Measurement{Infeasible: true}, nil
		}
	}
	for _, q := range queries {
		if err := eng.Register(q); err != nil {
			return Measurement{}, fmt.Errorf("harness: register: %w", err)
		}
		if overBudget() {
			return Measurement{Infeasible: true}, nil
		}
	}

	var sum stats.Summary
	var services []float64   // per-event service time, ms
	var arrivalsMs []float64 // stream arrival offsets, ms
	streamStart := str.Now()
	statsBefore := *eng.Stats()
	measureStart := time.Now()
	truncated := false
	for i := 0; i < spec.MeasureDocs; i++ {
		d := str.Next()
		arrivalsMs = append(arrivalsMs, float64(d.Arrival.Sub(streamStart).Nanoseconds())/1e6)
		t0 := time.Now()
		err := eng.Process(d)
		dt := time.Since(t0)
		if err != nil {
			return Measurement{}, fmt.Errorf("harness: measure: %w", err)
		}
		ms := float64(dt.Nanoseconds()) / 1e6
		sum.Add(ms)
		services = append(services, ms)
		if spec.MaxMeasure > 0 && time.Since(measureStart) > spec.MaxMeasure {
			truncated = i+1 < spec.MeasureDocs
			break
		}
	}
	gapMs := 1000.0 / spec.Rate
	m := Measurement{
		Events:    sum.N(),
		MeanMs:    sum.Mean(),
		P50Ms:     sum.Percentile(50),
		P95Ms:     sum.Percentile(95),
		P99Ms:     sum.Percentile(99),
		MaxMs:     sum.Max(),
		Wall:      time.Since(measureStart),
		Stats:     statsDelta(statsBefore, *eng.Stats()),
		Truncated: truncated,
		RealTime:  sum.Mean() / gapMs,
	}
	m.QueueMeanMs, m.QueueP95Ms, m.QueueMaxMs = simulateQueue(arrivalsMs, services)
	return m, nil
}

// statsDelta subtracts the pre-measurement counters so Measurement.Stats
// describes only the measured steady-state events, not warm-up or
// registration.
func statsDelta(before, after core.Stats) core.Stats {
	return core.Stats{
		Arrivals:          after.Arrivals - before.Arrivals,
		Expirations:       after.Expirations - before.Expirations,
		ProbeHits:         after.ProbeHits - before.ProbeHits,
		SearchReads:       after.SearchReads - before.SearchReads,
		RollupSteps:       after.RollupSteps - before.RollupSteps,
		RollupDrops:       after.RollupDrops - before.RollupDrops,
		Refills:           after.Refills - before.Refills,
		TreeUpdates:       after.TreeUpdates - before.TreeUpdates,
		IndexInserts:      after.IndexInserts - before.IndexInserts,
		IndexDeletes:      after.IndexDeletes - before.IndexDeletes,
		ScoreComputations: after.ScoreComputations - before.ScoreComputations,
		Rescans:           after.Rescans - before.Rescans,
	}
}

// simulateQueue replays measured service times through a single-server
// FIFO queue with the stream's real arrival schedule and returns
// summary latencies (arrival → results updated), the paper's metric.
func simulateQueue(arrivalsMs, servicesMs []float64) (mean, p95, max float64) {
	var lat stats.Summary
	clock := 0.0
	for i := range servicesMs {
		at := arrivalsMs[i]
		if clock < at {
			clock = at
		}
		clock += servicesMs[i]
		lat.Add(clock - at)
	}
	return lat.Mean(), lat.Percentile(95), lat.Max()
}

func withSeed(cfg corpus.SynthConfig, seed int64) corpus.SynthConfig {
	cfg.Seed = seed
	return cfg
}
