package harness

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"time"

	"ita/internal/core"
	"ita/internal/corpus"
	"ita/internal/model"
	"ita/internal/shard"
	"ita/internal/stream"
	"ita/internal/vsm"
	"ita/internal/window"
)

// BatchPoint is one (engine configuration, epoch size) cell of the
// batch sweep.
type BatchPoint struct {
	Config       string  `json:"config"` // "single" or "sharded-N"
	Shards       int     `json:"shards"` // 0 for the single-threaded engine
	EpochSize    int     `json:"epoch_size"`
	Events       int     `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	MeanMs       float64 `json:"mean_ms"`
	WallMs       float64 `json:"wall_ms"`
	// SpeedupVsB1 is this cell's events/sec over the same engine
	// configuration at epoch size 1 (an epoch per document) — the
	// amortization larger epochs buy, isolated from parallelism.
	SpeedupVsB1 float64 `json:"speedup_vs_b1"`
	// Refills and IndexOps explain the speedup: net-effect maintenance
	// and transient elision shrink both with growing epochs.
	Refills  uint64 `json:"refills"`
	IndexOps uint64 `json:"index_ops"`
}

// BatchReport is the outcome of the epoch-size sweep: steady-state
// events/sec of the single-threaded and sharded ITA engines at several
// epoch sizes B, on a many-query workload. B=1 is an epoch per
// document; larger epochs amortize index mutation, affected-query
// probing and (for the sharded engine) the fan-out barrier across the
// batch. Hardware context is recorded because the fan-out part of the
// story needs real cores.
type BatchReport struct {
	Queries    int          `json:"queries"`
	QueryLen   int          `json:"query_len"`
	K          int          `json:"k"`
	Window     int          `json:"window"`
	DictSize   int          `json:"dict_size"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	NumCPU     int          `json:"num_cpu"`
	Points     []BatchPoint `json:"points"`
}

// epochEngine is an engine that takes whole epochs: ITA or the sharded
// ITA.
type epochEngine interface {
	core.Engine
	core.EpochProcessor
}

// BatchSweep measures steady-state event throughput at every epoch size
// in epochSizes, for the single-threaded ITA and the sharded engine at
// every count in shardCounts, all on the same synthetic workload of
// `queries` standing queries over a count window of `win` documents.
// Events are fed through ProcessEpoch in chunks of the epoch size.
func BatchSweep(p Profile, queries, queryLen, win int, epochSizes, shardCounts []int, events int, progress func(string)) (BatchReport, error) {
	cfg := p.corpusCfg()
	rep := BatchReport{
		Queries:    queries,
		QueryLen:   queryLen,
		K:          p.K,
		Window:     win,
		DictSize:   cfg.DictSize,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}

	type engineCfg struct {
		name   string
		shards int
		build  func() (epochEngine, func())
	}
	pol := window.Count{N: win}
	var engines []engineCfg
	engines = append(engines, engineCfg{
		name: "single", shards: 0,
		build: func() (epochEngine, func()) { return core.NewITA(pol), func() {} },
	})
	for _, s := range shardCounts {
		s := s
		eng := shard.New(pol, s) // resolve the auto count for the label
		name := fmt.Sprintf("sharded-%d", eng.Shards())
		resolved := eng.Shards()
		eng.Close()
		engines = append(engines, engineCfg{
			name: name, shards: resolved,
			build: func() (epochEngine, func()) {
				e := shard.New(pol, resolved)
				return e, func() { e.Close() }
			},
		})
	}

	for _, ec := range engines {
		first := len(rep.Points)
		for _, b := range epochSizes {
			if progress != nil {
				progress(fmt.Sprintf("batch sweep: %s B=%d (%d queries)", ec.name, b, queries))
			}
			eng, done := ec.build()
			pt, err := runBatchCell(p, cfg, eng, queries, queryLen, win, b, events)
			done()
			if err != nil {
				return rep, err
			}
			pt.Config = ec.name
			pt.Shards = ec.shards
			rep.Points = append(rep.Points, pt)
		}
		// Normalize against this configuration's B=1 cell wherever it
		// appears in the sweep; without one the ratio is undefined and
		// stays 0 (rendered as "-").
		var b1 float64
		for _, pt := range rep.Points[first:] {
			if pt.EpochSize == 1 {
				b1 = pt.EventsPerSec
			}
		}
		if b1 > 0 {
			for i := range rep.Points[first:] {
				rep.Points[first+i].SpeedupVsB1 = rep.Points[first+i].EventsPerSec / b1
			}
		}
	}
	return rep, nil
}

func runBatchCell(p Profile, cfg corpus.SynthConfig, eng epochEngine, queries, queryLen, win, epochSize, events int) (BatchPoint, error) {
	pt := BatchPoint{EpochSize: epochSize}
	qSynth, err := corpus.NewSynth(withSeed(cfg, 7777), vsm.Cosine{})
	if err != nil {
		return pt, err
	}
	dSynth, err := corpus.NewSynth(cfg, vsm.Cosine{})
	if err != nil {
		return pt, err
	}
	str := stream.New(dSynth.Document, p.Rate, cfg.Seed+1, time.Unix(0, 0))
	for i := 0; i < win; i++ {
		if err := eng.Process(str.Next()); err != nil {
			return pt, err
		}
	}
	for i := 0; i < queries; i++ {
		if err := eng.Register(qSynth.Query(model.QueryID(i+1), p.K, queryLen)); err != nil {
			return pt, err
		}
	}
	// Pre-generate the measured stream so document synthesis stays out
	// of the timed loop — the sweep compares engine cost, not corpus
	// generation.
	docs := make([]*model.Document, events)
	for i := range docs {
		docs[i] = str.Next()
	}
	statsBefore := *eng.Stats()
	done := 0
	start := time.Now()
	for done < events {
		n := epochSize
		if rem := events - done; n > rem {
			n = rem
		}
		if err := eng.ProcessEpoch(docs[done : done+n]); err != nil {
			return pt, err
		}
		done += n
		if p.MaxMeasure > 0 && time.Since(start) > p.MaxMeasure {
			break
		}
	}
	wall := time.Since(start)
	stats := eng.Stats()
	pt.Events = done
	pt.MeanMs = float64(wall.Nanoseconds()) / 1e6 / float64(done)
	pt.WallMs = float64(wall.Nanoseconds()) / 1e6
	pt.EventsPerSec = float64(done) / wall.Seconds()
	pt.Refills = stats.Refills - statsBefore.Refills
	pt.IndexOps = stats.IndexInserts + stats.IndexDeletes -
		statsBefore.IndexInserts - statsBefore.IndexDeletes
	return pt, nil
}

// Format renders the report as an aligned text table.
func (r BatchReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "epoch batch sweep — %d queries (n=%d, k=%d), window N=%d, GOMAXPROCS=%d\n",
		r.Queries, r.QueryLen, r.K, r.Window, r.GOMAXPROCS)
	fmt.Fprintf(&b, "%-12s%6s%10s%14s%12s%12s%10s%12s\n",
		"config", "B", "events", "events/sec", "mean ms", "refills", "idx ops", "vs B=1")
	for _, pt := range r.Points {
		speedup := "-"
		if pt.SpeedupVsB1 > 0 {
			speedup = fmt.Sprintf("%.2fx", pt.SpeedupVsB1)
		}
		fmt.Fprintf(&b, "%-12s%6d%10d%14.1f%12.4f%12d%10d%12s\n",
			pt.Config, pt.EpochSize, pt.Events, pt.EventsPerSec, pt.MeanMs,
			pt.Refills, pt.IndexOps, speedup)
	}
	if r.GOMAXPROCS == 1 {
		fmt.Fprintf(&b, "note: GOMAXPROCS=1 — the sharded rows measure the barrier amortization only; parallel fan-out speedup needs real cores.\n")
	}
	return b.String()
}

// JSON renders the report for BENCH_*.json files.
func (r BatchReport) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }
