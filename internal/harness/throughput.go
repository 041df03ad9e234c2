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

// ThroughputPoint is one engine configuration of the multi-query
// throughput experiment.
type ThroughputPoint struct {
	Config       string  `json:"config"` // "single" or "sharded-N"
	Shards       int     `json:"shards"` // 0 for the single-threaded engine
	Events       int     `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	MeanMs       float64 `json:"mean_ms"`
	WallMs       float64 `json:"wall_ms"`
	// SpeedupVsSingle is this configuration's events/sec over the
	// single-threaded engine's.
	SpeedupVsSingle float64 `json:"speedup_vs_single"`
}

// ThroughputReport is the outcome of the sharding throughput experiment:
// steady-state events/sec of the single-threaded ITA versus the sharded
// engine at several shard counts, on a many-query workload. Hardware
// context is recorded because the sharded engine's win is parallelism:
// with GOMAXPROCS=1 the fan-out can only add overhead, and the report
// says so rather than hiding it.
type ThroughputReport struct {
	Queries    int               `json:"queries"`
	QueryLen   int               `json:"query_len"`
	K          int               `json:"k"`
	Window     int               `json:"window"`
	BatchSize  int               `json:"batch_size"`
	DictSize   int               `json:"dict_size"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	NumCPU     int               `json:"num_cpu"`
	Points     []ThroughputPoint `json:"points"`
}

// Throughput measures steady-state event throughput (arrival +
// expiration + all query maintenance) on a workload of `queries`
// standing queries over a count window of `win` documents: first the
// single-threaded ITA, then the sharded engine at every count in
// shardCounts. Events are fed through ProcessEpoch in epochs of `batch`
// documents.
func Throughput(p Profile, queries, queryLen, win, batch int, shardCounts []int, events int, progress func(string)) (ThroughputReport, error) {
	cfg := p.corpusCfg()
	rep := ThroughputReport{
		Queries:    queries,
		QueryLen:   queryLen,
		K:          p.K,
		Window:     win,
		BatchSize:  batch,
		DictSize:   cfg.DictSize,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}

	run := func(name string, shards int, eng epochEngine) error {
		if progress != nil {
			progress(fmt.Sprintf("throughput: %s (%d queries)", name, queries))
		}
		qSynth, err := corpus.NewSynth(withSeed(cfg, 7777), vsm.Cosine{})
		if err != nil {
			return err
		}
		dSynth, err := corpus.NewSynth(cfg, vsm.Cosine{})
		if err != nil {
			return err
		}
		str := stream.New(dSynth.Document, p.Rate, cfg.Seed+1, time.Unix(0, 0))
		for i := 0; i < win; i++ {
			if err := eng.Process(str.Next()); err != nil {
				return err
			}
		}
		for i := 0; i < queries; i++ {
			if err := eng.Register(qSynth.Query(model.QueryID(i+1), p.K, queryLen)); err != nil {
				return err
			}
		}
		done := 0
		start := time.Now()
		for done < events {
			docs := make([]*model.Document, min(batch, events-done))
			for i := range docs {
				docs[i] = str.Next()
			}
			if err := eng.ProcessEpoch(docs); err != nil {
				return err
			}
			done += len(docs)
			if p.MaxMeasure > 0 && time.Since(start) > p.MaxMeasure {
				break
			}
		}
		wall := time.Since(start)
		pt := ThroughputPoint{
			Config: name,
			Shards: shards,
			Events: done,
			MeanMs: float64(wall.Nanoseconds()) / 1e6 / float64(done),
			WallMs: float64(wall.Nanoseconds()) / 1e6,
		}
		pt.EventsPerSec = float64(done) / wall.Seconds()
		if len(rep.Points) > 0 && rep.Points[0].EventsPerSec > 0 {
			pt.SpeedupVsSingle = pt.EventsPerSec / rep.Points[0].EventsPerSec
		} else {
			pt.SpeedupVsSingle = 1
		}
		rep.Points = append(rep.Points, pt)
		return nil
	}

	pol := window.Count{N: win}
	if err := run("single", 0, core.NewITA(pol)); err != nil {
		return rep, err
	}
	for _, s := range shardCounts {
		eng := shard.New(pol, s)
		err := run(fmt.Sprintf("sharded-%d", eng.Shards()), eng.Shards(), eng)
		eng.Close()
		if err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// Format renders the report as an aligned text table.
func (r ThroughputReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "throughput — %d queries (n=%d, k=%d), window N=%d, batch=%d, GOMAXPROCS=%d\n",
		r.Queries, r.QueryLen, r.K, r.Window, r.BatchSize, r.GOMAXPROCS)
	fmt.Fprintf(&b, "%-12s%10s%14s%12s%10s\n", "config", "events", "events/sec", "mean ms", "speedup")
	for _, pt := range r.Points {
		fmt.Fprintf(&b, "%-12s%10d%14.1f%12.4f%9.2fx\n",
			pt.Config, pt.Events, pt.EventsPerSec, pt.MeanMs, pt.SpeedupVsSingle)
	}
	if r.GOMAXPROCS == 1 {
		fmt.Fprintf(&b, "note: GOMAXPROCS=1 — shard fan-out cannot run in parallel on this host; expect the sharded rows to trail the single-threaded engine.\n")
	}
	return b.String()
}

// JSON renders the report for BENCH_*.json files.
func (r ThroughputReport) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }
