package ita_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"ita/internal/harness"
)

// TestBenchJSONSchemas sanity-checks every checked-in BENCH_*.json
// artifact: each must parse, carry its hardware context (gomaxprocs,
// num_cpu) and a non-empty points array, and BENCH_SCALE.json must
// additionally match the scale schema — including the chained layout
// baselines, the ≥30% bytes/query reduction the dense layout holds
// against the original pointer-and-map layout, and the ingest-curve
// acceptance of the θ-ordered probe index: per-event probe-cost fields
// on every point, a curve ratio that rules out the old ingest cliff,
// and a 1M-query ingest rate at least 25× the pre-θ-index record.
func TestBenchJSONSchemas(t *testing.T) {
	files, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 7 {
		t.Fatalf("found %d BENCH_*.json files, want at least 7 (sharded, batch, reads, recovery, scale, failover, cluster)", len(files))
	}
	for _, f := range files {
		f := f
		t.Run(f, func(t *testing.T) {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			var generic struct {
				GOMAXPROCS int              `json:"gomaxprocs"`
				NumCPU     int              `json:"num_cpu"`
				Points     []map[string]any `json:"points"`
			}
			if err := json.Unmarshal(data, &generic); err != nil {
				t.Fatalf("%s does not parse: %v", f, err)
			}
			if generic.GOMAXPROCS <= 0 || generic.NumCPU <= 0 {
				t.Fatalf("%s missing hardware context: gomaxprocs=%d num_cpu=%d",
					f, generic.GOMAXPROCS, generic.NumCPU)
			}
			if len(generic.Points) == 0 {
				t.Fatalf("%s has no measurement points", f)
			}

			if f == "BENCH_FAILOVER.json" {
				var rep harness.FailoverReport
				if err := json.Unmarshal(data, &rep); err != nil {
					t.Fatal(err)
				}
				phases := map[string]int{}
				for _, pt := range rep.Points {
					phases[pt.Phase]++
					switch pt.Phase {
					case "steady":
						if pt.LagSamples <= 0 || pt.DrainMs <= 0 {
							t.Fatalf("malformed steady point %+v", pt)
						}
					case "catchup":
						if pt.BehindEpochs <= 0 || pt.CatchupMs <= 0 {
							t.Fatalf("malformed catchup point %+v", pt)
						}
					case "promote":
						if pt.PromoteMs <= 0 || pt.FirstReadMs <= 0 || !pt.PromotedOK {
							t.Fatalf("malformed promote point %+v", pt)
						}
					default:
						t.Fatalf("unknown failover phase %q", pt.Phase)
					}
				}
				if phases["steady"] == 0 || phases["catchup"] == 0 || phases["promote"] != 1 {
					t.Fatalf("failover report phase coverage %v, want steady, catchup cells and exactly one promote", phases)
				}
			}

			if f == "BENCH_CLUSTER.json" {
				var rep harness.ClusterReport
				if err := json.Unmarshal(data, &rep); err != nil {
					t.Fatal(err)
				}
				phases := map[string]int{}
				maxNodes := 0
				for _, pt := range rep.Points {
					phases[pt.Phase]++
					if !pt.EquivalentOK {
						t.Fatalf("cluster cell served diverged results: %+v", pt)
					}
					if pt.Nodes > maxNodes {
						maxNodes = pt.Nodes
					}
					switch pt.Phase {
					case "ingest":
						if pt.IngestPerSec <= 0 || pt.RelBaseline <= 0 {
							t.Fatalf("malformed ingest point %+v", pt)
						}
					case "read":
						if pt.MergedReadUs <= 0 || pt.OwnerReadUs <= 0 || pt.ReadIters <= 0 {
							t.Fatalf("malformed read point %+v", pt)
						}
					default:
						t.Fatalf("unknown cluster phase %q", pt.Phase)
					}
				}
				if phases["ingest"] < 2 || phases["read"] < 2 || maxNodes < 2 {
					t.Fatalf("cluster report phase coverage %v (max %d nodes), want ingest and read cells for a multi-node count",
						phases, maxNodes)
				}
			}

			if f != "BENCH_SCALE.json" {
				return
			}
			var rep harness.ScaleReport
			if err := json.Unmarshal(data, &rep); err != nil {
				t.Fatal(err)
			}
			if rep.Schema != harness.ScaleSchema {
				t.Fatalf("schema %q, want %q", rep.Schema, harness.ScaleSchema)
			}
			maxQ := 0
			for _, pt := range rep.Points {
				if pt.Queries <= 0 || pt.BytesPerQuery <= 0 || pt.IngestEvents <= 0 {
					t.Fatalf("malformed scale point %+v", pt)
				}
				if pt.ProbeHitsPerEvent <= 0 || pt.ScoreCompsPerEvent <= 0 {
					t.Fatalf("scale point at %d queries missing probe-cost fields: %+v", pt.Queries, pt)
				}
				if pt.Queries > maxQ {
					maxQ = pt.Queries
				}
			}
			if maxQ < 1_000_000 {
				t.Fatalf("scale sweep tops out at %d queries, want at least 1M", maxQ)
			}
			if rep.Baseline == nil || len(rep.Baseline.Points) == 0 {
				t.Fatal("scale report has no embedded baseline")
			}
			if rep.Layout == rep.Baseline.Layout {
				t.Fatalf("report and baseline both measure layout %q", rep.Layout)
			}

			// The ingest cliff this sweep exists to catch: the curve may
			// not collapse with query count, and the largest point must
			// beat the pre-θ-index record by the accepted 25×.
			if rep.IngestCurveRatio < 0.25 {
				t.Fatalf("ingest curve ratio %.3f, want >= 0.25 (events/s at %d queries collapses vs the smallest count)",
					rep.IngestCurveRatio, maxQ)
			}
			var prior1M float64
			for b := rep.Baseline; b != nil; b = b.Baseline {
				for _, pt := range b.Points {
					if pt.Queries == maxQ && pt.IngestPerSec > 0 {
						prior1M = pt.IngestPerSec // deepest chained record wins
					}
				}
			}
			cur1M := 0.0
			for _, pt := range rep.Points {
				if pt.Queries == maxQ {
					cur1M = pt.IngestPerSec
				}
			}
			if prior1M > 0 && cur1M < 25*prior1M {
				t.Fatalf("ingest at %d queries is %.1f events/s, want >= 25x the prior record's %.2f",
					maxQ, cur1M, prior1M)
			}

			// Memory claim: the dense layout's bytes/query reduction is
			// measured against the original pointer-and-map layout — the
			// deepest report in the baseline chain — at the largest query
			// count both sweeps share.
			deepest := rep.Baseline
			for deepest.Baseline != nil && len(deepest.Baseline.Points) > 0 {
				deepest = deepest.Baseline
			}
			var cur, old *harness.ScalePoint
			for i := range rep.Points {
				for j := range deepest.Points {
					if rep.Points[i].Queries == deepest.Points[j].Queries &&
						(cur == nil || rep.Points[i].Queries > cur.Queries) {
						cur, old = &rep.Points[i], &deepest.Points[j]
					}
				}
			}
			if cur == nil {
				t.Fatalf("no shared sweep point between layout %q and deepest baseline %q", rep.Layout, deepest.Layout)
			}
			if red := 100 * (1 - cur.BytesPerQuery/old.BytesPerQuery); red < 30 {
				t.Fatalf("bytes/query reduction vs %q is %.1f%%, want >= 30%%", deepest.Layout, red)
			}
		})
	}
}
