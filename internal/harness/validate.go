package harness

import (
	"fmt"
	"strings"
	"time"

	"ita/internal/core"
	"ita/internal/corpus"
	"ita/internal/model"
	"ita/internal/stream"
	"ita/internal/vsm"
	"ita/internal/window"
)

// ValidationReport summarizes a cross-engine validation run: every
// engine's result compared against the brute-force oracle after every
// event of a benchmark-shaped stream, plus ITA's structural invariants.
type ValidationReport struct {
	Engines       []string
	Events        int
	Queries       int
	Comparisons   int
	Mismatches    []string // first few mismatch descriptions
	InvariantErrs []string
}

// OK reports whether the run found no disagreements.
func (r ValidationReport) OK() bool {
	return len(r.Mismatches) == 0 && len(r.InvariantErrs) == 0
}

// Format renders the report.
func (r ValidationReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "validation — %d events × %d queries, engines: %s\n",
		r.Events, r.Queries, strings.Join(r.Engines, ", "))
	fmt.Fprintf(&b, "  result comparisons: %d\n", r.Comparisons)
	if r.OK() {
		fmt.Fprintf(&b, "  all engines agree with the brute-force oracle; ITA invariants hold\n")
		return b.String()
	}
	for _, m := range r.Mismatches {
		fmt.Fprintf(&b, "  MISMATCH: %s\n", m)
	}
	for _, m := range r.InvariantErrs {
		fmt.Fprintf(&b, "  INVARIANT: %s\n", m)
	}
	return b.String()
}

// Validate drives ITA and Naïve through a scaled-down benchmark
// workload (real synthetic corpus, Poisson stream) and cross-checks
// every query's result against the Oracle after every event. It is the
// harness-level confidence check behind `itabench -exp validate`:
// unlike the unit tests, it runs on the exact workload distribution the
// figures use.
func Validate(p Profile, events int) (ValidationReport, error) {
	cfg := p.corpusCfg()
	// Scale down so the oracle's full scans stay tractable.
	if cfg.DictSize > 30000 {
		cfg.DictSize = 30000
	}
	const win = 60
	const nQueries = 40

	qSynth, err := corpus.NewSynth(withSeed(cfg, 4242), vsm.Cosine{})
	if err != nil {
		return ValidationReport{}, err
	}
	dSynth, err := corpus.NewSynth(cfg, vsm.Cosine{})
	if err != nil {
		return ValidationReport{}, err
	}
	pol := window.Count{N: win}
	oracle := core.NewOracle(pol)
	sharded := core.NewITA(pol, core.WithShards(4))
	defer sharded.Close()
	engines := []core.Engine{core.NewITA(pol), core.NewNaive(pol), sharded}
	names := []string{"ITA", "Naive", "ITA-sharded-4"}

	var queries []*model.Query
	for i := 0; i < nQueries; i++ {
		// Half the queries use Zipf-popular terms so results are
		// non-trivially populated inside the small validation window.
		var q *model.Query
		if i%2 == 0 {
			q = qSynth.PopularQuery(model.QueryID(i+1), 5, 4)
		} else {
			q = qSynth.Query(model.QueryID(i+1), 5, 4)
		}
		queries = append(queries, q)
		if err := oracle.Register(q); err != nil {
			return ValidationReport{}, err
		}
		for _, e := range engines {
			if err := e.Register(q); err != nil {
				return ValidationReport{}, err
			}
		}
	}

	str := stream.New(dSynth.Document, p.Rate, cfg.Seed+1, time.Unix(0, 0))
	rep := ValidationReport{Engines: names, Events: events, Queries: nQueries}
	var winDocs []*model.Document
	for step := 0; step < events; step++ {
		d := str.Next()
		winDocs = append(winDocs, d)
		if len(winDocs) > win {
			winDocs = winDocs[1:]
		}
		if err := oracle.Process(d); err != nil {
			return rep, err
		}
		for _, e := range engines {
			if err := e.Process(d); err != nil {
				return rep, err
			}
		}
		if step%16 == 0 {
			for ei, e := range engines {
				ck, ok := e.(interface{ CheckInvariants() error })
				if !ok {
					continue
				}
				if err := ck.CheckInvariants(); err != nil && len(rep.InvariantErrs) < 5 {
					rep.InvariantErrs = append(rep.InvariantErrs, fmt.Sprintf("%s event %d: %v", names[ei], step, err))
				}
			}
		}
		for _, q := range queries {
			want, _ := oracle.Result(q.ID)
			for ei, e := range engines {
				got, _ := e.Result(q.ID)
				rep.Comparisons++
				if msg := compare(names[ei], step, q, got, want, winDocs); msg != "" && len(rep.Mismatches) < 5 {
					rep.Mismatches = append(rep.Mismatches, msg)
				}
			}
		}
	}
	return rep, nil
}

func compare(tag string, step int, q *model.Query, got, want []model.ScoredDoc, win []*model.Document) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%s event %d query %d: %d results, oracle %d", tag, step, q.ID, len(got), len(want))
	}
	byID := map[model.DocID]*model.Document{}
	for _, d := range win {
		byID[d.ID] = d
	}
	for i := range got {
		if got[i].Score != want[i].Score {
			return fmt.Sprintf("%s event %d query %d pos %d: score %g, oracle %g", tag, step, q.ID, i, got[i].Score, want[i].Score)
		}
		d, ok := byID[got[i].Doc]
		if !ok {
			return fmt.Sprintf("%s event %d query %d: doc %d not in window", tag, step, q.ID, got[i].Doc)
		}
		if s := model.Score(q, d); s != got[i].Score {
			return fmt.Sprintf("%s event %d query %d: doc %d reported %g, true %g", tag, step, q.ID, got[i].Doc, got[i].Score, s)
		}
	}
	return ""
}
