package harness

import (
	"fmt"
	"strings"
	"time"

	"ita/internal/core"
	"ita/internal/corpus"
	"ita/internal/stats"
	"ita/internal/vsm"
	"ita/internal/window"
)

// AblationProbeOrder (A1) compares the paper's greedy w_{Q,t}·c_t probe
// order against the original threshold algorithm's round-robin order.
// Both are correct; the greedy order should read fewer entries per
// search, visible in the SearchReads counter and the refill latency.
func AblationProbeOrder(p Profile, progress func(string)) Figure {
	const n = 1000
	warm := min(n, p.MaxWindow)
	greedy := EngineBuilder{Name: "ITA-greedy", Build: func(pol window.Policy) core.Engine { return core.NewITA(pol) }}
	rr := EngineBuilder{Name: "ITA-roundrobin", Build: func(pol window.Policy) core.Engine {
		return core.NewITA(pol, core.WithRoundRobinProbe())
	}}
	return sweep("ablation-probe",
		fmt.Sprintf("A1 — greedy vs round-robin list probing (N=%d, %s profile)", warm, p.Label),
		"n", []EngineBuilder{rr, greedy},
		[]float64{4, 10, 20, 40},
		func(x float64) string { return fmt.Sprintf("%.0f", x) },
		func(x float64) Spec { return p.spec(window.Count{N: warm}, int(x), warm) },
		progress)
}

// AblationRollup (A2) disables the roll-up of §III-B. Without it the
// monitored region only grows between refills, so more arrivals hit the
// threshold trees and more documents linger in R.
func AblationRollup(p Profile, progress func(string)) Figure {
	const n = 1000
	warm := min(n, p.MaxWindow)
	with := EngineBuilder{Name: "ITA", Build: func(pol window.Policy) core.Engine { return core.NewITA(pol) }}
	without := EngineBuilder{Name: "ITA-norollup", Build: func(pol window.Policy) core.Engine {
		return core.NewITA(pol, core.WithoutRollup())
	}}
	return sweep("ablation-rollup",
		fmt.Sprintf("A2 — roll-up enabled vs disabled (N=%d, %s profile)", warm, p.Label),
		"n", []EngineBuilder{without, with},
		[]float64{4, 10, 20, 40},
		func(x float64) string { return fmt.Sprintf("%.0f", x) },
		func(x float64) Spec { return p.spec(window.Count{N: warm}, int(x), warm) },
		progress)
}

// AblationKmax (A3) varies the Naïve competitor's view size: plain
// (kmax = k), the default doubling, and a quadrupling. Larger views
// rescan less often but pay more per arrival.
func AblationKmax(p Profile, progress func(string)) Figure {
	const n = 1000
	warm := min(n, p.MaxWindow)
	mk := func(name string, f func(k int) int) EngineBuilder {
		return EngineBuilder{Name: name, Build: func(pol window.Policy) core.Engine {
			return core.NewNaive(pol, core.WithKmax(f))
		}}
	}
	return sweep("ablation-kmax",
		fmt.Sprintf("A3 — Naïve view size kmax (N=%d, n=10, %s profile)", warm, p.Label),
		"kmax", []EngineBuilder{
			mk("Naive-k", func(k int) int { return k }),
			mk("Naive-2k", func(k int) int { return 2 * k }),
			mk("Naive-4k", func(k int) int { return 4 * k }),
		},
		[]float64{float64(p.K)},
		func(x float64) string { return fmt.Sprintf("k=%.0f", x) },
		func(x float64) Spec { return p.spec(window.Count{N: warm}, 10, warm) },
		progress)
}

// AblationPopularTerms (A4) swaps the paper's uniform query terms for
// Zipf-popular ones: queries then share terms with most documents, the
// hardest regime for threshold filtering.
func AblationPopularTerms(p Profile, progress func(string)) Figure {
	const n = 1000
	warm := min(n, p.MaxWindow)
	fig := sweep("ablation-popular",
		fmt.Sprintf("A4 — Zipf-popular query terms (N=%d, %s profile)", warm, p.Label),
		"n", []EngineBuilder{NaiveBuilder(), ITABuilder()},
		[]float64{4, 10, 20},
		func(x float64) string { return fmt.Sprintf("%.0f", x) },
		func(x float64) Spec {
			s := p.spec(window.Count{N: warm}, int(x), warm)
			s.PopularQ = true
			return s
		},
		progress)
	return fig
}

// SetupReport is experiment E0: it regenerates the corpus statistics the
// paper's §IV setup paragraph reports for WSJ and prints them beside the
// calibration targets.
type SetupReport struct {
	SampleDocs    int
	DictSize      int
	MeanTerms     float64
	MedianTerms   float64
	MeanTokens    float64
	DistinctSeen  int
	HeadTermShare float64 // fraction of postings owned by the 100 most popular terms
}

// Setup samples documents from the calibrated corpus and summarizes
// them.
func Setup(p Profile, sample int) (SetupReport, error) {
	cfg := p.corpusCfg()
	synth, err := corpus.NewSynth(cfg, vsm.Cosine{})
	if err != nil {
		return SetupReport{}, err
	}
	var terms stats.Summary
	var tokens stats.Summary
	seen := make(map[int]int)
	total := 0
	for i := 0; i < sample; i++ {
		freqs := synth.Freqs()
		terms.Add(float64(len(freqs)))
		tok := 0
		for id, f := range freqs {
			tok += f
			seen[int(id)]++
			total++
		}
		tokens.Add(float64(tok))
	}
	head := 0
	for id, c := range seen {
		if id < 100 {
			head += c
		}
	}
	return SetupReport{
		SampleDocs:    sample,
		DictSize:      cfg.DictSize,
		MeanTerms:     terms.Mean(),
		MedianTerms:   terms.Percentile(50),
		MeanTokens:    tokens.Mean(),
		DistinctSeen:  len(seen),
		HeadTermShare: float64(head) / float64(total),
	}, nil
}

// Format renders the setup report.
func (r SetupReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E0 — corpus calibration (paper: WSJ, 172,961 articles, 181,978-term dictionary)\n")
	fmt.Fprintf(&b, "  dictionary size                 %d\n", r.DictSize)
	fmt.Fprintf(&b, "  sampled documents               %d\n", r.SampleDocs)
	fmt.Fprintf(&b, "  mean distinct terms per doc     %.1f\n", r.MeanTerms)
	fmt.Fprintf(&b, "  median distinct terms per doc   %.1f\n", r.MedianTerms)
	fmt.Fprintf(&b, "  mean tokens per doc             %.1f\n", r.MeanTokens)
	fmt.Fprintf(&b, "  distinct terms observed         %d\n", r.DistinctSeen)
	fmt.Fprintf(&b, "  share of postings in top-100    %.1f%%\n", r.HeadTermShare*100)
	return b.String()
}

// AllFigures runs every paper figure in order.
func AllFigures(p Profile, progress func(string)) []Figure {
	return []Figure{
		Fig3a(p, progress),
		Fig3b(p, progress),
		Fig3aTime(p, progress),
		Headline(p, progress),
	}
}

// AllAblations runs every ablation study.
func AllAblations(p Profile, progress func(string)) []Figure {
	return []Figure{
		AblationProbeOrder(p, progress),
		AblationRollup(p, progress),
		AblationKmax(p, progress),
		AblationPopularTerms(p, progress),
	}
}

// Elapsed is a small helper used by the CLI to label progress lines.
func Elapsed(start time.Time) string {
	return time.Since(start).Round(time.Second).String()
}
