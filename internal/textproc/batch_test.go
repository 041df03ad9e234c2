package textproc

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"ita/internal/corpus"
	"ita/internal/model"
	"ita/internal/vsm"
)

// synthWord spells term t the way the benchmark does: five letters over
// sixteen consonants, which the default pipeline maps to terms one to
// one.
func synthWord(t model.TermID) string {
	const alphabet = "bcdfghjkmnpqrtvw"
	var b [5]byte
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = alphabet[t&15]
		t >>= 4
	}
	return string(b[:])
}

// synthTexts returns n texts shaped like the benchmark's documents: the
// WSJ-calibrated Zipf draws of corpus.Synth, each term spelled by
// synthWord and repeated by its frequency, in term order.
func synthTexts(tb testing.TB, seed int64, n int) []string {
	tb.Helper()
	cfg := corpus.WSJConfig()
	cfg.Seed = seed
	synth, err := corpus.NewSynth(cfg, vsm.Cosine{})
	if err != nil {
		tb.Fatal(err)
	}
	texts := make([]string, n)
	var sb strings.Builder
	for i := range texts {
		freqs := synth.Freqs()
		ids := make([]model.TermID, 0, len(freqs))
		for t := range freqs {
			ids = append(ids, t)
		}
		slices.Sort(ids)
		sb.Reset()
		for _, t := range ids {
			for range freqs[t] {
				sb.WriteString(synthWord(t))
				sb.WriteByte(' ')
			}
		}
		texts[i] = sb.String()
	}
	return texts
}

// analysed is one text's counts and cosine postings, copied out of the
// pipeline's scratch.
type analysed struct {
	counts   []model.TermCount
	postings []model.Posting
}

func analyse(counts []model.TermCount) analysed {
	return analysed{slices.Clone(counts), vsm.Cosine{}.Weigh(counts)}
}

// serialBatch analyses texts with one Counts call each.
func serialBatch(p *Pipeline, texts []string) []analysed {
	out := make([]analysed, len(texts))
	for i, text := range texts {
		out[i] = analyse(p.Counts(text))
	}
	return out
}

// funcBatch is a Batch over texts with its Emit in a function.
type funcBatch struct {
	texts []string
	emit  func(i int, counts []model.TermCount) error
}

func (b funcBatch) Len() int                                   { return len(b.texts) }
func (b funcBatch) Text(i int) string                          { return b.texts[i] }
func (b funcBatch) Emit(i int, counts []model.TermCount) error { return b.emit(i, counts) }

// sharedBatch analyses texts with one countBatch call that splits every
// round into the given number of shares, weighing inside the shares as
// the engine does.
func sharedBatch(t *testing.T, p *Pipeline, texts []string, shares int) []analysed {
	t.Helper()
	out := make([]analysed, len(texts))
	err := p.countBatch(funcBatch{texts, func(i int, counts []model.TermCount) error {
		out[i] = analyse(counts)
		return nil
	}}, func(int) int { return shares })
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// requireSameAnalysis fails unless got and want hold the same counts and
// bit-identical postings, and the pipelines the same dictionary, term by
// term in id order, and the same fixed bitset, length included.
func requireSameAnalysis(t *testing.T, what string, got, want []analysed, gp, wp *Pipeline) {
	t.Helper()
	for i := range want {
		if !slices.Equal(got[i].counts, want[i].counts) {
			t.Fatalf("%s: text %d counts %v, want %v", what, i, got[i].counts, want[i].counts)
		}
		if !slices.EqualFunc(got[i].postings, want[i].postings, func(a, b model.Posting) bool {
			return a.Term == b.Term && math.Float64bits(a.Weight) == math.Float64bits(b.Weight)
		}) {
			t.Fatalf("%s: text %d postings %v, want %v", what, i, got[i].postings, want[i].postings)
		}
	}
	if !slices.Equal(dictTerms(gp.dict), dictTerms(wp.dict)) {
		t.Fatalf("%s: dictionary of %d terms differs from the serial one of %d", what, gp.dict.Size(), wp.dict.Size())
	}
	if !slices.Equal(gp.fixed, wp.fixed) {
		t.Fatalf("%s: fixed bitset of %d words differs from the serial one of %d", what, len(gp.fixed), len(wp.fixed))
	}
}

// analyzeStream is TestAnalyzeSharesIdentical's batches, in order.
func analyzeStream(t *testing.T) [][]string {
	synth := synthTexts(t, 7, 150)
	var sameNew []string
	for i := range 12 {
		text := fmt.Sprintf("filing %d report", i)
		if i%3 == 1 {
			text += " Quixotic QUIXOTIC quixotically" // several texts introduce the same new terms
		}
		sameNew = append(sameNew, text)
	}
	return [][]string{
		synth[:140], // a cold dictionary: three rounds, the first almost all misses
		sameNew,
		{
			"KELVIN Kelvin kelvin KK", // the Kelvin sign lowercases to ASCII 'k'
			"Müller MÜLLER müller résumé RÉSUMÉ",
			"İstanbul istanbul ISTANBUL straße STRASSE strasse",
			"東京 ΣΣ σσ ñu éé é1 1é \xff\xfe ab",
			"Crude OIL crude oil CRUDE Oil",
		},
		{
			"the walls were walling and the runners ran",
			"wall WALL run runner",
			"the of and to in",
			"",
			"walls wall walling ones on one",
			"",
			"Running runs run RUN",
		},
		{
			// Terms an earlier batch interned from inflected surfaces only,
			// now seen as their own surface: marks for phase 2.
			"quixot filing",
			"runner RUNNER walls",
			"",
			"quixot wall",
		},
		append(slices.Clone(synth[100:]), synth[:20]...), // a warm dictionary: a few new terms
	}
}

// TestAnalyzeSharesIdentical analyses one stream of batches at share
// counts 1–4 through the internal entry point, under every stem and
// stopword setting, and requires each to match serial Counts exactly
// after every batch: the same counts and postings for every text, the
// same dictionary order and the same fixed bitset. The stream starts on
// a cold dictionary, has several texts of one batch introduce the same
// new term, and covers uppercase, non-ASCII text, the Kelvin sign,
// stopwords, inflected words, all-stopword and empty texts, and known
// terms first seen as their own surface.
func TestAnalyzeSharesIdentical(t *testing.T) {
	stream := analyzeStream(t)
	for _, cfg := range []struct{ stem, stop bool }{{true, true}, {true, false}, {false, true}, {false, false}} {
		for shares := 1; shares <= 4; shares++ {
			serial := NewPipeline(NewDictionary(), cfg.stem, cfg.stop)
			shared := NewPipeline(NewDictionary(), cfg.stem, cfg.stop)
			for b, texts := range stream {
				want := serialBatch(serial, texts)
				got := sharedBatch(t, shared, texts, shares)
				requireSameAnalysis(t, fmt.Sprintf("%+v, %d shares, batch %d", cfg, shares, b), got, want, shared, serial)
			}
			if shares > 1 && len(shared.shares) != shares {
				t.Fatalf("%+v: %d shares allocated, want %d", cfg, len(shared.shares), shares)
			}
		}
	}
}

// TestCountBatchStopsAtFirstError: when Emit fails for one text, the
// batch returns that error, and the dictionary and fixed bitset hold
// exactly what serial Counts of the texts up to it leaves, whichever
// share the failing text fell in. The dictionary is warm, so most texts
// are emitted, and fail, in phase 1, while every seventh brings new
// terms and is held for phase 2.
func TestCountBatchStopsAtFirstError(t *testing.T) {
	warm := synthTexts(t, 11, 100)
	texts := slices.Clone(warm)
	for k, text := range synthTexts(t, 12, 15) {
		texts[7*k] = text
	}
	errStop := errors.New("stop")
	for shares := 1; shares <= 4; shares++ {
		for _, stop := range []int{0, 1, 17, 40, 63, 64, 70, 99} {
			serial, p := NewPipeline(NewDictionary(), true, true), NewPipeline(NewDictionary(), true, true)
			serialBatch(serial, warm)
			serialBatch(serial, texts[:stop+1])
			serialBatch(p, warm)
			err := p.countBatch(funcBatch{texts, func(i int, _ []model.TermCount) error {
				if i >= stop {
					return fmt.Errorf("text %d: %w", i, errStop)
				}
				return nil
			}}, func(int) int { return shares })
			if want := fmt.Sprintf("text %d: stop", stop); err == nil || err.Error() != want {
				t.Fatalf("%d shares, stop at %d: error %v, want %q", shares, stop, err, want)
			}
			requireSameAnalysis(t, fmt.Sprintf("%d shares, stop at %d", shares, stop), nil, nil, p, serial)
		}
	}
}

// BenchmarkAnalyzeBatch analyses 64 benchmark-shaped documents, the
// benchmark's closed-loop epoch, in one CountBatch call, serially and at
// the default share count: over a warm dictionary that holds every term
// already, and over a cold one, emptied before every call.
func BenchmarkAnalyzeBatch(b *testing.B) {
	texts := synthTexts(b, 1, 64)
	batch := funcBatch{texts, func(int, []model.TermCount) error { return nil }}
	for _, bc := range []struct {
		name   string
		warm   bool
		shares func(int) int
	}{
		{"warm/serial", true, func(int) int { return 1 }},
		{"warm/shared", true, analyzeShares},
		{"cold/serial", false, func(int) int { return 1 }},
		{"cold/shared", false, analyzeShares},
	} {
		b.Run(bc.name, func(b *testing.B) {
			p := NewPipeline(NewDictionary(), true, true)
			serialBatch(p, texts)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if !bc.warm {
					p.dict, p.fixed = NewDictionary(), nil
				}
				if err := p.countBatch(batch, bc.shares); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(texts)), "us/doc")
		})
	}
}

// TestShareBuffersShrink: a round over a dictionary that knows only a
// few texts' terms holds every text and fills the shares' buffers and
// scratch tables far past what warm rounds use; after enough warm rounds
// every one is back at its least size.
func TestShareBuffersShrink(t *testing.T) {
	texts := synthTexts(t, 3, 64)
	p := NewPipeline(NewDictionary(), true, true)
	serialBatch(p, synthTexts(t, 4, 4))
	sharedBatch(t, p, texts, 2)
	caps := func() (c [7]int) {
		for _, sh := range p.shares {
			for i, n := range [...]int{cap(sh.held), cap(sh.known), cap(sh.deferred), cap(sh.misses), cap(sh.terms), cap(sh.surfaces.locs), len(sh.surfaces.slots)} {
				c[i] = max(c[i], n)
			}
		}
		return c
	}
	cold := caps()
	for i, n := range cold[1:] { // a round holds 64 texts at most
		if n <= 1024 {
			t.Fatalf("buffer %d: capacity %d after the cold round, want far above the least size (all: %v)", i+1, n, cold)
		}
	}
	for range 20 {
		sharedBatch(t, p, texts, 2)
	}
	// trim's least capacity is 256, and a table for 256 surfaces has 512 slots.
	if warm := caps(); slices.Max(warm[:6]) > 256 || warm[6] > 512 {
		t.Fatalf("capacities %v after warm rounds, %v after the cold one", warm, cold)
	}
}
