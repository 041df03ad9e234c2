package textproc

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"

	"ita/internal/model"
	"ita/internal/vsm"
)

// FuzzStem asserts structural safety of the stemmer on arbitrary input:
// no panics, output never empty for non-empty lowercase alphabetic
// input, output never longer than the input.
func FuzzStem(f *testing.F) {
	for _, seed := range []string{
		"", "a", "running", "caresses", "generalizations",
		"sssss", "yyyyy", "eeeee", "bly", "ies", "ational",
		"xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxation",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, word string) {
		got := Stem(word)
		if len(got) > len(word) {
			t.Fatalf("Stem(%q) = %q grew the word", word, got)
		}
		isLowerAlpha := len(word) > 0
		for i := 0; i < len(word); i++ {
			if word[i] < 'a' || word[i] > 'z' {
				isLowerAlpha = false
				break
			}
		}
		if isLowerAlpha && len(got) == 0 {
			t.Fatalf("Stem(%q) produced empty stem", word)
		}
		if !isLowerAlpha && got != word {
			t.Fatalf("Stem(%q) = %q; non-alphabetic input must pass through", word, got)
		}
	})
}

// FuzzTokenize asserts the tokenizer's contract on arbitrary (including
// invalid UTF-8) input: tokens are lowercase, at least two characters,
// contain a letter, and appear in the input order.
func FuzzTokenize(f *testing.F) {
	for _, seed := range []string{
		"", "hello world", "a b c", "x2 2x 42", "naïve café",
		"\xff\xfe broken utf8", "tabs\tand\nnewlines",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		Tokenize(text, func(tok string) {
			if utf8.RuneCountInString(tok) < 2 {
				t.Fatalf("token %q shorter than 2 runes", tok)
			}
			hasLetter := false
			for _, r := range tok {
				// Some letters (e.g. U+03D2 ϒ) are uppercase with no
				// lowercase mapping; "lowercased" means fixed under
				// ToLower, not absence of the Lu category.
				if r != unicode.ToLower(r) {
					t.Fatalf("token %q not lowercased", tok)
				}
				if unicode.IsLetter(r) {
					hasLetter = true
				}
			}
			if !hasLetter {
				t.Fatalf("token %q has no letter", tok)
			}
		})
	})
}

// The reference analysis for FuzzAnalyze: a map-based tokenizer,
// pipeline, stemmer and cosine weighting written the plain way, one
// string per token. Counts, Tokenize, Stem and vsm.Cosine.Weigh must
// agree with it exactly.

func refTokenize(text string, fn func(token string)) {
	start := -1
	runes := 0
	hasLetter := false
	flush := func(end int) {
		if start >= 0 && hasLetter && runes >= 2 {
			fn(strings.ToLower(text[start:end]))
		}
		start = -1
		runes = 0
		hasLetter = false
	}
	for i, r := range text {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start = i
			}
			runes++
			if unicode.IsLetter(r) {
				hasLetter = true
			}
			continue
		}
		flush(i)
	}
	flush(len(text))
}

func refStem(word string) string {
	if len(word) <= 2 {
		return word
	}
	for i := 0; i < len(word); i++ {
		if word[i] < 'a' || word[i] > 'z' {
			return word
		}
	}
	z := stemmer{b: []byte(word), k: len(word) - 1}
	z.step1ab()
	z.step1c()
	z.step2()
	z.step3()
	z.step4()
	z.step5()
	return string(z.b[:z.k+1])
}

// refDictionary is the dictionary as a map and a slice: ids in
// first-seen order from 0.
type refDictionary struct {
	ids   map[string]model.TermID
	terms []string
}

func newRefDictionary() *refDictionary {
	return &refDictionary{ids: make(map[string]model.TermID)}
}

func (d *refDictionary) Intern(term string) model.TermID {
	if id, ok := d.ids[term]; ok {
		return id
	}
	id := model.TermID(len(d.terms))
	d.ids[term] = id
	d.terms = append(d.terms, term)
	return id
}

func refTermFreqs(dict *refDictionary, stem, stop bool, text string) map[model.TermID]int {
	freqs := make(map[model.TermID]int)
	refTokenize(text, func(tok string) {
		if stop && IsStopword(tok) {
			return
		}
		if stem {
			tok = refStem(tok)
		}
		freqs[dict.Intern(tok)]++
	})
	return freqs
}

func refDocPostings(freqs map[model.TermID]int) []model.Posting {
	if len(freqs) == 0 {
		return nil
	}
	var norm float64
	for _, f := range freqs {
		norm += float64(f) * float64(f)
	}
	norm = math.Sqrt(norm)
	out := make([]model.Posting, 0, len(freqs))
	for t, f := range freqs {
		if f <= 0 {
			continue
		}
		out = append(out, model.Posting{Term: t, Weight: float64(f) / norm})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Term < out[j].Term })
	return out
}

// FuzzAnalyze is the differential oracle for the analysis fast path. The
// input is cut at '|' into up to four texts, which go through a fresh
// Pipeline and the reference, with its own map-based dictionary, twice
// over, so the second round takes the fixed-point path wherever the
// first round proved it. Under every stem/stop setting the dictionaries
// must match term by term in id order, the counts exactly, and the
// cosine postings bit for bit. The texts then go twice through
// CountBatch in two shares, which must match Counts to the fixed bitset.
func FuzzAnalyze(f *testing.F) {
	for _, seed := range []string{
		"The THE the",
		"\u212Aelvin KELVIN kelvin \u212A\u212A", // the Kelvin sign lowercases to ASCII 'k'
		"İstanbul istanbul ISTANBUL",
		"straße STRASSE strasse",
		"é1 1é ab",
		"\xff\xfe",
		"walls wall walling|WALLS",
		"ones on one|on ones",
		"12 345 6789 a1 1a",
		"éé 東京 ñu ΣΣ",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data string) {
		texts := strings.SplitN(data, "|", 4)
		for _, cfg := range []struct{ stem, stop bool }{{true, true}, {true, false}, {false, true}, {false, false}} {
			got, want := NewDictionary(), newRefDictionary()
			p := NewPipeline(got, cfg.stem, cfg.stop)
			for round := 0; round < 2; round++ {
				for _, text := range texts {
					counts := p.Counts(text)
					freqs := refTermFreqs(want, cfg.stem, cfg.stop, text)
					if len(counts) != len(freqs) {
						t.Fatalf("%+v %q: %d terms, reference %d", cfg, text, len(counts), len(freqs))
					}
					for _, c := range counts {
						if freqs[c.Term] != c.Count {
							t.Fatalf("%+v %q: term %d count %d, reference %d", cfg, text, c.Term, c.Count, freqs[c.Term])
						}
					}
					ps, ref := vsm.Cosine{}.Weigh(counts), refDocPostings(freqs)
					for i := range ref {
						if ps[i].Term != ref[i].Term || math.Float64bits(ps[i].Weight) != math.Float64bits(ref[i].Weight) {
							t.Fatalf("%+v %q: posting %d = %+v, reference %+v", cfg, text, i, ps[i], ref[i])
						}
					}
					if got.Size() != len(want.terms) {
						t.Fatalf("%+v %q: dictionary has %d terms, reference %d", cfg, text, got.Size(), len(want.terms))
					}
					for id, w := range want.terms {
						if g := got.Term(model.TermID(id)); g != w {
							t.Fatalf("%+v %q: term %d is %q, reference %q", cfg, text, id, g, w)
						}
						if g, ok := got.Lookup(w); !ok || g != model.TermID(id) {
							t.Fatalf("%+v %q: Lookup(%q) = %d, %v, reference %d", cfg, text, w, g, ok, id)
						}
					}
				}
			}
			// The same texts as one batch in two shares, twice over.
			serial, shared := NewPipeline(NewDictionary(), cfg.stem, cfg.stop), NewPipeline(NewDictionary(), cfg.stem, cfg.stop)
			for round := 0; round < 2; round++ {
				want := serialBatch(serial, texts)
				requireSameAnalysis(t, fmt.Sprintf("%+v, batch round %d", cfg, round), sharedBatch(t, shared, texts, 2), want, shared, serial)
			}
		}
		for _, text := range texts {
			var ref []string
			refTokenize(text, func(tok string) { ref = append(ref, tok) })
			if got := Tokens(text); !slices.Equal(got, ref) {
				t.Fatalf("Tokens(%q) = %q, reference %q", text, got, ref)
			}
			for _, tok := range ref {
				if got, want := Stem(tok), refStem(tok); got != want {
					t.Fatalf("Stem(%q) = %q, reference %q", tok, got, want)
				}
			}
		}
	})
}
