package textproc

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ita/internal/model"
	"ita/internal/vsm"
)

func TestTokenizeBasics(t *testing.T) {
	got := Tokens("The quick, brown fox -- jumped! Over 12 lazy dogs.")
	want := []string{"the", "quick", "brown", "fox", "jumped", "over", "lazy", "dogs"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokens = %v, want %v", got, want)
	}
}

func TestTokenizeDropsBareNumbersAndSingles(t *testing.T) {
	got := Tokens("7 500 a I x2 2x q10")
	// "7", "500" have no letter; "a", "I" are length 1; the rest stay.
	want := []string{"x2", "2x", "q10"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokens = %v, want %v", got, want)
	}
}

func TestTokenizeEmptyAndPunctuation(t *testing.T) {
	if got := Tokens(""); got != nil {
		t.Fatalf("Tokens(\"\") = %v", got)
	}
	if got := Tokens("!!! ... ---"); got != nil {
		t.Fatalf("Tokens(punct) = %v", got)
	}
}

func TestTokenizeUnicode(t *testing.T) {
	got := Tokens("Müller résumé 東京")
	want := []string{"müller", "résumé", "東京"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokens = %v, want %v", got, want)
	}
}

func TestIsStopword(t *testing.T) {
	for _, w := range []string{"the", "and", "of", "is", "with"} {
		if !IsStopword(w) {
			t.Errorf("IsStopword(%q) = false", w)
		}
	}
	for _, w := range []string{"weapons", "market", "tower", "white"} {
		if IsStopword(w) {
			t.Errorf("IsStopword(%q) = true", w)
		}
	}
}

func TestDictionaryInternStableIDs(t *testing.T) {
	d := NewDictionary()
	a := d.Intern("alpha")
	b := d.Intern("beta")
	if a == b {
		t.Fatal("distinct terms share an id")
	}
	if got := d.Intern("alpha"); got != a {
		t.Fatalf("re-intern changed id: %d vs %d", got, a)
	}
	if d.Size() != 2 {
		t.Fatalf("Size = %d", d.Size())
	}
	if d.Term(a) != "alpha" || d.Term(b) != "beta" {
		t.Fatal("Term round-trip failed")
	}
	if _, ok := d.Lookup("gamma"); ok {
		t.Fatal("Lookup of unknown term succeeded")
	}
}

func TestDictionaryTermPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Term on unknown id did not panic")
		}
	}()
	NewDictionary().Term(99)
}

func TestPipelineTermFreqs(t *testing.T) {
	d := NewDictionary()
	p := NewPipeline(d, true, true)
	freqs := p.TermFreqs("The white tower; the white, WHITE walls!")
	// stopwords: the, the → removed. Stems: white→white, tower→tower,
	// walls→wall.
	if len(freqs) != 3 {
		t.Fatalf("got %d distinct terms, want 3: %v", len(freqs), freqs)
	}
	white, _ := d.Lookup("white")
	tower, _ := d.Lookup("tower")
	wall, _ := d.Lookup("wall")
	if freqs[white] != 3 {
		t.Errorf("f(white) = %d, want 3", freqs[white])
	}
	if freqs[tower] != 1 {
		t.Errorf("f(tower) = %d, want 1", freqs[tower])
	}
	if freqs[wall] != 1 {
		t.Errorf("f(wall) = %d, want 1", freqs[wall])
	}
}

func TestPipelineNoStemNoStop(t *testing.T) {
	d := NewDictionary()
	p := NewPipeline(d, false, false)
	freqs := p.TermFreqs("the walls the")
	theID, _ := d.Lookup("the")
	wallsID, _ := d.Lookup("walls")
	if freqs[theID] != 2 || freqs[wallsID] != 1 {
		t.Fatalf("freqs = %v", freqs)
	}
}

func TestPipelineQueryDocAgreement(t *testing.T) {
	// A query and a document mentioning the same inflected words must
	// land on the same term ids — the property continuous matching
	// depends on.
	d := NewDictionary()
	p := NewPipeline(d, true, true)
	doc := p.TermFreqs("Weapons of mass destruction were found.")
	query := p.TermFreqs("weapon mass destructions")
	matches := 0
	for id := range query {
		if _, ok := doc[id]; ok {
			matches++
		}
	}
	if matches != 3 {
		t.Fatalf("query/doc shared terms = %d, want 3 (doc=%v query=%v)", matches, dump(d, doc), dump(d, query))
	}
}

func dump(d *Dictionary, freqs map[model.TermID]int) map[string]int {
	out := make(map[string]int, len(freqs))
	for id, f := range freqs {
		out[d.Term(id)] = f
	}
	return out
}

// consonantDocs returns n documents shaped like the benchmark's: 320
// tokens of five-consonant words drawn from a Zipf distribution. No
// such word is a stopword or has a suffix to strip, so every token is
// its own term.
func consonantDocs(n int) []string {
	const alphabet = "bcdfghjkmnpqrtvw"
	z := rand.NewZipf(rand.New(rand.NewSource(1)), 1.1, 2, 1<<20-1)
	docs := make([]string, n)
	for i := range docs {
		var sb strings.Builder
		for range 320 {
			t := z.Uint64()
			for shift := 16; shift >= 0; shift -= 4 {
				sb.WriteByte(alphabet[t>>shift&15])
			}
			sb.WriteByte(' ')
		}
		docs[i] = sb.String()
	}
	return docs
}

// inflectedDoc is English prose whose words mostly carry a suffix, so
// the stemmer runs on nearly every token however often it was seen.
var inflectedDoc = strings.Repeat("Refineries reported falling outputs as tankers waited offshore; "+
	"analysts expected rising demand, but traders were selling futures and hedging positions. "+
	"Regulators announced investigations into pricing, citing complaints from airlines, "+
	"shipping companies and utilities struggling with the increasing costs of operations. ", 8)

func TestCountsDoesNotAllocate(t *testing.T) {
	p := NewPipeline(NewDictionary(), true, true)
	docs := append(consonantDocs(8), inflectedDoc)
	for _, d := range docs {
		p.Counts(d)
	}
	var w vsm.Weighter = vsm.Cosine{}
	i := 0
	if a := testing.AllocsPerRun(100, func() { p.Counts(docs[i%len(docs)]); i++ }); a != 0 {
		t.Errorf("Counts on seen documents: %v allocs per document, want 0", a)
	}
	// The one allocation is the composition list the Document keeps.
	if a := testing.AllocsPerRun(100, func() { w.Weigh(p.Counts(docs[i%len(docs)])); i++ }); a != 1 {
		t.Errorf("Counts+Weigh on seen documents: %v allocs per document, want 1", a)
	}
}

// BenchmarkAnalyze prices analysis plus weighing per document on a
// warmed pipeline: benchmark-shaped text, where every token takes the
// fixed-point path, and inflected prose, where most tokens are stemmed.
// Their vocabularies fit in L2. bigdict prices Counts alone on the
// benchmark's documents over a dictionary warmed with 150 000 synthWord
// terms first, the size of the benchmark's and the paper's
// dictionaries.
func BenchmarkAnalyze(b *testing.B) {
	for _, in := range []struct {
		name  string
		vocab int
		docs  []string
		weigh bool
	}{
		{"consonant", 0, consonantDocs(256), true},
		{"inflected", 0, []string{inflectedDoc}, true},
		{"bigdict", 150_000, synthTexts(b, 1, 256), false},
	} {
		b.Run(in.name, func(b *testing.B) {
			p := NewPipeline(NewDictionary(), true, true)
			var vocab strings.Builder
			for t := range in.vocab {
				vocab.WriteString(synthWord(model.TermID(t)))
				vocab.WriteByte(' ')
			}
			p.Counts(vocab.String())
			for _, d := range in.docs {
				p.Counts(d)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if counts := p.Counts(in.docs[i%len(in.docs)]); in.weigh {
					vsm.Cosine{}.Weigh(counts)
				}
			}
		})
	}
}
