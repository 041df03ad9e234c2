package textproc

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"

	"ita/internal/model"
)

// dictTerms returns d's terms in id order.
func dictTerms(d *Dictionary) []string {
	terms := make([]string, d.Size())
	for i := range terms {
		terms[i] = d.Term(model.TermID(i))
	}
	return terms
}

// tableTerms returns n terms in an order that interleaves the table's
// awkward cases: lengths 1, 8, 9, 255 and 256, terms longer than one
// arena chunk, terms that differ only after byte 8, non-ASCII terms, and
// terms of the pipeline's five-letter shape. Most are distinct; a few
// repeat earlier ones.
func tableTerms(rng *rand.Rand, n int) []string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	word := func(l int) string {
		var sb strings.Builder
		for range l {
			sb.WriteByte(letters[rng.IntN(len(letters))])
		}
		return sb.String()
	}
	terms := make([]string, 0, n)
	for len(terms) < n {
		var t string
		switch k := rng.IntN(12); {
		case k < 4:
			t = word(5)
		case k == 4:
			t = word(1 + rng.IntN(9))
		case k == 5:
			t = "abcdefgh" + word(1+rng.IntN(3)) // equal inline prefix, differ after byte 8
		case k == 6:
			t = word(8)
		case k == 7:
			t = strings.Repeat("z", 250) + word(5+rng.IntN(2)) // 255 or 256 bytes
		case k == 8:
			t = []string{"é", "東京", "straße", "ñuñuñuñuñu", "σσ"}[rng.IntN(5)] + word(rng.IntN(3))
		case k == 9 && rng.IntN(50) == 0:
			t = strings.Repeat("q", chunkSize+rng.IntN(2*chunkSize)) + word(3)
		case k == 10 && len(terms) > 0:
			t = terms[rng.IntN(len(terms))]
		default:
			t = word(2 + rng.IntN(14))
		}
		terms = append(terms, t)
	}
	return terms
}

// checkAgainstMap interns terms into d and into a plain map and slice,
// looking up a known and an unknown term after every step, and requires
// the same ids, the same Term for every id and the same Size throughout.
func checkAgainstMap(t *testing.T, d *Dictionary, terms []string) {
	t.Helper()
	ids := make(map[string]model.TermID)
	var order []string
	for i, term := range terms {
		want, ok := ids[term]
		if !ok {
			want = model.TermID(len(order))
			ids[term] = want
			order = append(order, term)
		}
		if got := d.Intern(term); got != want {
			t.Fatalf("step %d: Intern(%.20q) = %d, map %d", i, term, got, want)
		}
		probe := terms[i/2]
		if got, ok := d.Lookup(probe); !ok || got != ids[probe] {
			t.Fatalf("step %d: Lookup(%.20q) = %d, %v, map %d", i, probe, got, ok, ids[probe])
		}
		absent := term + "\x00"
		if _, known := ids[absent]; !known {
			if got, ok := d.Lookup(absent); ok {
				t.Fatalf("step %d: Lookup of absent %.20q = %d", i, absent, got)
			}
		}
		if d.Size() != len(order) {
			t.Fatalf("step %d: Size %d, map %d", i, d.Size(), len(order))
		}
	}
	for id, term := range order {
		if got := d.Term(model.TermID(id)); got != term {
			t.Fatalf("Term(%d) = %.20q, map %.20q", id, got, term)
		}
		if got, ok := d.Lookup(term); !ok || got != model.TermID(id) {
			t.Fatalf("Lookup(%.20q) = %d, %v, map %d", term, got, ok, id)
		}
	}
}

// TestDictionaryMatchesMap holds the table to a plain map through more
// than three growths, with real hash tags and with every tag forced
// equal, so that every probe past the home slot compares prefixes and
// arena bytes.
func TestDictionaryMatchesMap(t *testing.T) {
	for _, collide := range []bool{false, true} {
		t.Run(fmt.Sprintf("collide=%v", collide), func(t *testing.T) {
			d := NewDictionary()
			if collide {
				d.tagMask = 0
			}
			terms := tableTerms(rand.New(rand.NewPCG(1, 2)), 3000)
			checkAgainstMap(t, d, terms)
			if len(d.slots) < minSlots<<3 {
				t.Fatalf("%d slots after %d terms: fewer than three growths", len(d.slots), d.Size())
			}
			if 4*d.Size() > 3*len(d.slots) {
				t.Fatalf("%d terms in %d slots: over three quarters full", d.Size(), len(d.slots))
			}
			if collide {
				for _, s := range d.slots {
					if s.id != 0 && s.meta>>8 != 0 {
						t.Fatalf("slot meta %#x has tag bits", s.meta)
					}
				}
			}
		})
	}
}

// TestDictionaryEdgeLengths interns the lengths where the layout
// changes, including the empty term and terms across arena chunks.
func TestDictionaryEdgeLengths(t *testing.T) {
	var terms []string
	for _, n := range []int{0, 1, 7, 8, 9, 254, 255, 256, chunkSize - 1, chunkSize, chunkSize + 1, 3*chunkSize + 5} {
		terms = append(terms, strings.Repeat("x", n), strings.Repeat("x", max(0, n-1))+"y")
	}
	terms = append(terms, terms...)
	checkAgainstMap(t, NewDictionary(), terms)
}

// TestDictionaryNoAllocs: Lookup, interning a known term and Term read
// the table and the arena and allocate nothing.
func TestDictionaryNoAllocs(t *testing.T) {
	d := NewDictionary()
	terms := []string{"ab", "bcdfg", "eightchr", "ninechars", strings.Repeat("long", 80), "東京"}
	for _, term := range terms {
		d.Intern(term)
	}
	i := 0
	for name, op := range map[string]func(){
		"Lookup": func() { d.Lookup(terms[i%len(terms)]) },
		"Intern": func() { d.Intern(terms[i%len(terms)]) },
		"Term":   func() { _ = d.Term(model.TermID(i % len(terms))) },
	} {
		if a := testing.AllocsPerRun(100, func() { op(); i++ }); a != 0 {
			t.Errorf("%s: %v allocs per call, want 0", name, a)
		}
	}
}

// TestDictionaryMemoryBytes: the gauge counts the slot table, the id
// table and the arena, and grows with the dictionary.
func TestDictionaryMemoryBytes(t *testing.T) {
	d := NewDictionary()
	empty := d.MemoryBytes()
	if empty != minSlots*16 {
		t.Fatalf("empty dictionary: %d bytes, want %d", empty, minSlots*16)
	}
	for i := range 1000 {
		d.Intern(synthWord(model.TermID(i)))
	}
	if got, least := d.MemoryBytes(), uint64(1000*(16+8)+chunkSize); got < least {
		t.Fatalf("1000 terms: %d bytes, want at least %d", got, least)
	}
}
