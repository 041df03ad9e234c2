package main

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"ita"
	"ita/internal/corpus"
	"ita/internal/model"
	"ita/internal/vsm"
)

// Words are five letters over sixteen consonants: no vowel means the
// Porter stemmer finds no measure to strip, no 's' means no plural
// rule fires, and no five-consonant string is a stopword, so the
// default pipeline maps words to terms one to one (TestWordsSurvive
// checks the whole dictionary).
const (
	wordAlphabet = "bcdfghjkmnpqrtvw"
	wordLen      = 5
)

func word(t model.TermID) string {
	var b [wordLen]byte
	for i := wordLen - 1; i >= 0; i-- {
		b[i] = wordAlphabet[t&15]
		t >>= 4
	}
	return string(b[:])
}

// streamBase is the arrival time of document 0; document i arrives one
// millisecond after document i-1. Count windows ignore the clock, but the
// engine requires non-decreasing arrivals.
var streamBase = time.Unix(1_600_000_000, 0)

func arrival(i int) time.Time { return streamBase.Add(time.Duration(i) * time.Millisecond) }

// plan fixes how a run's document stream splits into phases. Documents
// are consumed in stream order; every generated document is ingested.
type plan struct {
	fill, warm, closed, singles, paced int
}

func (p plan) total() int       { return p.fill + p.warm + p.closed + p.singles + p.paced }
func (p plan) pacedStart() int  { return p.fill + p.warm + p.closed + p.singles }
func (p plan) closedStart() int { return p.fill + p.warm }

// inputs is everything a run feeds the engine, generated from the seed
// before any clock starts.
type inputs struct {
	plan     plan
	docs     []string
	tokens   int      // tokens over all documents
	standing []string // standing query texts
	churn    []string // one fresh query text per churn pair
	canaries []string // canary query texts, one word each
	canaryAt []int    // stream index of the document carrying canary j's word
	terms    int      // distinct terms over everything above
	buildS   float64
}

// generate draws a run's inputs from corpus.Synth at the WSJ
// calibration. Canary terms lie past the synthetic dictionary, so each
// occurs in exactly the one document it is appended to.
func generate(w workload, p plan, churn int, seed int64) (*inputs, error) {
	start := time.Now()
	cfg := corpus.WSJConfig()
	cfg.Seed = seed
	synth, err := corpus.NewSynth(cfg, vsm.Cosine{})
	if err != nil {
		return nil, err
	}
	in := &inputs{plan: p, docs: make([]string, p.total())}
	seen := make([]bool, cfg.DictSize+w.Canaries)
	note := func(t model.TermID) {
		if !seen[t] {
			seen[t] = true
			in.terms++
		}
	}

	canaryDoc := make(map[int]model.TermID, w.Canaries)
	for j := 0; j < w.Canaries; j++ {
		t := model.TermID(cfg.DictSize + j)
		at := p.pacedStart() + (2*j+1)*p.paced/(2*w.Canaries)
		if _, taken := canaryDoc[at]; taken {
			return nil, fmt.Errorf("paced phase of %d documents is too short for %d canaries", p.paced, w.Canaries)
		}
		canaryDoc[at] = t
		in.canaries = append(in.canaries, word(t))
		in.canaryAt = append(in.canaryAt, at)
		note(t)
	}

	var sb strings.Builder
	var ids []model.TermID
	for i := range in.docs {
		freqs := synth.Freqs()
		ids = ids[:0]
		for t := range freqs {
			ids = append(ids, t)
		}
		slices.Sort(ids) // map order is random; the text must not be
		sb.Reset()
		for _, t := range ids {
			note(t)
			wd := word(t)
			for n := freqs[t]; n > 0; n-- {
				sb.WriteString(wd)
				sb.WriteByte(' ')
				in.tokens++
			}
		}
		if t, ok := canaryDoc[i]; ok {
			sb.WriteString(word(t))
			in.tokens++
		}
		in.docs[i] = sb.String()
	}

	queryText := func() string {
		var q *model.Query
		if w.Popular {
			q = synth.PopularQuery(1, topK, w.QueryTerms)
		} else {
			q = synth.Query(1, topK, w.QueryTerms)
		}
		words := make([]string, len(q.Terms))
		for i, qt := range q.Terms {
			note(qt.Term)
			words[i] = word(qt.Term)
		}
		return strings.Join(words, " ")
	}
	in.standing = make([]string, w.Queries)
	for i := range in.standing {
		in.standing[i] = queryText()
	}
	in.churn = make([]string, churn)
	for i := range in.churn {
		in.churn[i] = queryText()
	}
	in.buildS = time.Since(start).Seconds()
	return in, nil
}

// items returns documents [from, to) of the stream as ingest items.
func (in *inputs) items(from, to int) []ita.TimedText {
	out := make([]ita.TimedText, to-from)
	for i := range out {
		out[i] = ita.TimedText{Text: in.docs[from+i], At: arrival(from + i)}
	}
	return out
}
