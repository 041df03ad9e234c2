package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ita/internal/model"
	"ita/internal/window"
)

// contGen builds documents with continuous random weights: exact score
// ties are measure-zero, so byte-identical result comparisons between
// maintenance schedules are well-defined.
type contGen struct {
	r      *rand.Rand
	nextID model.DocID
	seq    int
	vocab  int
}

func newContGen(seed int64, vocab int) *contGen {
	return &contGen{r: rand.New(rand.NewSource(seed)), nextID: 1, vocab: vocab}
}

func (g *contGen) doc(t *testing.T) *model.Document {
	t.Helper()
	nTerms := 1 + g.r.Intn(5)
	used := map[model.TermID]bool{}
	var ps []model.Posting
	for len(ps) < nTerms {
		term := model.TermID(g.r.Intn(g.vocab))
		if used[term] {
			continue
		}
		used[term] = true
		ps = append(ps, model.Posting{Term: term, Weight: 0.05 + 0.95*g.r.Float64()})
	}
	d, err := model.NewDocument(g.nextID, time.Unix(0, 0).Add(time.Duration(g.seq)*5*time.Millisecond), ps)
	if err != nil {
		t.Fatal(err)
	}
	g.nextID++
	g.seq++
	return d
}

func (g *contGen) query(t *testing.T, id model.QueryID) *model.Query {
	t.Helper()
	n := 1 + g.r.Intn(4)
	used := map[model.TermID]bool{}
	var ts []model.QueryTerm
	for len(ts) < n {
		term := model.TermID(g.r.Intn(g.vocab))
		if used[term] {
			continue
		}
		used[term] = true
		ts = append(ts, model.QueryTerm{Term: term, Weight: 0.1 + 0.9*g.r.Float64()})
	}
	q, err := model.NewQuery(id, 1+g.r.Intn(5), ts)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// sameResults requires byte-identical result lists.
func sameResults(got, want []model.ScoredDoc) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d (got=%v want=%v)", len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("position %d: %+v, want %+v (got=%v want=%v)", i, got[i], want[i], got, want)
		}
	}
	return nil
}

// TestEpochMatchesSerialByteIdentical drives the epoch engine at several
// batch sizes against an ITA fed one document per epoch on tie-free
// streams and requires byte-identical per-query results at every epoch
// boundary, including batches larger than the window (documents
// arriving and expiring within one epoch) and invariant checks after
// every epoch.
func TestEpochMatchesSerialByteIdentical(t *testing.T) {
	for _, cfg := range []struct {
		seed       int64
		vocab, win int
		batch      int
		docs       int
	}{
		{seed: 1, vocab: 12, win: 10, batch: 4, docs: 200},
		{seed: 2, vocab: 30, win: 20, batch: 64, docs: 320},
		{seed: 3, vocab: 8, win: 6, batch: 16, docs: 200},  // batch > window: transients
		{seed: 4, vocab: 50, win: 40, batch: 1, docs: 120}, // degenerate epochs
	} {
		cfg := cfg
		t.Run(fmt.Sprintf("seed%d_w%d_b%d", cfg.seed, cfg.win, cfg.batch), func(t *testing.T) {
			g := newContGen(cfg.seed, cfg.vocab)
			pol := window.Count{N: cfg.win}
			serial := NewITA(pol)
			epoch := NewITA(pol)

			var queries []*model.Query
			for i := 0; i < 6; i++ {
				q := g.query(t, model.QueryID(i+1))
				queries = append(queries, q)
				if err := serial.Register(q); err != nil {
					t.Fatal(err)
				}
				if err := epoch.Register(q); err != nil {
					t.Fatal(err)
				}
			}

			for done := 0; done < cfg.docs; {
				n := cfg.batch
				if rem := cfg.docs - done; n > rem {
					n = rem
				}
				docs := make([]*model.Document, n)
				for i := range docs {
					docs[i] = g.doc(t)
				}
				for _, d := range docs {
					if err := serial.Process(d); err != nil {
						t.Fatal(err)
					}
				}
				if err := epoch.ProcessEpoch(docs); err != nil {
					t.Fatal(err)
				}
				done += n
				if err := epoch.CheckInvariants(); err != nil {
					t.Fatalf("after %d docs: %v", done, err)
				}
				if got, want := epoch.WindowLen(), serial.WindowLen(); got != want {
					t.Fatalf("after %d docs: window %d, serial %d", done, got, want)
				}
				for _, q := range queries {
					got, ok := epoch.Result(q.ID)
					want, ok2 := serial.Result(q.ID)
					if ok != ok2 {
						t.Fatalf("query %d known=%v, serial %v", q.ID, ok, ok2)
					}
					if err := sameResults(got, want); err != nil {
						t.Fatalf("after %d docs, query %d: %v", done, q.ID, err)
					}
				}
			}
			// The batched engine must also account for every document.
			es, ss := epoch.Stats(), serial.Stats()
			if es.Arrivals != ss.Arrivals || es.Expirations != ss.Expirations {
				t.Fatalf("event counts diverge: epoch %d/%d, serial %d/%d",
					es.Arrivals, es.Expirations, ss.Arrivals, ss.Expirations)
			}
		})
	}
}

// TestEpochAgreesOnTieHeavyStreams repeats the agreement check on the
// deliberately tie-provoking quantized stream generator. With exact
// score ties, epochs of one and larger epochs may
// legitimately retain different documents of an equal-score group (both
// are correct top-k answers), so this test uses the same tolerance as
// the oracle suite: identical score sequences, exact true scores, no
// duplicates — plus full invariant checks and oracle agreement.
func TestEpochAgreesOnTieHeavyStreams(t *testing.T) {
	for _, batch := range []int{4, 64} {
		batch := batch
		t.Run(fmt.Sprintf("b%d", batch), func(t *testing.T) {
			g := newStreamGen(11, 10)
			pol := window.Count{N: 8}
			oracle := NewOracle(pol)
			epoch := NewITA(pol)
			m := &mirror{n: 8}

			var queries []*model.Query
			for i := 0; i < 5; i++ {
				q := g.query(t, model.QueryID(i+1))
				queries = append(queries, q)
				if err := oracle.Register(q); err != nil {
					t.Fatal(err)
				}
				if err := epoch.Register(q); err != nil {
					t.Fatal(err)
				}
			}
			for step := 0; step < 40; step++ {
				docs := make([]*model.Document, batch)
				for i := range docs {
					d := g.doc(t)
					docs[i] = d
					m.add(d)
					if err := oracle.Process(d); err != nil {
						t.Fatal(err)
					}
				}
				if err := epoch.ProcessEpoch(docs); err != nil {
					t.Fatal(err)
				}
				if err := epoch.CheckInvariants(); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				for _, q := range queries {
					want, _ := oracle.Result(q.ID)
					got, _ := epoch.Result(q.ID)
					if err := checkAgainstOracle("epoch", got, want, m.truth(q)); err != nil {
						t.Fatalf("step %d query %d: %v", step, q.ID, err)
					}
				}
			}
		})
	}
}

// TestEpochTimeWindow checks epochs that mix arrivals with bursty
// time-based expirations, including whole-window turnovers.
func TestEpochTimeWindow(t *testing.T) {
	span := 40 * time.Millisecond
	pol := window.Span{D: span}
	g := newContGen(21, 15)
	serial := NewITA(pol)
	epoch := NewITA(pol)

	var queries []*model.Query
	for i := 0; i < 4; i++ {
		q := g.query(t, model.QueryID(i+1))
		queries = append(queries, q)
		if err := serial.Register(q); err != nil {
			t.Fatal(err)
		}
		if err := epoch.Register(q); err != nil {
			t.Fatal(err)
		}
	}

	r := rand.New(rand.NewSource(5))
	now := time.Unix(0, 0)
	for step := 0; step < 60; step++ {
		n := 1 + r.Intn(8)
		docs := make([]*model.Document, n)
		for i := range docs {
			gap := time.Duration(r.Intn(10)) * time.Millisecond
			if r.Intn(12) == 0 {
				gap = span + 5*time.Millisecond // silence: expires everything
			}
			now = now.Add(gap)
			base := g.doc(t)
			d, err := model.NewDocument(base.ID, now, base.Postings)
			if err != nil {
				t.Fatal(err)
			}
			docs[i] = d
		}
		for _, d := range docs {
			if err := serial.Process(d); err != nil {
				t.Fatal(err)
			}
		}
		if err := epoch.ProcessEpoch(docs); err != nil {
			t.Fatal(err)
		}
		if err := epoch.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if got, want := epoch.WindowLen(), serial.WindowLen(); got != want {
			t.Fatalf("step %d: window %d, serial %d", step, got, want)
		}
		for _, q := range queries {
			got, _ := epoch.Result(q.ID)
			want, _ := serial.Result(q.ID)
			if err := sameResults(got, want); err != nil {
				t.Fatalf("step %d query %d: %v", step, q.ID, err)
			}
		}
	}
}

// TestEpochAmortizesWork verifies the point of the epoch pipeline: on a
// churny workload, batched maintenance performs measurably fewer refill
// searches and index operations than one-document epochs over the
// same stream.
func TestEpochAmortizesWork(t *testing.T) {
	build := func() (*ITA, []*model.Query, *contGen) {
		g := newContGen(77, 10)
		// Tiny floor margins so the 8-document window actually produces
		// refills to amortize; the defaults would hold every match in R.
		e := NewITA(window.Count{N: 8}, WithFloorMargins(1, 1))
		var qs []*model.Query
		for i := 0; i < 8; i++ {
			q := g.query(t, model.QueryID(i+1))
			qs = append(qs, q)
			if err := e.Register(q); err != nil {
				t.Fatal(err)
			}
		}
		return e, qs, g
	}
	serial, _, gs := build()
	epoch, _, ge := build()
	const total, batch = 512, 64
	for done := 0; done < total; done += batch {
		docs := make([]*model.Document, batch)
		for i := range docs {
			docs[i] = ge.doc(t)
		}
		if err := epoch.ProcessEpoch(docs); err != nil {
			t.Fatal(err)
		}
		for range docs {
			if err := serial.Process(gs.doc(t)); err != nil {
				t.Fatal(err)
			}
		}
	}
	es, ss := epoch.Stats(), serial.Stats()
	if es.Refills >= ss.Refills {
		t.Errorf("epoch refills %d, serial %d — batching amortized nothing", es.Refills, ss.Refills)
	}
	// With batch ≫ window, most documents are transients and never touch
	// the inverted lists at all.
	if es.IndexInserts >= ss.IndexInserts {
		t.Errorf("epoch index inserts %d, serial %d", es.IndexInserts, ss.IndexInserts)
	}
	if es.Epochs != total/batch {
		t.Errorf("Epochs = %d, want %d", es.Epochs, total/batch)
	}
}
