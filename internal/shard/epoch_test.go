package shard

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ita/internal/core"
	"ita/internal/model"
	"ita/internal/window"
)

// contDoc builds a document with continuous random weights so exact
// score ties — the only source of legitimate result divergence between
// maintenance schedules — cannot occur, making byte-identical
// comparison well-defined.
func contDoc(t *testing.T, rng *rand.Rand, id model.DocID, seq, vocab int) *model.Document {
	t.Helper()
	n := 1 + rng.Intn(5)
	used := map[model.TermID]bool{}
	var ps []model.Posting
	for len(ps) < n {
		term := model.TermID(rng.Intn(vocab))
		if used[term] {
			continue
		}
		used[term] = true
		ps = append(ps, model.Posting{Term: term, Weight: 0.05 + 0.95*rng.Float64()})
	}
	d, err := model.NewDocument(id, time.Unix(0, 0).Add(time.Duration(seq)*5*time.Millisecond), ps)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func contQuery(t *testing.T, rng *rand.Rand, id model.QueryID, vocab int) *model.Query {
	t.Helper()
	n := 1 + rng.Intn(4)
	used := map[model.TermID]bool{}
	var ts []model.QueryTerm
	for len(ts) < n {
		term := model.TermID(rng.Intn(vocab))
		if used[term] {
			continue
		}
		used[term] = true
		ts = append(ts, model.QueryTerm{Term: term, Weight: 0.1 + 0.9*rng.Float64()})
	}
	q, err := model.NewQuery(id, 1+rng.Intn(5), ts)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestEpochGridMatchesSerialITA is the epoch pipeline's equivalence
// suite: every combination of epoch size B and shard count S is driven
// through an identical tie-free stream — epochs mixing arrivals and
// expirations, plus epochs larger than the window so documents arrive
// and expire within one batch — and must return byte-identical
// per-query results to the single-threaded ITA fed one document per
// epoch, at every epoch boundary. Run under -race (CI does), this also
// exercises the epoch fan-out's synchronization.
func TestEpochGridMatchesSerialITA(t *testing.T) {
	const (
		vocab   = 20
		queries = 24
		total   = 384
	)
	for _, win := range []int{12, 48} {
		for _, batch := range []int{1, 4, 64} {
			for _, shards := range []int{1, 2, 8} {
				win, batch, shards := win, batch, shards
				t.Run(fmt.Sprintf("w%d_b%d_s%d", win, batch, shards), func(t *testing.T) {
					pol := window.Count{N: win}
					serial := core.NewITA(pol)
					epoch := New(pol, shards)
					defer epoch.Close()

					rng := rand.New(rand.NewSource(int64(win*1000 + batch*10 + shards)))
					var qids []model.QueryID
					for i := 0; i < queries; i++ {
						id := model.QueryID(i + 1)
						q := contQuery(t, rng, id, vocab)
						if err := serial.Register(q); err != nil {
							t.Fatal(err)
						}
						if err := epoch.Register(q); err != nil {
							t.Fatal(err)
						}
						qids = append(qids, id)
					}

					nextID, seq := model.DocID(1), 0
					for done := 0; done < total; {
						n := batch
						if rem := total - done; n > rem {
							n = rem
						}
						docs := make([]*model.Document, n)
						for i := range docs {
							docs[i] = contDoc(t, rng, nextID, seq, vocab)
							nextID++
							seq++
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
						for _, id := range qids {
							got, ok := epoch.Result(id)
							want, ok2 := serial.Result(id)
							if ok != ok2 {
								t.Fatalf("query %d: known=%v, serial %v", id, ok, ok2)
							}
							if len(got) != len(want) {
								t.Fatalf("after %d docs query %d: %d results, serial %d\n got %v\nwant %v",
									done, id, len(got), len(want), got, want)
							}
							for i := range got {
								if got[i] != want[i] {
									t.Fatalf("after %d docs query %d position %d: %+v, serial %+v\n got %v\nwant %v",
										done, id, i, got[i], want[i], got, want)
								}
							}
						}
					}
					// Sanity: multi-document epochs actually took the
					// batched path.
					if batch > 1 && epoch.Stats().Epochs == 0 {
						t.Fatal("no epochs recorded despite batch > 1")
					}
				})
			}
		}
	}
}

// TestWideEpochsMatchSerialITA drives epochs of long, tie-free documents
// over skewed terms — ≈20,000 net postings an epoch, so the index phase
// runs term-partitioned whenever GOMAXPROCS allows (CI runs it at -cpu
// 1,2,4 under -race) — and requires the results of the single-threaded
// ITA fed one document per epoch, which always indexes inline.
func TestWideEpochsMatchSerialITA(t *testing.T) {
	const (
		vocab   = 4000
		terms   = 150
		win     = 300
		batch   = 64
		epochs  = 12
		queries = 24
	)
	rng := rand.New(rand.NewSource(5))
	skewed := func() model.TermID { return model.TermID(rng.Intn(1 + rng.Intn(vocab))) }
	pol := window.Count{N: win}
	serial := core.NewITA(pol)
	wide := New(pol, 2)
	defer wide.Close()
	var qids []model.QueryID
	for i := 0; i < queries; i++ {
		id := model.QueryID(i + 1)
		q := contQuery(t, rng, id, 40) // the skew's head: every epoch touches these
		if err := serial.Register(q); err != nil {
			t.Fatal(err)
		}
		if err := wide.Register(q); err != nil {
			t.Fatal(err)
		}
		qids = append(qids, id)
	}
	nextID, hits := model.DocID(1), 0
	for e := 0; e < epochs; e++ {
		docs := make([]*model.Document, batch)
		for i := range docs {
			used := map[model.TermID]bool{}
			var ps []model.Posting
			for len(ps) < terms {
				if term := skewed(); !used[term] {
					used[term] = true
					ps = append(ps, model.Posting{Term: term, Weight: 0.05 + 0.95*rng.Float64()})
				}
			}
			d, err := model.NewDocument(nextID, time.Unix(int64(nextID), 0), ps)
			if err != nil {
				t.Fatal(err)
			}
			docs[i] = d
			nextID++
			if err := serial.Process(d); err != nil {
				t.Fatal(err)
			}
		}
		if err := wide.ProcessEpoch(docs); err != nil {
			t.Fatal(err)
		}
		if err := wide.CheckInvariants(); err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		if got, want := wide.Stats(), serial.Stats(); got.IndexInserts != want.IndexInserts || got.IndexDeletes != want.IndexDeletes {
			t.Fatalf("epoch %d: index inserts/deletes %d/%d, serial %d/%d", e,
				got.IndexInserts, got.IndexDeletes, want.IndexInserts, want.IndexDeletes)
		}
		for _, id := range qids {
			got, _ := wide.Result(id)
			want, _ := serial.Result(id)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("epoch %d query %d:\n got %v\nwant %v", e, id, got, want)
			}
			hits += len(got)
		}
	}
	if hits == 0 {
		t.Fatal("no query ever held a result")
	}
}

// TestEpochUnregisterBetweenEpochs checks query churn interleaved with
// epoch processing: registration and removal are epoch-boundary
// operations and must keep the shard assignment consistent.
func TestEpochUnregisterBetweenEpochs(t *testing.T) {
	pol := window.Count{N: 16}
	e := New(pol, 4)
	defer e.Close()
	serial := core.NewITA(pol)

	rng := rand.New(rand.NewSource(99))
	nextQ := model.QueryID(1)
	register := func() model.QueryID {
		id := nextQ
		nextQ++
		q := contQuery(t, rng, id, 15)
		if err := e.Register(q); err != nil {
			t.Fatal(err)
		}
		q2 := *q
		if err := serial.Register(&q2); err != nil {
			t.Fatal(err)
		}
		return id
	}
	live := []model.QueryID{register(), register(), register()}

	nextID, seq := model.DocID(1), 0
	for round := 0; round < 20; round++ {
		docs := make([]*model.Document, 8)
		for i := range docs {
			docs[i] = contDoc(t, rng, nextID, seq, 15)
			nextID++
			seq++
		}
		for _, d := range docs {
			if err := serial.Process(d); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.ProcessEpoch(docs); err != nil {
			t.Fatal(err)
		}
		switch round % 3 {
		case 0:
			live = append(live, register())
		case 1:
			victim := live[rng.Intn(len(live))]
			if e.Unregister(victim) != serial.Unregister(victim) {
				t.Fatalf("unregister(%d) diverged", victim)
			}
			for i, id := range live {
				if id == victim {
					live = append(live[:i], live[i+1:]...)
					break
				}
			}
		}
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for _, id := range live {
			got, _ := e.Result(id)
			want, _ := serial.Result(id)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("round %d query %d:\n got %v\nwant %v", round, id, got, want)
			}
		}
	}
}
