package topk

import (
	"fmt"
	"math/rand"
	"testing"

	"ita/internal/model"
)

// refSet is a deliberately naive reference implementation: a plain map
// re-sorted on every read.
type refSet struct {
	m map[model.DocID]float64
}

func (r *refSet) sorted() []model.ScoredDoc {
	out := make([]model.ScoredDoc, 0, len(r.m))
	for d, s := range r.m {
		out = append(out, model.ScoredDoc{Doc: d, Score: s})
	}
	model.SortScored(out)
	return out
}

// TestTieredResultSetMatchesReference churns a ResultSet with random
// adds and removes past 2 500 documents, then drains it, and checks
// every accessor against the reference model after each operation
// batch.
func TestTieredResultSetMatchesReference(t *testing.T) {
	const peak = 2600
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			rs := new(ResultSet)
			ref := &refSet{m: make(map[model.DocID]float64)}
			var live []model.DocID
			next := model.DocID(1)

			check := func(op int) {
				t.Helper()
				want := ref.sorted()
				if rs.Len() != len(want) {
					t.Fatalf("op %d: Len %d, want %d", op, rs.Len(), len(want))
				}
				for i, got := range eachOrder(rs) {
					if got != want[i] {
						t.Fatalf("op %d: Each[%d] = %v, want %v", op, i, got, want[i])
					}
				}
				for _, k := range []int{1, 3, 10, len(want)} {
					wantK := 0.0
					if k >= 1 && k <= len(want) {
						wantK = want[k-1].Score
					}
					if gk := rs.Kth(k); gk != wantK {
						t.Fatalf("op %d: Kth(%d) = %g, want %g", op, k, gk, wantK)
					}
					top := rs.Top(k)
					for i := 0; i < min(k, len(want)); i++ {
						if top[i] != want[i] {
							t.Fatalf("op %d: Top(%d)[%d] = %v, want %v", op, k, i, top[i], want[i])
						}
					}
				}
				if len(want) > 0 {
					if w, ok := rs.Worst(); !ok || w != want[len(want)-1] {
						t.Fatalf("op %d: Worst = %v, want %v", op, w, want[len(want)-1])
					}
					for i := 0; i < 3; i++ {
						e := want[rng.Intn(len(want))]
						if s, ok := rs.Score(e.Doc); !ok || s != e.Score {
							t.Fatalf("op %d: Score(%d) = %g, want %g", op, e.Doc, s, e.Score)
						}
					}
				}
				if rs.Contains(model.DocID(1 << 40)) {
					t.Fatalf("op %d: Contains on absent doc", op)
				}
			}
			// step adds a document with probability grow/6 (always when R
			// is empty) and otherwise removes a random member.
			op := 0
			step := func(grow int) {
				if rng.Intn(6) < grow || len(live) == 0 {
					// Scores from a small set force ties.
					score := float64(rng.Intn(16)) / 16
					rs.Add(next, score)
					ref.m[next] = score
					live = append(live, next)
					next++
				} else {
					i := rng.Intn(len(live))
					d := live[i]
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
					if !rs.Remove(d) {
						t.Fatalf("op %d: Remove(%d) = false", op, d)
					}
					delete(ref.m, d)
					if rs.Remove(d) {
						t.Fatalf("op %d: double Remove(%d) = true", op, d)
					}
				}
				if op%37 == 0 {
					check(op)
				}
				op++
			}

			for len(live) < peak {
				step(4)
			}
			check(op)
			for len(live) > 0 {
				step(1)
			}
			check(op)
			q := &model.Query{ID: 42, K: 5}
			f1 := rs.Freeze(q)
			if f2 := rs.Freeze(q); f1 != f2 {
				t.Fatal("Freeze not cached while unmutated")
			}
			if f1.Query != q {
				t.Fatalf("Frozen.Query = %v, want the frozen query", f1.Query)
			}
			rs.Add(next, 0.5)
			if f3 := rs.Freeze(q); f3 == f1 {
				t.Fatal("Freeze cache not invalidated by Add")
			}
		})
	}
}

// TestResultSetShrinksAfterDrain grows R to 2 000 documents, drains it
// to 14, and requires the footprint to fall back near that of a set
// that only ever held 14: a refill's high-water backing arrays must not
// stay pinned once the floor raise drops the documents again.
func TestResultSetShrinksAfterDrain(t *testing.T) {
	const small = 14
	fresh := new(ResultSet)
	for i := 0; i < small; i++ {
		fresh.Add(model.DocID(i+1), float64(i%7))
	}

	rs := new(ResultSet)
	for i := 0; i < 2000; i++ {
		rs.Add(model.DocID(i+1), float64(i%7))
	}
	grown := rs.MemoryBytes()
	for rs.Len() > small {
		w, _ := rs.Worst()
		rs.Remove(w.Doc)
	}
	// The shrink rule leaves fewer than four slots per document; a set
	// that only ever held 14 has 16 slots, so three times its footprint
	// bounds a drained set (and a set that kept its 2 000-document arrays
	// exceeds it fiftyfold).
	if got, bound := rs.MemoryBytes(), 3*fresh.MemoryBytes(); got > bound {
		t.Fatalf("MemoryBytes after draining 2000 to %d = %d (grown %d), want <= %d (three times a fresh %d-entry set)",
			small, got, grown, bound, small)
	}
	if rs.Len() != small || len(eachOrder(rs)) != small {
		t.Fatalf("Len = %d after drain, want %d", rs.Len(), small)
	}
}

// TestResultSetSteadyChurnAllocFree requires a result set churning at a
// steady size — one arrival in, the oldest document out — to allocate
// nothing, so the shrink rule can never thrash between growing and
// releasing its arrays.
func TestResultSetSteadyChurnAllocFree(t *testing.T) {
	drained := new(ResultSet)
	for i := 0; i < 2000; i++ {
		drained.Add(model.DocID(i+1), float64(i%7))
	}
	for drained.Len() > 14 {
		w, _ := drained.Worst()
		drained.Remove(w.Doc)
	}
	sets := map[string]*ResultSet{"drained-to-14": drained}
	for _, n := range []int{16, 33, 64, 1000} {
		rs := new(ResultSet)
		for i := 0; i < n; i++ {
			rs.Add(model.DocID(i+1), float64(i%7))
		}
		sets[fmt.Sprintf("n=%d", n)] = rs
	}
	for name, rs := range sets {
		next := model.DocID(1 << 20)
		allocs := testing.AllocsPerRun(500, func() {
			oldest := rs.order[0].doc
			for _, e := range rs.order {
				oldest = min(oldest, e.doc)
			}
			rs.Add(next, float64(next%7))
			rs.Remove(oldest)
			next++
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocations per Add+Remove pair, want 0", name, allocs)
		}
	}
}
