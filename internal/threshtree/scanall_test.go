package threshtree

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// TestTreeMatchesScanAll drives a θ-ordered tree and an entry-ordered
// scan-all tree through the same randomized Set/Remove/Probe churn and
// asserts every observable — Len, Remove results, MinTheta, and full
// ProbeBeatable enumerations as sets — is identical. The run grows the
// trees past 2 500 entries, above the largest probe tree the hot-terms
// bench workload builds (2 326), then drains them to empty. (Iteration
// order intentionally differs between the modes: θ-order versus
// ref-order; the engine is order-independent, so the suite compares
// visit sets.)
func TestTreeMatchesScanAll(t *testing.T) {
	const peak = 2600
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			sorted := new(Tree)
			scan := NewScanAll()

			type reg struct {
				ref   Ref
				theta float64
			}
			var live []reg
			next := Ref(1)
			randTheta := func() float64 { return float64(rng.Intn(64)) / 64 }
			probeBoth := func() {
				c := randTheta()
				var a, b []Ref
				sorted.ProbeBeatable(c, func(q Ref) { a = append(a, q) })
				scan.ProbeBeatable(c, func(q Ref) { b = append(b, q) })
				sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
				if !eq(a, b) {
					t.Fatalf("probe(%v): sorted %d refs, scan-all %d", c, len(a), len(b))
				}
				m1, ok1 := sorted.MinTheta()
				m2, ok2 := scan.MinTheta()
				if m1 != m2 || ok1 != ok2 {
					t.Fatalf("MinTheta: sorted %v,%v, scan-all %v,%v", m1, ok1, m2, ok2)
				}
			}
			// step performs one random operation, drawn with the given
			// weights for Set, Remove existing, Remove missing and probe.
			step := func(w [4]int) {
				switch r := rng.Intn(w[0] + w[1] + w[2] + w[3]); {
				case r < w[0]:
					e := reg{ref: next, theta: randTheta()}
					next++
					sorted.Set(e.ref, e.theta)
					scan.Set(e.ref, e.theta)
					live = append(live, e)
				case r < w[0]+w[1] && len(live) > 0:
					i := rng.Intn(len(live))
					e := live[i]
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
					ok1 := sorted.Remove(e.ref, e.theta)
					ok2 := scan.Remove(e.ref, e.theta)
					if !ok1 || !ok2 {
						t.Fatalf("remove(%d,%v): sorted %v, scan-all %v", e.ref, e.theta, ok1, ok2)
					}
				case r < w[0]+w[1]+w[2]:
					e := reg{ref: next + 1000000, theta: randTheta()}
					if ok1, ok2 := sorted.Remove(e.ref, e.theta), scan.Remove(e.ref, e.theta); ok1 || ok2 {
						t.Fatalf("remove missing: sorted %v, scan-all %v", ok1, ok2)
					}
				default:
					probeBoth()
				}
				if sorted.Len() != len(live) || scan.Len() != len(live) {
					t.Fatalf("Len: sorted %d, scan-all %d, want %d", sorted.Len(), scan.Len(), len(live))
				}
			}

			for len(live) < peak {
				step([4]int{5, 2, 1, 1})
			}
			for i := 0; i < 64; i++ {
				probeBoth()
			}
			for len(live) > 0 {
				step([4]int{1, 4, 1, 2})
			}
			probeBoth()
		})
	}
}
