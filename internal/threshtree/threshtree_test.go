package threshtree

import (
	"sort"
	"testing"
)

func probeAll(t *Tree, c float64) []Ref {
	var out []Ref
	t.ProbeBeatable(c, func(q Ref) { out = append(out, q) })
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func eq(a, b []Ref) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestProbeBeatableReturnsPrefix(t *testing.T) {
	tr := New()
	// Query 1 needs at least 0.5 from this term to matter; query 2 needs
	// 0.2; query 3 matches on any contribution (bound 0).
	tr.Set(1, 0.5)
	tr.Set(2, 0.2)
	tr.Set(3, 0)

	// A contribution of 0.9 beats every bound.
	if got := probeAll(tr, 0.9); !eq(got, []Ref{1, 2, 3}) {
		t.Fatalf("probe(0.9) = %v", got)
	}
	// 0.3 beats queries 2 and 3 only.
	if got := probeAll(tr, 0.3); !eq(got, []Ref{2, 3}) {
		t.Fatalf("probe(0.3) = %v", got)
	}
	// 0.1 only beats the zero bound.
	if got := probeAll(tr, 0.1); !eq(got, []Ref{3}) {
		t.Fatalf("probe(0.1) = %v", got)
	}
}

func TestProbeBeatableIncludesExactBound(t *testing.T) {
	// A contribution exactly equal to a bound can still meet it, so the
	// probe must be inclusive: θ ≤ c matches, only θ > c is skipped.
	tr := New()
	tr.Set(1, 0.5)
	if got := probeAll(tr, 0.5); !eq(got, []Ref{1}) {
		t.Fatalf("probe at exact bound = %v, want [1]", got)
	}
	if got := probeAll(tr, 0.49999); len(got) != 0 {
		t.Fatalf("probe below bound = %v, want empty", got)
	}
}

func TestRemoveAndLen(t *testing.T) {
	tr := New()
	tr.Set(1, 0.5)
	tr.Set(2, 0.4)
	if tr.Len() != 2 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if !tr.Remove(1, 0.5) {
		t.Fatal("Remove existing failed")
	}
	if tr.Remove(1, 0.5) {
		t.Fatal("Remove twice succeeded")
	}
	if tr.Remove(2, 0.5) {
		t.Fatal("Remove with wrong bound succeeded")
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if got := probeAll(tr, 0.9); !eq(got, []Ref{2}) {
		t.Fatalf("probe after removal = %v", got)
	}
}

func TestManyQueriesSameTerm(t *testing.T) {
	tr := New()
	for q := Ref(1); q <= 100; q++ {
		tr.Set(q, float64(q)/100)
	}
	// A contribution of 0.505 beats bounds 0.01 .. 0.50 → queries 1..50.
	got := probeAll(tr, 0.505)
	if len(got) != 50 || got[0] != 1 || got[49] != 50 {
		t.Fatalf("probe returned %d queries, first %v last %v", len(got), got[0], got[len(got)-1])
	}
}

func TestMinTheta(t *testing.T) {
	for _, mk := range []struct {
		name string
		new  func() *Tree
	}{
		{"sorted", func() *Tree { return New() }},
		{"scan-all", func() *Tree { return NewScanAll() }},
	} {
		t.Run(mk.name, func(t *testing.T) {
			tr := mk.new()
			if _, ok := tr.MinTheta(); ok {
				t.Fatal("MinTheta on empty tree reported a value")
			}
			tr.Set(1, 0.5)
			tr.Set(2, 0.2)
			tr.Set(3, 0.8)
			if min, ok := tr.MinTheta(); !ok || min != 0.2 {
				t.Fatalf("MinTheta = %v,%v, want 0.2,true", min, ok)
			}
			tr.Remove(2, 0.2)
			if min, ok := tr.MinTheta(); !ok || min != 0.5 {
				t.Fatalf("MinTheta after remove = %v,%v, want 0.5,true", min, ok)
			}
		})
	}
}

func TestZeroBoundAlwaysProbed(t *testing.T) {
	tr := New()
	tr.Set(1, 0)
	got := probeAll(tr, 1e-12)
	if !eq(got, []Ref{1}) {
		t.Fatalf("probe = %v: zero bounds must match every positive contribution", got)
	}
}

func TestProbeOrderIsThetaThenRef(t *testing.T) {
	tr := New()
	tr.Set(5, 0.3)
	tr.Set(2, 0.1)
	tr.Set(9, 0.3)
	tr.Set(1, 0.2)
	var got []Ref
	tr.ProbeBeatable(1, func(q Ref) { got = append(got, q) })
	want := []Ref{2, 1, 5, 9}
	if !eq(got, want) {
		t.Fatalf("probe order = %v, want %v", got, want)
	}
}
