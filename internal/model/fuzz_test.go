package model

import (
	"bytes"
	"testing"
	"time"
)

// mergeJoinScore is the reference definition of S(d|Q): a merge-join of
// the two term-sorted lists, summing the shared terms in ascending term
// order.
func mergeJoinScore(q *Query, d *Document) float64 {
	var s float64
	i, j := 0, 0
	for i < len(q.Terms) && j < len(d.Postings) {
		qt, dp := q.Terms[i], d.Postings[j]
		switch {
		case qt.Term == dp.Term:
			s += qt.Weight * dp.Weight
			i++
			j++
		case qt.Term < dp.Term:
			i++
		default:
			j++
		}
	}
	return s
}

// fuzzQuery builds a query with one term per distinct byte of b: the
// byte is the term id, so query terms span the whole 0..255 range.
// It returns nil when b is empty.
func fuzzQuery(b []byte) *Query {
	var ts []QueryTerm
	seen := [256]bool{}
	for _, x := range b {
		if !seen[x] {
			seen[x] = true
			ts = append(ts, QueryTerm{Term: TermID(x), Weight: 1 / (1 + float64(x%13))})
		}
	}
	q, err := NewQuery(1, 1, ts)
	if err != nil {
		return nil
	}
	return q
}

// fuzzDoc builds a document whose term ids climb by 1..8 per byte of b,
// so a long input is a dense run of postings and a short one a sparse
// handful. Weights carry full mantissas, so a change in summation order
// shows in the last bits.
func fuzzDoc(b []byte) *Document {
	ps := make([]Posting, 0, len(b))
	t := TermID(0)
	for i, x := range b {
		if i > 0 {
			t += TermID(x%8) + 1
		}
		ps = append(ps, Posting{Term: t, Weight: float64(x)/97 + 1/float64(i+3)})
	}
	d, err := NewDocument(1, time.Time{}, ps)
	if err != nil {
		panic(err)
	}
	return d
}

// FuzzScore requires the galloping Score to equal the merge-join
// reference exactly (==, not within a tolerance): every engine, the
// oracle and the invariant checks compare scores bit for bit. Weight,
// which gallops the same way, must find each query term exactly where
// a linear scan does.
func FuzzScore(f *testing.F) {
	long := make([]byte, 177)
	for i := range long {
		long[i] = byte(i*37 + 11)
	}
	f.Add([]byte{1, 2, 3}, []byte{})              // empty postings
	f.Add([]byte{255}, []byte{0, 1})              // query term above every document term
	f.Add([]byte{0, 200, 255}, []byte{0, 1, 2})   // last query terms past the end
	f.Add([]byte{0, 5, 9}, []byte{4})             // one-posting document, no match
	f.Add([]byte{0}, []byte{9})                   // one-posting document, a match
	f.Add([]byte{3, 40, 90, 250}, long)           // four terms over ~177 postings
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, long)   // every query term among the first postings
	f.Add([]byte{7, 15, 23, 31}, []byte{7, 7, 7}) // terms landing exactly on gallop steps
	// Three matches whose sum differs in the last bit when added in
	// any order but ascending term order.
	f.Add([]byte{48, 50, 56}, bytes.Repeat([]byte{48}, 57))
	f.Fuzz(func(t *testing.T, qb, db []byte) {
		q := fuzzQuery(qb)
		if q == nil {
			return
		}
		d := fuzzDoc(db)
		if got, want := Score(q, d), mergeJoinScore(q, d); got != want {
			t.Fatalf("Score = %v, merge-join reference %v (query %v, postings %v)", got, want, q.Terms, d.Postings)
		}
		for _, qt := range q.Terms {
			var want float64
			for _, p := range d.Postings {
				if p.Term == qt.Term {
					want = p.Weight
				}
			}
			if got, ok := d.Weight(qt.Term); got != want || ok != (want > 0) {
				t.Fatalf("Weight(%d) = (%v, %v), linear scan finds %v (postings %v)", qt.Term, got, ok, want, d.Postings)
			}
		}
	})
}
