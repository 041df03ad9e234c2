package main

import (
	"fmt"
	"math"

	"ita"
)

// scoreTolerance absorbs the different summation order of two engines
// whose dictionaries interned terms in different orders.
const scoreTolerance = 1e-9

// checkAgainstReference rebuilds the final window in a NaivePlain engine
// — score every document against every query, no thresholds — and
// compares the sampled standing queries' results with it. sample indexes
// in.standing; got[i] is the system's result for sample[i].
func checkAgainstReference(w workload, in *inputs, sample []int, got [][]ita.Match, res *runResult) error {
	ref, err := ita.New(ita.WithCountWindow(w.Window), ita.WithAlgorithm(ita.NaivePlain))
	if err != nil {
		return err
	}
	defer ref.Close()
	// The reference numbers the window's documents from 1; the system
	// numbered the whole stream from 1.
	first := in.plan.total() - w.Window
	for from := first; from < in.plan.total(); from += fillBatch {
		if _, err := ref.IngestBatch(in.items(from, min(from+fillBatch, in.plan.total()))); err != nil {
			return fmt.Errorf("reference: %w", err)
		}
	}
	for i, j := range sample {
		id, err := ref.Register(in.standing[j], topK)
		if err != nil {
			return fmt.Errorf("reference: %w", err)
		}
		res.Attempted++
		if err := sameTopK(got[i], ref.Results(id), ita.DocID(first)); err != nil {
			res.fail("standing query %d (%q): %v", j, in.standing[j], err)
		}
		ref.Unregister(id)
	}
	return nil
}

// sameTopK reports how got differs from want, whose document ids are
// offset lower. Scores must agree pairwise; documents must agree except
// among those tied with the k-th score, where either engine's pick is a
// correct top-k.
func sameTopK(got, want []ita.Match, offset ita.DocID) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, reference has %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i].Score-want[i].Score) > scoreTolerance {
			return fmt.Errorf("rank %d scores %.12g, reference %.12g", i+1, got[i].Score, want[i].Score)
		}
	}
	cut := math.Inf(-1)
	if len(want) == topK {
		cut = want[topK-1].Score + scoreTolerance
	}
	docs := map[ita.DocID]bool{}
	for _, m := range want {
		if m.Score > cut {
			docs[m.Doc+offset] = true
		}
	}
	for _, m := range got {
		if m.Score > cut && !docs[m.Doc] {
			return fmt.Errorf("document %d (score %.12g) is not in the reference's top-k", m.Doc, m.Score)
		}
	}
	return nil
}

// corruptOne damages one sampled result, for the selftest.
func corruptOne(got [][]ita.Match) {
	for _, g := range got {
		if len(g) > 0 {
			g[0].Score++
			return
		}
	}
	got[0] = append(got[0], ita.Match{Doc: 1, Score: 1})
}
