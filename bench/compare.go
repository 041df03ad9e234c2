package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// quartiles returns the first quartile, median and third quartile of xs
// the way Python's statistics.quantiles(xs, n=4) does (the exclusive
// method), so spreads agree with the driver's. Fewer than two values
// have no spread: all three are the value itself.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return (q3 - q1) / q2
}

func loadResults(path string) (*results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// metricValues collects one metric over a workload's valid runs.
func (wr workloadResult) metricValues(name string) (vals []float64, failed int) {
	for _, r := range wr.Runs {
		failed += r.Failed
		if !r.Invalid {
			vals = append(vals, r.Metrics[name])
		}
	}
	return vals, failed
}

// compareFiles prints, per workload and end-to-end metric, the ratio of
// b's median to a's with its base and a verdict: ok; regressed when b is
// worse than a by more than the metric's bound; unresolved when either
// side's spread across runs is wider than the bound, so the runs cannot
// tell. It fails on any regression and when b has more failed operations.
func compareFiles(pathA, pathB string, w io.Writer) error {
	a, err := loadResults(pathA)
	if err != nil {
		return err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return err
	}
	regressed, moreFailures := 0, false
	fmt.Fprintf(w, "%-13s %-18s %12s %12s %7s %7s %7s  %s\n", "workload", "metric", "base", "new", "ratio", "spreadA", "spreadB", "verdict")
	for _, wa := range a.Workloads {
		i := slices.IndexFunc(b.Workloads, func(wb workloadResult) bool { return wb.Name == wa.Name })
		if i < 0 {
			continue
		}
		wb := b.Workloads[i]
		for _, d := range endToEnd {
			va, failedA := wa.metricValues(d.Name)
			vb, failedB := wb.metricValues(d.Name)
			if failedB > failedA {
				moreFailures = true
			}
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-13s %-18s no valid runs\n", wa.Name, d.Name)
				continue
			}
			_, ma, _ := quartiles(va)
			_, mb, _ := quartiles(vb)
			worse := (mb - ma) / ma
			if d.Better == "higher" {
				worse = (ma - mb) / ma
			}
			sa, sb := spread(va), spread(vb)
			verdict := "ok"
			switch {
			case sa > d.Bound || sb > d.Bound:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "regressed"
				regressed++
			}
			fmt.Fprintf(w, "%-13s %-18s %12.4f %12.4f %7.3f %7.3f %7.3f  %s\n", wa.Name, d.Name, ma, mb, mb/ma, sa, sb, verdict)
		}
	}
	switch {
	case regressed > 0:
		return fmt.Errorf("%d metrics regressed past their bound", regressed)
	case moreFailures:
		return fmt.Errorf("%s has more failed operations than %s", pathB, pathA)
	}
	return nil
}
