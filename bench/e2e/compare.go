package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// printRuns prints every metric of every workload with its unit: the
// median over the file's runs, and the quartiles when there are several.
func printRuns(out io.Writer, doc *runFile) {
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', tabwriter.AlignRight|tabwriter.Debug)
	fmt.Fprintln(tw, "metric@workload\tunit\tmedian\tq1\tq3\truns\t")
	for _, w := range workloads(false) {
		recs := doc.Runs[w.name]
		for _, d := range catalogue() {
			vals := values(recs, d.name)
			if len(vals) == 0 {
				continue
			}
			q1, q3 := quartiles(vals)
			fmt.Fprintf(tw, "%s@%s\t%s\t%.4g\t%.4g\t%.4g\t%d\t\n", d.name, w.name, d.unit, median(vals), q1, q3, len(vals))
		}
	}
	tw.Flush()
}

// catalogue is every metric in print order.
func catalogue() []metricDef {
	return append(append(append([]metricDef(nil), endToEnd...), extras...), perLayer...)
}

// values returns one metric's values over runs sorted by seed.
func values(recs []runRecord, name string) []float64 {
	sorted := append([]runRecord(nil), recs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Seed < sorted[j].Seed })
	var out []float64
	for _, r := range sorted {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v)
		}
	}
	return out
}

func readRunFile(path string) (*runFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	doc := new(runFile)
	if err := json.Unmarshal(b, doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// minPairs is the fewest pairs of runs a gain may rest on.
const minPairs = 10

// verdict applies the acceptance rules to one metric on one workload.
// A gain needs at least minPairs pairs (run i of one side against run i
// of the other, ties winning for neither), the change winning at least
// nine of every ten, and its median differing from the parent's by more
// than the parent's interquartile range. An end-to-end metric is a regression when the
// change's median is worse than the parent's by more than the bound, and
// unresolved when the parent's own spread exceeds the bound — unless
// every change run beats every parent run.
func verdict(d metricDef, parent, change []float64) (string, int, int) {
	pairs := min(len(parent), len(change))
	better := func(c, p float64) bool {
		if d.better == "lower" {
			return c < p
		}
		return c > p
	}
	won, lost := 0, 0
	for i := 0; i < pairs; i++ {
		switch {
		case better(change[i], parent[i]):
			won++
		case better(parent[i], change[i]):
			lost++
		}
	}
	pm, cm := median(parent), median(change)
	q1, q3 := quartiles(parent)
	gap := math.Abs(cm - pm)
	switch {
	case pairs >= minPairs && 10*won >= 9*pairs && gap > q3-q1:
		return "gain", won, pairs
	case pairs >= minPairs && 10*lost >= 9*pairs && gap > q3-q1 && d.bound == 0:
		return "moved worse", won, pairs
	case d.bound == 0:
		return "-", won, pairs
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			if !better(c, p) {
				allBetter = false
			}
		}
	}
	worse := (cm - pm) / math.Abs(pm)
	if d.better == "higher" {
		worse = -worse
	}
	switch {
	case allBetter:
		return "better", won, pairs
	case (q3-q1)/math.Abs(pm) > d.bound:
		return "unresolved", won, pairs
	case worse > d.bound:
		return "REGRESSION", won, pairs
	}
	return "within bound", won, pairs
}

// runCompare prints, per metric and workload, each side's median and
// quartiles, the pairs the change won and the verdict. It returns 1 when
// an end-to-end metric regressed beyond its bound.
func runCompare(out io.Writer, parentPath, changePath string) int {
	parent, err := readRunFile(parentPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2e: %v\n", err)
		return 2
	}
	change, err := readRunFile(changePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2e: %v\n", err)
		return 2
	}
	status := 0
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', tabwriter.AlignRight|tabwriter.Debug)
	fmt.Fprintln(tw, "metric@workload\tunit\tparent median [q1, q3]\tchange median [q1, q3]\tchange\twon\tverdict\t")
	for _, w := range workloads(false) {
		for _, d := range catalogue() {
			p, c := values(parent.Runs[w.name], d.name), values(change.Runs[w.name], d.name)
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			v, won, pairs := verdict(d, p, c)
			if v == "REGRESSION" {
				status = 1
			}
			pq1, pq3 := quartiles(p)
			cq1, cq3 := quartiles(c)
			fmt.Fprintf(tw, "%s@%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%+.1f%%\t%d/%d\t%s\t\n",
				d.name, w.name, d.unit, median(p), pq1, pq3, median(c), cq1, cq3,
				100*div(median(c)-median(p), math.Abs(median(p))), won, pairs, v)
		}
	}
	tw.Flush()
	return status
}
