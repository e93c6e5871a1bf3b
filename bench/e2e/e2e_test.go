package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// benchmarkJSON is the part of the repository's BENCHMARK.json this
// benchmark must agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) *benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	doc := new(benchmarkJSON)
	if err := json.Unmarshal(b, doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestCatalogueMatchesBenchmarkJSON keeps the metric catalogue the binary
// prints and compares with identical to BENCHMARK.json's.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	doc := readBenchmarkJSON(t)
	ws := workloads(false)
	if len(doc.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(doc.Workloads), len(ws))
	}
	for i, w := range ws {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, doc.Workloads[i].Name, w.name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the catalogue %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := doc.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, catalogue %+v", i, got, d)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the catalogue %d", len(doc.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := doc.PerLayer[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, catalogue %+v", i, got, d)
		}
	}
}

// TestWorkloadsSmoke drives every workload at smoke size through the same
// code the benchmark runs. A traced run holds an untraced pass and a
// traced one, so it must emit every metric BENCHMARK.json names, finite,
// with no job failed or answered wrongly.
func TestWorkloadsSmoke(t *testing.T) {
	doc := readBenchmarkJSON(t)
	var names []string
	for _, m := range doc.EndToEnd {
		names = append(names, m.Name)
	}
	for _, m := range doc.PerLayer {
		names = append(names, m.Name)
	}
	for _, w := range workloads(true) {
		t.Run(w.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			spans := filepath.Join(t.TempDir(), "spans.jsonl")
			rep, err := runWorkload(ctx, runConfig{w: w, seed: 1, seconds: 0.1, trace: true, spans: spans})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Attempted == 0 || rep.Failed != 0 || rep.Metrics["error_rate"] != 0 {
				t.Fatalf("%d of %d failed: %v", rep.Failed, rep.Attempted, rep.Errors)
			}
			if fi, err := os.Stat(spans); err != nil || fi.Size() == 0 {
				t.Errorf("traced run wrote no spans: %v", err)
			}
			if u := rep.Metrics["trace.unattributed_share"]; u > 0.05 {
				t.Errorf("trace.unattributed_share = %g, want <= 0.05", u)
			}
			rep.Metrics["setup_s"] = rep.SetupS
			for _, name := range names {
				v, ok := rep.Metrics[name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("metric %s = %v (present %v)", name, v, ok)
				}
			}
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, 2, 7},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	jobs := metricDef{name: "jobs_per_s", unit: "1/s", better: "higher", bound: 0.15}
	parent := []float64{10, 10.2, 9.9, 10.1, 10, 9.8, 10.3, 10, 10.1, 9.9}
	faster := []float64{12, 12.1, 11.9, 12.2, 12, 11.8, 12.3, 12, 12.1, 11.9}
	slower := []float64{8, 8.1, 7.9, 8.2, 8, 7.8, 8.3, 8, 8.1, 7.9}
	noisy := []float64{5, 15, 6, 14, 7, 13, 8, 12, 9, 11}
	for _, c := range []struct {
		name          string
		parent, other []float64
		want          string
	}{
		{"gain", parent, faster, "gain"},
		{"too few pairs for a gain", parent[:5], faster[:5], "better"},
		{"regression", parent, slower, "REGRESSION"},
		{"same", parent, parent, "within bound"},
		{"spread wider than the bound", noisy, parent, "unresolved"},
	} {
		if got, _, _ := verdict(jobs, c.parent, c.other); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
