package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
)

// CounterSnapshot is the exported state of one counter.
type CounterSnapshot struct {
	Name  string `json:"name"`
	Unit  string `json:"unit,omitempty"`
	Value int64  `json:"value"`
}

// GaugeSnapshot is the exported state of one gauge.
type GaugeSnapshot struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit,omitempty"`
	Value float64 `json:"value"`
}

// HistogramSnapshot is the exported state of one histogram: summary
// statistics, headline quantiles, and the raw cumulative-free bucket
// counts (Buckets[i] observations fell at or below Bounds[i];
// Buckets[len(Bounds)] is the overflow bucket).
type HistogramSnapshot struct {
	Name    string    `json:"name"`
	Unit    string    `json:"unit,omitempty"`
	Count   int64     `json:"count"`
	Sum     float64   `json:"sum"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	P50     float64   `json:"p50"`
	P90     float64   `json:"p90"`
	P99     float64   `json:"p99"`
	Bounds  []float64 `json:"bounds"`
	Buckets []int64   `json:"buckets"`
}

// Snapshot is a point-in-time export of a whole registry, ordered by
// metric name. It marshals directly to JSON — core.Result.Telemetry
// embeds one so a reliability run's answer carries its own execution
// metrics.
type Snapshot struct {
	Counters   []CounterSnapshot   `json:"counters,omitempty"`
	Gauges     []GaugeSnapshot     `json:"gauges,omitempty"`
	Histograms []HistogramSnapshot `json:"histograms,omitempty"`
}

// Counter returns the snapshot value of the named counter (0, false when
// absent).
func (s *Snapshot) Counter(name string) (int64, bool) {
	if s == nil {
		return 0, false
	}
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value, true
		}
	}
	return 0, false
}

// Histogram returns the named histogram snapshot, or nil.
func (s *Snapshot) Histogram(name string) *HistogramSnapshot {
	if s == nil {
		return nil
	}
	for i := range s.Histograms {
		if s.Histograms[i].Name == name {
			return &s.Histograms[i]
		}
	}
	return nil
}

// Snapshot exports the registry's current state. On a nil registry it
// returns nil.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	s := &Snapshot{}
	for _, name := range r.sortedNames() {
		r.mu.Lock()
		c, g, h := r.counts[name], r.gauges[name], r.hists[name]
		r.mu.Unlock()
		switch {
		case c != nil:
			s.Counters = append(s.Counters, CounterSnapshot{Name: c.name, Unit: c.unit, Value: c.Value()})
		case g != nil:
			s.Gauges = append(s.Gauges, GaugeSnapshot{Name: g.name, Unit: g.unit, Value: g.Value()})
		case h != nil:
			buckets, count, sum, min, max := h.merged()
			hs := HistogramSnapshot{
				Name: h.name, Unit: h.unit,
				Count: count, Sum: sum,
				Bounds: append([]float64(nil), h.bounds...), Buckets: buckets,
			}
			if count > 0 {
				hs.Min, hs.Max = min, max
				hs.P50 = bucketQuantile(0.50, h.bounds, buckets, count, min, max)
				hs.P90 = bucketQuantile(0.90, h.bounds, buckets, count, min, max)
				hs.P99 = bucketQuantile(0.99, h.bounds, buckets, count, min, max)
			}
			s.Histograms = append(s.Histograms, hs)
		}
	}
	return s
}

// MarshalJSONIndent renders the snapshot as indented JSON.
func (s *Snapshot) MarshalJSONIndent() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4): counters and gauges as single samples,
// histograms as cumulative `_bucket{le="..."}` series plus `_sum` and
// `_count` — directly scrapeable by any Prometheus-compatible collector.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	for _, name := range r.sortedNames() {
		r.mu.Lock()
		c, g, h := r.counts[name], r.gauges[name], r.hists[name]
		r.mu.Unlock()
		switch {
		case c != nil:
			if err := promHeader(w, c.name, c.help, c.unit, "counter"); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s %d\n", c.name, c.Value()); err != nil {
				return err
			}
		case g != nil:
			if err := promHeader(w, g.name, g.help, g.unit, "gauge"); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s %s\n", g.name, promFloat(g.Value())); err != nil {
				return err
			}
		case h != nil:
			if err := promHeader(w, h.name, h.help, h.unit, "histogram"); err != nil {
				return err
			}
			buckets, count, sum, _, _ := h.merged()
			var cum int64
			for i, bound := range h.bounds {
				cum += buckets[i]
				if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", h.name, promFloat(bound), cum); err != nil {
					return err
				}
			}
			cum += buckets[len(h.bounds)]
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.name, cum); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", h.name, promFloat(sum), h.name, count); err != nil {
				return err
			}
		}
	}
	return nil
}

func promHeader(w io.Writer, name, help, unit, kind string) error {
	if help != "" {
		if unit != "" {
			help += " [" + unit + "]"
		}
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, strings.ReplaceAll(help, "\n", " ")); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, kind)
	return err
}

// promFloat formats a float the way the Prometheus text format expects.
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return fmt.Sprintf("%g", v)
}
