package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// Count returns the total number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for s := range h.stripes {
		n += h.stripes[s].count.Load()
	}
	return n
}

// Sum returns the sum of all observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	sum := 0.0
	for s := range h.stripes {
		sum += math.Float64frombits(h.stripes[s].sumBits.Load())
	}
	return sum
}

// Quantile estimates the p-quantile of everything observed so far with
// bucketQuantile, the estimate snapshots report; NaN on nil.
func (h *Histogram) Quantile(p float64) float64 {
	if h == nil {
		return math.NaN()
	}
	buckets, count, _, min, max := h.merged()
	return bucketQuantile(p, h.bounds, buckets, count, min, max)
}

// Quantile answers quantile queries from the snapshot's buckets, matching
// the live Histogram.Quantile estimate at snapshot time.
func (h *HistogramSnapshot) Quantile(p float64) float64 {
	return bucketQuantile(p, h.Bounds, h.Buckets, h.Count, h.Min, h.Max)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(s *Snapshot)

// Consume calls f(s).
func (f SinkFunc) Consume(s *Snapshot) { f(s) }

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "1", "test counter")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	if again := r.Counter("c_total", "", ""); again != c {
		t.Fatalf("get-or-create returned a different counter")
	}
	g := r.Gauge("g", "V", "test gauge")
	g.Set(1.5)
	g.Add(0.25)
	if got := g.Value(); got != 1.75 {
		t.Fatalf("gauge = %g, want 1.75", got)
	}
}

func TestNilInstrumentsAreInert(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var r *Registry
	c.Inc()
	c.Add(5)
	g.Set(3)
	h.Observe(1)
	sp := StartSpan(h)
	sp.End()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil instruments must read as zero")
	}
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Fatal("nil histogram quantile must be NaN")
	}
	if r.Counter("x", "", "") != nil || r.Snapshot() != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
}

func TestRegistryTypeClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "", "")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when re-registering a counter as a gauge")
		}
	}()
	r.Gauge("m", "", "")
}

// TestHistogramQuantileUniform checks the interpolation against a known
// distribution: 10 000 evenly spaced points on (0, 1] with fine linear
// buckets must report quantiles within one bucket width of the truth.
func TestHistogramQuantileUniform(t *testing.T) {
	bounds := make([]float64, 100)
	for i := range bounds {
		bounds[i] = float64(i+1) / 100
	}
	r := NewRegistry()
	h := r.Histogram("u", "1", "uniform", bounds)
	const n = 10000
	for i := 1; i <= n; i++ {
		h.Observe(float64(i) / n)
	}
	if got := h.Count(); got != n {
		t.Fatalf("count = %d, want %d", got, n)
	}
	if got := h.Sum(); math.Abs(got-float64(n+1)/2) > 1e-6 {
		t.Fatalf("sum = %g, want %g", got, float64(n+1)/2)
	}
	for _, p := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		got := h.Quantile(p)
		if math.Abs(got-p) > 0.01+1e-9 { // one bucket width
			t.Errorf("Quantile(%g) = %g, want within 0.01", p, got)
		}
	}
	if got := h.Quantile(0); got != 1.0/n {
		t.Errorf("Quantile(0) = %g, want observed min %g", got, 1.0/n)
	}
	if got := h.Quantile(1); got != 1 {
		t.Errorf("Quantile(1) = %g, want observed max 1", got)
	}
}

// TestHistogramQuantileExactEdges pins behaviour on tiny histograms, empty
// histograms and values beyond the last bound.
func TestHistogramQuantileExactEdges(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("e", "s", "edges", []float64{1, 2, 4})
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Fatal("empty histogram must report NaN quantiles")
	}
	h.Observe(8) // overflow bucket only
	if got := h.Quantile(0.5); got != 8 {
		t.Fatalf("single overflow observation: Quantile(0.5) = %g, want 8 (clamped to max)", got)
	}
	h.Observe(0.5)
	// Two points: p=0 and p=1 must hit the exact extremes.
	if lo, hi := h.Quantile(0), h.Quantile(1); lo != 0.5 || hi != 8 {
		t.Fatalf("extremes = (%g, %g), want (0.5, 8)", lo, hi)
	}
	h.Observe(math.NaN()) // dropped
	if got := h.Count(); got != 2 {
		t.Fatalf("NaN observation must be dropped; count = %d", got)
	}
}

// TestHistogramConcurrentRecording hammers one histogram from many
// goroutines; run under -race this is the striping correctness test. The
// merged count and sum must be exact regardless of interleaving.
func TestHistogramConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("conc", "s", "concurrent", []float64{0.25, 0.5, 0.75, 1})
	c := r.Counter("conc_events_total", "1", "")
	const workers = 8
	const perWorker = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(float64(i%100) / 100)
				c.Inc()
			}
		}(w)
	}
	// Concurrent readers: snapshots and quantiles must be safe mid-run.
	readDone := make(chan struct{})
	go func() {
		defer close(readDone)
		for i := 0; i < 100; i++ {
			_ = r.Snapshot()
			_ = h.Quantile(0.9)
		}
	}()
	wg.Wait()
	<-readDone
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("count = %d, want %d", got, workers*perWorker)
	}
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	wantSum := float64(workers) * perWorker / 100 * (0 + 99) / 2 * (100.0 / 100) // arithmetic check below
	_ = wantSum
	// Each worker observes 0.00..0.99 repeated; exact sum:
	exact := float64(workers) * float64(perWorker/100) * (99 * 100 / 2) / 100
	if got := h.Sum(); math.Abs(got-exact) > 1e-6 {
		t.Fatalf("sum = %g, want %g", got, exact)
	}
}

func TestSnapshotAndPrometheusText(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "1", "second").Add(7)
	r.Counter("a_total", "1", "first").Add(3)
	h := r.Histogram("lat_seconds", "s", "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	s := r.Snapshot()
	if len(s.Counters) != 2 || s.Counters[0].Name != "a_total" {
		t.Fatalf("snapshot counters not sorted: %+v", s.Counters)
	}
	if v, ok := s.Counter("b_total"); !ok || v != 7 {
		t.Fatalf("Counter(b_total) = %d,%v", v, ok)
	}
	hs := s.Histogram("lat_seconds")
	if hs == nil || hs.Count != 3 {
		t.Fatalf("histogram snapshot missing: %+v", hs)
	}
	if got := hs.Quantile(0.5); math.Abs(got-h.Quantile(0.5)) > 1e-12 {
		t.Fatalf("snapshot quantile %g != live quantile %g", got, h.Quantile(0.5))
	}
	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("snapshot must marshal to JSON: %v", err)
	}

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE a_total counter",
		"a_total 3",
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 2`,
		`lat_seconds_bucket{le="+Inf"} 3`,
		"lat_seconds_count 3",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus text missing %q:\n%s", want, text)
		}
	}
}

func TestPublisherAndLogSink(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("trials_total", "1", "")
	c.Add(5)
	var mu sync.Mutex
	var buf bytes.Buffer
	sink := SinkFunc(func(s *Snapshot) {
		mu.Lock()
		defer mu.Unlock()
		(&LogSink{W: &buf, Prefix: "p: ", Keys: []string{"trials_total"}}).Consume(s)
	})
	p := NewPublisher(r, time.Millisecond, sink)
	time.Sleep(20 * time.Millisecond)
	p.Stop()
	p.Stop() // idempotent
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "p: trials_total=5") {
		t.Fatalf("log sink output missing progress line:\n%q", out)
	}
	// Inert publisher: no panic, Stop returns.
	NewPublisher(nil, time.Second).Stop()
}

func TestTimeBucketsIncreasing(t *testing.T) {
	b := TimeBuckets()
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("TimeBuckets not increasing at %d: %g <= %g", i, b[i], b[i-1])
		}
	}
}
