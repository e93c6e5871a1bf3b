package mathx

import (
	"encoding/json"
	"math"
	"sort"
	"testing"
)

// Count returns the number of samples the sketch summarises, including
// any still buffered.
func (s *Sketch) Count() int64 { return int64(s.count) + int64(len(s.buf)) }

// rankError returns |rank(est) - p| under the empirical CDF of sorted xs:
// the fraction of samples the estimate's position is off by.
func rankError(sorted []float64, est, p float64) float64 {
	i := sort.SearchFloat64s(sorted, est)
	return math.Abs(float64(i)/float64(len(sorted)) - p)
}

// sketchErrBound is the documented worst-case rank error at the default
// compression: 2/δ at the median, tighter towards the tails.
const sketchErrBound = 2.0 / DefaultSketchCompression

func normalSamples(seed uint64, n int) []float64 {
	rng := NewRNG(seed)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 0.6 + 0.05*rng.Norm()
	}
	return xs
}

func TestSketchQuantileErrorBound(t *testing.T) {
	xs := normalSamples(31, 20000)
	var s Sketch
	for _, x := range xs {
		s.Add(x)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for _, p := range []float64{0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99} {
		if e := rankError(sorted, s.Quantile(p), p); e > sketchErrBound {
			t.Errorf("p=%g: rank error %.4f > bound %.4f", p, e, sketchErrBound)
		}
	}
	if s.Quantile(0) != sorted[0] || s.Quantile(1) != sorted[len(sorted)-1] {
		t.Errorf("extrema not exact: q0=%g min=%g, q1=%g max=%g",
			s.Quantile(0), sorted[0], s.Quantile(1), sorted[len(sorted)-1])
	}
}

// Merged shard sketches must answer quantiles within the same bound as a
// single sketch over the union.
func TestSketchMergeErrorBound(t *testing.T) {
	xs := normalSamples(37, 16000)
	const shards = 16
	per := len(xs) / shards
	var merged Sketch
	for s := 0; s < shards; s++ {
		sub := &Sketch{}
		for _, x := range xs[s*per : (s+1)*per] {
			sub.Add(x)
		}
		merged.Merge(sub)
	}
	if got, want := merged.Count(), int64(len(xs)); got != want {
		t.Fatalf("merged count %d != %d", got, want)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for _, p := range []float64{0.05, 0.5, 0.95, 0.99} {
		if e := rankError(sorted, merged.Quantile(p), p); e > sketchErrBound {
			t.Errorf("p=%g: merged rank error %.4f > bound %.4f", p, e, sketchErrBound)
		}
	}
}

// Same adds in the same order — and the same merges in the same order —
// must produce bit-identical sketches.
func TestSketchDeterministic(t *testing.T) {
	xs := normalSamples(41, 5000)
	build := func() *Sketch {
		var s Sketch
		for _, x := range xs {
			s.Add(x)
		}
		s.flush()
		return &s
	}
	a, b := build(), build()
	for _, p := range []float64{0, 0.1, 0.5, 0.9, 0.99, 1} {
		if a.Quantile(p) != b.Quantile(p) {
			t.Fatalf("same input, different quantile at p=%g", p)
		}
	}
	mergeBuild := func() *Sketch {
		var m Sketch
		for c := 0; c < 10; c++ {
			sub := &Sketch{}
			for _, x := range xs[c*500 : (c+1)*500] {
				sub.Add(x)
			}
			m.Merge(sub)
		}
		return &m
	}
	ma, mb := mergeBuild(), mergeBuild()
	for _, p := range []float64{0, 0.25, 0.5, 0.75, 1} {
		if ma.Quantile(p) != mb.Quantile(p) {
			t.Fatalf("same merge order, different quantile at p=%g", p)
		}
	}
}

func TestSketchJSONRoundTrip(t *testing.T) {
	var s Sketch
	for _, x := range normalSamples(43, 3000) {
		s.Add(x)
	}
	b, err := json.Marshal(&s)
	if err != nil {
		t.Fatal(err)
	}
	var back Sketch
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Count() != s.Count() {
		t.Fatalf("count %d != %d after round trip", back.Count(), s.Count())
	}
	for _, p := range []float64{0, 0.05, 0.5, 0.95, 1} {
		if got, want := back.Quantile(p), s.Quantile(p); got != want {
			t.Errorf("p=%g: %g != %g after round trip", p, got, want)
		}
	}
}

func TestSketchEmptyAndSingle(t *testing.T) {
	var s Sketch
	if !math.IsNaN(s.Quantile(0.5)) {
		t.Fatal("empty sketch should answer NaN")
	}
	s.Add(3.25)
	for _, p := range []float64{0, 0.5, 1} {
		if got := s.Quantile(p); got != 3.25 {
			t.Fatalf("single-sample sketch Quantile(%g) = %g", p, got)
		}
	}
}

func TestSketchBoundedSize(t *testing.T) {
	var s Sketch
	for _, x := range normalSamples(47, 100000) {
		s.Add(x)
	}
	s.flush()
	if n := len(s.centroids); n > 2*DefaultSketchCompression {
		t.Fatalf("sketch grew to %d centroids for 100k samples (budget %d)",
			n, DefaultSketchCompression)
	}
}

func TestSketchAddNaNPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(NaN) did not panic")
		}
	}()
	new(Sketch).Add(math.NaN())
}
