package obs

import (
	"math"
	"reflect"
	"testing"
)

// bufValues spans every TimeBuckets bucket, both clamp ends, the overflow
// bucket, a NaN and repeats. The values are dyadic so any summation order
// gives the same float64 sum.
func bufValues() []float64 {
	vs := []float64{math.NaN(), 0, 512, 1.0 / 8}
	for e := -24; e <= 6; e++ {
		v := math.Ldexp(1, e)
		vs = append(vs, v, v, 3*v)
	}
	return vs
}

func snapshotOf(t *testing.T, r *Registry, name string) HistogramSnapshot {
	t.Helper()
	h := r.Snapshot().Histogram(name)
	if h == nil {
		t.Fatalf("%s missing from snapshot", name)
	}
	return *h
}

// A flushed HistBuf must leave its histogram exactly as direct Observe
// calls would: count, sum, min, max, every bucket and every quantile.
func TestHistBufMatchesDirectObserve(t *testing.T) {
	r := NewRegistry()
	direct := r.Histogram("direct_seconds", "s", "", nil)
	buffered := r.Histogram("buffered_seconds", "s", "", nil)
	var b HistBuf
	b.Bind(buffered)
	vs := bufValues()
	for i, v := range vs {
		direct.Observe(v)
		b.Observe(v)
		if i == len(vs)/2 {
			b.Flush() // a mid-stream flush must not change the result
		}
	}
	if buffered.Count() != int64(len(vs)/2) {
		t.Fatalf("unflushed observations leaked: count %d before the final flush", buffered.Count())
	}
	b.Flush()
	b.Flush() // an empty flush is a no-op

	want, got := snapshotOf(t, r, "direct_seconds"), snapshotOf(t, r, "buffered_seconds")
	want.Name, got.Name = "", ""
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("buffered histogram differs from direct:\n got %+v\nwant %+v", got, want)
	}
	for _, p := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 1} {
		if g, w := buffered.Quantile(p), direct.Quantile(p); g != w {
			t.Errorf("p%g: buffered %g, direct %g", 100*p, g, w)
		}
	}
}

// A histogram wider than the buffer is a wiring bug: Bind panics rather
// than dropping observations.
func TestHistBufRejectsWideHistogram(t *testing.T) {
	bounds := make([]float64, bufBuckets)
	for i := range bounds {
		bounds[i] = float64(i + 1)
	}
	h := NewRegistry().Histogram("wide", "1", "", bounds)
	defer func() {
		if recover() == nil {
			t.Fatal("binding a histogram wider than the buffer did not panic")
		}
	}()
	var b HistBuf
	b.Bind(h)
}

// Rebinding flushes into the old histogram first; binding to nil unbinds.
func TestHistBufRebind(t *testing.T) {
	r := NewRegistry()
	a := r.Histogram("a_seconds", "s", "", nil)
	c := r.Histogram("c_seconds", "s", "", nil)
	var b HistBuf
	b.Observe(1) // unbound: dropped
	b.Bind(a)
	b.Observe(1)
	b.Bind(c)
	b.ObserveNanos(2e9)
	b.Bind(nil)
	b.Observe(5)
	b.Flush()
	if a.Count() != 1 || a.Sum() != 1 {
		t.Fatalf("a: count %d sum %g, want 1 and 1", a.Count(), a.Sum())
	}
	if c.Count() != 1 || c.Sum() != 2 {
		t.Fatalf("c: count %d sum %g, want 1 and 2", c.Count(), c.Sum())
	}
}

func TestHistBufNilSafeAndAllocFree(t *testing.T) {
	var nb *HistBuf
	nb.Bind(nil)
	nb.Observe(1)
	nb.ObserveNanos(1)
	nb.Flush()

	h := NewRegistry().Histogram("alloc_buf_seconds", "s", "", nil)
	var b HistBuf
	if allocs := testing.AllocsPerRun(1000, func() {
		b.Bind(h)
		b.Observe(3e-6)
		b.ObserveNanos(Mono())
		b.Flush()
	}); allocs != 0 {
		t.Fatalf("HistBuf allocated %v times per op, want 0", allocs)
	}
}

func TestMonoIsMonotonic(t *testing.T) {
	a := Mono()
	b := Mono()
	if a < 0 || b < a {
		t.Fatalf("Mono went backwards or negative: %d then %d", a, b)
	}
}
