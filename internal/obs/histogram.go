package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// histStripes is the number of independent shards a histogram spreads its
// state over. Parallel Monte-Carlo workers recording trial latencies would
// otherwise serialize on one set of cache lines; eight stripes keep the
// contention negligible at the worker counts Go schedules (GOMAXPROCS of
// commodity machines) while keeping merges cheap.
const histStripes = 8

// stripe is one shard of histogram state. All fields are atomics so
// recording never takes a lock; sum/min/max are float64 bit patterns
// updated by CAS.
type stripe struct {
	count   atomic.Int64
	sumBits atomic.Uint64
	minBits atomic.Uint64 // +Inf until the first observation
	maxBits atomic.Uint64 // -Inf until the first observation
	buckets []atomic.Int64
	_       [6]uint64 // pad stripes apart (coarse false-sharing guard)
}

// Histogram records a distribution of float64 observations into fixed,
// strictly increasing bucket upper bounds, plus an overflow bucket. It is
// lock-striped: Observe is wait-free apart from bounded CAS retries and
// performs no allocation. Quantiles are estimated from the merged bucket
// counts with linear interpolation inside the winning bucket. A nil
// *Histogram is a valid no-op instrument.
type Histogram struct {
	name, unit, help string
	bounds           []float64
	stripes          [histStripes]stripe
	rr               atomic.Uint64 // round-robin stripe cursor
}

// TimeBuckets returns the default latency bounds in seconds: a 1-2-5
// ladder from 100 ns to 100 s. Solver factor/solve calls land near the
// bottom, whole Monte-Carlo runs near the top.
func TimeBuckets() []float64 {
	out := make([]float64, 0, 28)
	for _, dec := range []float64{1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10} {
		out = append(out, dec, 2*dec, 5*dec)
	}
	return append(out, 100)
}

func newHistogram(name, unit, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = TimeBuckets()
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly increasing")
		}
	}
	h := &Histogram{name: name, unit: unit, help: help, bounds: append([]float64(nil), bounds...)}
	for s := range h.stripes {
		h.stripes[s].buckets = make([]atomic.Int64, len(bounds)+1)
		h.stripes[s].minBits.Store(math.Float64bits(math.Inf(1)))
		h.stripes[s].maxBits.Store(math.Float64bits(math.Inf(-1)))
	}
	return h
}

// Observe records one value. NaN observations are dropped — they carry no
// ordering information and would poison the merged min/max.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	s := &h.stripes[h.rr.Add(1)%histStripes]
	s.count.Add(1)
	casAdd(&s.sumBits, v)
	casMin(&s.minBits, v)
	casMax(&s.maxBits, v)
	s.buckets[h.bucketIdx(v)].Add(1)
}

// bucketIdx finds the first bound >= v by binary search; len(bounds) is
// the overflow bucket.
func (h *Histogram) bucketIdx(v float64) int {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// merged collapses the stripes into one bucket array plus summary stats.
func (h *Histogram) merged() (buckets []int64, count int64, sum, min, max float64) {
	buckets = make([]int64, len(h.bounds)+1)
	min, max = math.Inf(1), math.Inf(-1)
	for s := range h.stripes {
		st := &h.stripes[s]
		count += st.count.Load()
		sum += math.Float64frombits(st.sumBits.Load())
		if m := math.Float64frombits(st.minBits.Load()); m < min {
			min = m
		}
		if m := math.Float64frombits(st.maxBits.Load()); m > max {
			max = m
		}
		for b := range st.buckets {
			buckets[b] += st.buckets[b].Load()
		}
	}
	return
}

// bucketQuantile estimates the p-quantile (0 <= p <= 1) from merged
// bucket counts: it walks the cumulative counts to the bucket containing
// rank p·count and interpolates linearly between the bucket's edges
// (clamped to the observed min/max, which makes small histograms and the
// extreme quantiles exact at the endpoints). Snapshots compute their
// P50/P90/P99 with it.
func bucketQuantile(p float64, bounds []float64, buckets []int64, count int64, min, max float64) float64 {
	if count == 0 || math.IsNaN(p) {
		return math.NaN()
	}
	if p <= 0 {
		return min
	}
	if p >= 1 {
		return max
	}
	rank := p * float64(count)
	var cum int64
	for i, n := range buckets {
		if n == 0 {
			continue
		}
		prev := cum
		cum += n
		if float64(cum) < rank {
			continue
		}
		// The rank falls inside bucket i: interpolate between its edges.
		lo := min
		if i > 0 && bounds[i-1] > lo {
			lo = bounds[i-1]
		}
		hi := max
		if i < len(bounds) && bounds[i] < hi {
			hi = bounds[i]
		}
		if hi <= lo {
			return lo
		}
		frac := (rank - float64(prev)) / float64(n)
		return lo + frac*(hi-lo)
	}
	return max
}

// Span is an in-flight timing measurement: StartSpan captures the clock,
// End records the elapsed seconds into the histogram. The zero Span (and
// any span started on a nil histogram) is inert, so callers need no
// conditional around End. Span is a value type — starting and ending a
// span never allocates.
type Span struct {
	h  *Histogram
	t0 time.Time
}

// StartSpan begins timing against h. On a nil histogram it returns an
// inert span without reading the clock — the disabled fast path.
func StartSpan(h *Histogram) Span {
	if h == nil {
		return Span{}
	}
	return Span{h: h, t0: time.Now()}
}

// End records the elapsed time. Safe to call on the zero Span; calling End
// twice records twice (don't).
func (s Span) End() {
	if s.h == nil {
		return
	}
	s.h.Observe(time.Since(s.t0).Seconds())
}

// casAdd atomically adds v to the float64 stored in bits.
func casAdd(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// casMin lowers the stored float64 to v when v is smaller.
func casMin(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if math.Float64frombits(old) <= v {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// casMax raises the stored float64 to v when v is larger.
func casMax(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}
