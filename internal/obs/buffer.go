package obs

import (
	"math"
	"time"
)

// bufBuckets is the bucket capacity of a HistBuf: enough for TimeBuckets'
// 28 bounds plus the overflow bucket.
const bufBuckets = 32

// HistBuf is a single-owner staging buffer in front of a Histogram. The
// hot engines (a solver workspace, a Monte-Carlo trial worker) observe into
// it with plain arithmetic — no atomics, no allocation, no shared cache
// lines — and Flush folds the accumulated state into the histogram with
// one atomic per touched field, on a stripe picked once at Bind. The
// owner decides when to flush; between flushes the histogram lags by
// exactly the buffered observations.
//
// The zero HistBuf is unbound and drops observations. A HistBuf must not
// be used from two goroutines at once, and must not be copied once bound
// (it is meant to be embedded by value in its owner). A nil *HistBuf is a
// valid no-op.
type HistBuf struct {
	h *Histogram
	s *stripe

	count    int64
	sum      float64
	min, max float64
	lo, hi   int // touched bucket range, valid while count > 0
	buckets  [bufBuckets]int64
}

// Bind points the buffer at h, first flushing anything buffered for the
// histogram it was bound to. Binding to the current histogram is a no-op;
// binding to nil unbinds. A histogram with more than bufBuckets-1 bounds
// does not fit the buffer; binding to one panics.
func (b *HistBuf) Bind(h *Histogram) {
	if b == nil || b.h == h {
		return
	}
	if h != nil && len(h.bounds) >= bufBuckets {
		panic("obs: histogram has too many buckets for a HistBuf")
	}
	b.Flush()
	b.h, b.s = h, nil
	if h != nil {
		b.s = &h.stripes[h.rr.Add(1)%histStripes]
	}
}

// Observe buffers one value. Like Histogram.Observe it drops NaN.
func (b *HistBuf) Observe(v float64) {
	if b == nil || b.h == nil || math.IsNaN(v) {
		return
	}
	i := b.h.bucketIdx(v)
	b.buckets[i]++
	if b.count == 0 {
		b.min, b.max, b.lo, b.hi = v, v, i, i
	} else {
		if v < b.min {
			b.min = v
		}
		if v > b.max {
			b.max = v
		}
		if i < b.lo {
			b.lo = i
		}
		if i > b.hi {
			b.hi = i
		}
	}
	b.count++
	b.sum += v
}

// ObserveNanos buffers a duration given in nanoseconds, recorded in
// seconds — the unit of every latency histogram. Pair it with Mono.
func (b *HistBuf) ObserveNanos(ns int64) {
	b.Observe(time.Duration(ns).Seconds())
}

// Flush folds the buffered observations into the bound histogram and
// empties the buffer.
func (b *HistBuf) Flush() {
	if b == nil || b.count == 0 {
		return
	}
	s := b.s
	s.count.Add(b.count)
	casAdd(&s.sumBits, b.sum)
	casMin(&s.minBits, b.min)
	casMax(&s.maxBits, b.max)
	for i := b.lo; i <= b.hi; i++ {
		if n := b.buckets[i]; n != 0 {
			s.buckets[i].Add(n)
			b.buckets[i] = 0
		}
	}
	b.count, b.sum = 0, 0
}

// epoch anchors Mono; it carries a monotonic clock reading.
var epoch = time.Now()

// Mono returns monotonic nanoseconds since process start. It costs one
// monotonic clock read — time.Now reads the wall clock as well — which is
// all an interval needs. Differences of two Mono readings are durations.
func Mono() int64 { return int64(time.Since(epoch)) }
