package mathx

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// DefaultSketchCompression is the centroid budget a zero-valued Sketch
// compresses to. At compression δ the sketch holds O(δ) centroids and the
// rank error of a quantile read is bounded by 2/δ at the median, tighter
// towards the tails (the q(1-q) size rule keeps extreme centroids small) —
// so the default bounds rank error to 2 % worst-case, typically well under
// 1 % in practice.
const DefaultSketchCompression = 100

// Centroid is one weighted cluster of a Sketch: Count samples whose mean
// is Mean.
type Centroid struct {
	Mean  float64 `json:"m"`
	Count float64 `json:"c"`
}

// Sketch is a t-digest-style quantile sketch: samples are clustered into
// a bounded list of centroids whose sizes follow the q(1-q) rule, so
// quantiles near 0 and 1 stay sharp while the middle of the distribution
// is summarised coarsely. It is the mergeable counterpart of a sorted
// sample buffer: Merge folds two sketches into one whose quantile reads
// carry the same bounded rank error, which is what lets sharded
// Monte-Carlo campaigns report p50/p95/p99 without shipping every trial
// value. All operations are deterministic: the same samples added in the
// same order — or the same sketches merged in the same order — produce a
// bit-identical sketch. The zero value is ready to use.
type Sketch struct {
	compression float64
	centroids   []Centroid
	count       float64
	min, max    float64
	buf         []float64
}

func (s *Sketch) delta() float64 {
	if s.compression > 0 {
		return s.compression
	}
	return DefaultSketchCompression
}

// Add folds one sample into the sketch. NaN samples are rejected with a
// panic: an undefined metric must be accounted by the caller's NaN
// counter, never silently absorbed into the distribution.
func (s *Sketch) Add(x float64) {
	if math.IsNaN(x) {
		panic("mathx: Sketch.Add(NaN)")
	}
	s.buf = append(s.buf, x)
	if float64(len(s.buf)) >= 4*s.delta() {
		s.flush()
	}
}

// flush drains the sample buffer into the centroid list and compresses.
func (s *Sketch) flush() {
	if len(s.buf) == 0 {
		return
	}
	sort.Float64s(s.buf)
	if s.count == 0 {
		s.min, s.max = s.buf[0], s.buf[len(s.buf)-1]
	} else {
		if s.buf[0] < s.min {
			s.min = s.buf[0]
		}
		if s.buf[len(s.buf)-1] > s.max {
			s.max = s.buf[len(s.buf)-1]
		}
	}
	for _, x := range s.buf {
		s.centroids = append(s.centroids, Centroid{Mean: x, Count: 1})
	}
	s.count += float64(len(s.buf))
	s.buf = s.buf[:0]
	s.compress()
}

// kScale is the t-digest k₁ scale function: k(q) = δ/2π · asin(2q−1).
// A centroid may span at most one k-unit, which makes its sample weight
// scale with √(q(1−q)) — large in the middle of the distribution, forced
// towards single samples at the tails — and bounds the compressed list to
// ~δ centroids.
func kScale(q, delta float64) float64 {
	if q <= 0 {
		q = 0
	}
	if q >= 1 {
		q = 1
	}
	return delta / (2 * math.Pi) * math.Asin(2*q-1)
}

// compress rebuilds the centroid list with the deterministic merging-
// digest pass: a left-to-right sweep over the mean-sorted list, fusing
// neighbours while the fused centroid stays within one k-unit.
func (s *Sketch) compress() {
	if len(s.centroids) <= 1 {
		return
	}
	sort.SliceStable(s.centroids, func(i, j int) bool {
		return s.centroids[i].Mean < s.centroids[j].Mean
	})
	delta := s.delta()
	out := s.centroids[:1]
	done := 0.0 // weight of finalized centroids left of out's last
	kLow := kScale(0, delta)
	for _, c := range s.centroids[1:] {
		last := &out[len(out)-1]
		merged := last.Count + c.Count
		if kScale((done+merged)/s.count, delta)-kLow <= 1 {
			// Weighted-mean merge keeps the centroid exact for its samples.
			last.Mean += (c.Mean - last.Mean) * c.Count / merged
			last.Count = merged
			continue
		}
		done += last.Count
		kLow = kScale(done/s.count, delta)
		out = append(out, c)
	}
	s.centroids = out
}

// Merge folds other into s. Both sketches are flushed first; the result
// summarises the union of their samples with the same bounded rank error.
// Merging is deterministic: the same two sketches merged in the same
// order always produce a bit-identical result.
func (s *Sketch) Merge(other *Sketch) {
	if other == nil {
		return
	}
	other.flush()
	if other.count == 0 {
		return
	}
	s.flush()
	if s.count == 0 {
		s.min, s.max = other.min, other.max
	} else {
		if other.min < s.min {
			s.min = other.min
		}
		if other.max > s.max {
			s.max = other.max
		}
	}
	if s.compression == 0 {
		s.compression = other.compression
	}
	s.centroids = append(s.centroids, other.centroids...)
	s.count += other.count
	s.compress()
}

// Quantile returns the estimated p-quantile (p in [0, 1]), NaN when the
// sketch is empty. Reads interpolate linearly between adjacent centroid
// means and are anchored exactly at the observed extrema, so p=0 and p=1
// are error-free.
func (s *Sketch) Quantile(p float64) float64 {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("mathx: Sketch.Quantile p=%g out of [0,1]", p))
	}
	s.flush()
	if s.count == 0 {
		return math.NaN()
	}
	if len(s.centroids) == 1 {
		return s.centroids[0].Mean
	}
	target := p * s.count
	// Cumulative rank at a centroid's mean is the weight strictly before
	// it plus half its own weight.
	sum := 0.0
	prevMean, prevRank := s.min, 0.0
	for _, c := range s.centroids {
		rank := sum + c.Count/2
		if target < rank {
			if rank == prevRank {
				return c.Mean
			}
			return prevMean + (c.Mean-prevMean)*(target-prevRank)/(rank-prevRank)
		}
		prevMean, prevRank = c.Mean, rank
		sum += c.Count
	}
	if target >= s.count {
		return s.max
	}
	if s.count == prevRank {
		return prevMean
	}
	return prevMean + (s.max-prevMean)*(target-prevRank)/(s.count-prevRank)
}

// sketchJSON is the canonical wire form of a Sketch.
type sketchJSON struct {
	Compression float64    `json:"compression,omitempty"`
	Count       float64    `json:"count"`
	Min         float64    `json:"min"`
	Max         float64    `json:"max"`
	Centroids   []Centroid `json:"centroids"`
}

// MarshalJSON encodes the flushed, compressed sketch; the round trip is
// lossless (the decoded sketch answers every quantile identically).
func (s *Sketch) MarshalJSON() ([]byte, error) {
	s.flush()
	return json.Marshal(sketchJSON{
		Compression: s.compression,
		Count:       s.count,
		Min:         s.min,
		Max:         s.max,
		Centroids:   s.centroids,
	})
}

// UnmarshalJSON decodes a sketch previously encoded by MarshalJSON.
func (s *Sketch) UnmarshalJSON(b []byte) error {
	var w sketchJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return fmt.Errorf("mathx: decoding sketch: %w", err)
	}
	*s = Sketch{
		compression: w.Compression,
		centroids:   w.Centroids,
		count:       w.Count,
		min:         w.Min,
		max:         w.Max,
	}
	return nil
}
