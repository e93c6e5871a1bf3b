package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("sequence diverged at step %d", i)
		}
	}
}

func TestRNGSeedSensitivity(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical outputs", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 100000; i++ {
		u := r.Float64()
		if u < 0 || u >= 1 {
			t.Fatalf("Float64 out of range: %g", u)
		}
	}
}

func TestRNGFloat64Uniformity(t *testing.T) {
	r := NewRNG(11)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		u := r.Float64()
		sum += u
		sumsq += u * u
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("uniform mean = %g, want ~0.5", mean)
	}
	if math.Abs(variance-1.0/12) > 0.005 {
		t.Errorf("uniform variance = %g, want ~%g", variance, 1.0/12)
	}
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(13)
	const n = 200000
	var run Running
	for i := 0; i < n; i++ {
		run.Add(r.Norm())
	}
	if math.Abs(run.Mean()) > 0.02 {
		t.Errorf("normal mean = %g, want ~0", run.Mean())
	}
	if math.Abs(run.Variance()-1) > 0.03 {
		t.Errorf("normal variance = %g, want ~1", run.Variance())
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(17)
	counts := make([]int, 5)
	for i := 0; i < 50000; i++ {
		v := r.Intn(5)
		if v < 0 || v >= 5 {
			t.Fatalf("Intn(5) = %d out of range", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		if c < 8000 || c > 12000 {
			t.Errorf("Intn bucket %d has %d/50000 hits, want ~10000", i, c)
		}
	}
}

func TestRNGIntnPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(19)
	p := r.Perm(20)
	seen := make(map[int]bool)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("Perm produced invalid permutation %v", p)
		}
		seen[v] = true
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(23)
	c1 := parent.Split(0)
	c2 := parent.Split(1)
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split streams produced %d/100 identical outputs", same)
	}
}

func TestRNGSplitDeterministic(t *testing.T) {
	mk := func() uint64 {
		return NewRNG(23).Split(5).Uint64()
	}
	if mk() != mk() {
		t.Fatal("Split stream not reproducible")
	}
}

// TestRNGSplitIntoMatchesSplit is the property behind per-worker RNG reuse:
// over many parents (seed and sequence position) and child indices,
// SplitInto on a reused, dirty RNG yields exactly the stream Split returns,
// including the Norm spare, and leaves the parent where it was.
func TestRNGSplitIntoMatchesSplit(t *testing.T) {
	draw := func(r *RNG) [6]uint64 {
		var out [6]uint64
		out[0] = r.Uint64()
		out[1] = math.Float64bits(r.Norm()) // fills the spare...
		out[2] = math.Float64bits(r.Norm()) // ...and drains it
		out[3] = math.Float64bits(r.Norm()) // leaves a spare behind
		out[4] = math.Float64bits(r.Float64())
		out[5] = uint64(r.Intn(1000))
		return out
	}
	gen := NewRNG(2024)
	var dst RNG // reused across every case, as a campaign worker reuses it
	for c := 0; c < 2000; c++ {
		seed := gen.Uint64()
		switch c {
		case 0:
			seed = 0
		case 1:
			seed = math.MaxUint64
		}
		parent := NewRNG(seed)
		for k := gen.Intn(4); k > 0; k-- {
			parent.Uint64()
		}
		i := gen.Uint64()
		if c%2 == 0 {
			i = uint64(c / 2) // dense small indices: trial numbering
		}
		want := draw(parent.Split(i))
		before := *parent
		parent.SplitInto(&dst, i)
		if *parent != before {
			t.Fatalf("seed %d index %d: SplitInto moved the parent", seed, i)
		}
		if got := draw(&dst); got != want {
			t.Fatalf("seed %d index %d: SplitInto stream %v, Split stream %v", seed, i, got, want)
		}
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(29)
	var run Running
	for i := 0; i < 100000; i++ {
		x := r.Exp()
		if x < 0 {
			t.Fatalf("Exp returned negative %g", x)
		}
		run.Add(x)
	}
	if math.Abs(run.Mean()-1) > 0.02 {
		t.Errorf("Exp mean = %g, want ~1", run.Mean())
	}
}

func TestRNGFloat64OpenNeverZero(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := NewRNG(seed)
		for i := 0; i < 100; i++ {
			u := r.Float64Open()
			if u <= 0 || u >= 1 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// streamCorr returns the Pearson correlation between the first n uniforms
// of two generators.
func streamCorr(a, b *RNG, n int) float64 {
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = a.Float64()
		ys[i] = b.Float64()
	}
	return Correlation(xs, ys)
}

// Adjacent seeds must produce uncorrelated streams. Without the SplitMix64
// mix, NewRNG(s) and NewRNG(s+1) start from states one apart, which is
// exactly the pattern a naive per-shard "seed+shard" derivation produces.
func TestRNGAdjacentSeedsUncorrelated(t *testing.T) {
	const n = 4096
	for seed := uint64(1); seed < 8; seed++ {
		c := streamCorr(NewRNG(seed), NewRNG(seed+1), n)
		// |r| for independent samples is ~N(0, 1/sqrt(n)); 5/sqrt(n) is a
		// >5-sigma bound that a correlated pair fails by orders of magnitude.
		if math.Abs(c) > 5/math.Sqrt(n) {
			t.Errorf("seeds %d/%d: correlation %g", seed, seed+1, c)
		}
	}
}

// rngStream returns a generator on an explicit stream: the state Split
// derives its children with.
func rngStream(seed, stream uint64) *RNG {
	r := &RNG{}
	r.seedStream(seed, stream)
	return r
}

// Adjacent explicit streams of the same seed must be uncorrelated — the
// substream pattern of a sharded campaign (one stream per shard).
func TestRNGAdjacentStreamsUncorrelated(t *testing.T) {
	const n = 4096
	for stream := uint64(0); stream < 8; stream++ {
		c := streamCorr(rngStream(7, stream), rngStream(7, stream+1), n)
		if math.Abs(c) > 5/math.Sqrt(n) {
			t.Errorf("streams %d/%d: correlation %g", stream, stream+1, c)
		}
	}
}

// Adjacent Split children — per-trial substreams indexed by the global
// trial number — must be pairwise uncorrelated.
func TestRNGSplitChildrenUncorrelated(t *testing.T) {
	const n = 4096
	parent := NewRNG(99)
	for i := uint64(0); i < 8; i++ {
		c := streamCorr(parent.Split(i), parent.Split(i+1), n)
		if math.Abs(c) > 5/math.Sqrt(n) {
			t.Errorf("children %d/%d: correlation %g", i, i+1, c)
		}
	}
}

func TestSplitMix64Avalanche(t *testing.T) {
	// Flipping one input bit must flip a substantial fraction of output
	// bits (avalanche), averaged over inputs and bit positions.
	total := 0
	const trials = 64
	for i := uint64(0); i < trials; i++ {
		x := i * 0x9e3779b97f4a7c15
		for bit := uint(0); bit < 64; bit++ {
			diff := SplitMix64(x) ^ SplitMix64(x^(1<<bit))
			total += popcount64(diff)
		}
	}
	avg := float64(total) / float64(trials*64)
	if avg < 24 || avg > 40 {
		t.Fatalf("avalanche average %.1f bits, want ~32", avg)
	}
}

func popcount64(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}
