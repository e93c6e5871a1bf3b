package sparse

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/linalg"
)

// sameFactorisation reports the first difference between two analysed
// LUs: pivot order, permutations, the L, U and A-scatter structures, and
// the bits of every factor value.
func sameFactorisation(got, want *LU) error {
	if got.analyzed != want.analyzed || got.n != want.n || got.patNNZ != want.patNNZ || len(got.w) != len(want.w) {
		return fmt.Errorf("state (analyzed %v, n %d, nnz %d, w %d), reference (%v, %d, %d, %d)",
			got.analyzed, got.n, got.patNNZ, len(got.w), want.analyzed, want.n, want.patNNZ, len(want.w))
	}
	ints := []struct {
		name      string
		got, want []int32
	}{
		{"prow", got.prow, want.prow}, {"pcol", got.pcol, want.pcol},
		{"rowPos", got.rowPos, want.rowPos}, {"colPos", got.colPos, want.colPos},
		{"lPtr", got.lPtr, want.lPtr}, {"lRow", got.lRow, want.lRow},
		{"uPtr", got.uPtr, want.uPtr}, {"uRow", got.uRow, want.uRow},
		{"aPtr", got.aPtr, want.aPtr}, {"aRow", got.aRow, want.aRow}, {"aSlot", got.aSlot, want.aSlot},
	}
	for _, c := range ints {
		if !slices.Equal(c.got, c.want) {
			return fmt.Errorf("%s = %v, reference %v", c.name, c.got, c.want)
		}
	}
	floats := []struct {
		name      string
		got, want []float64
	}{{"lVal", got.lVal, want.lVal}, {"uVal", got.uVal, want.uVal}, {"uDiag", got.uDiag, want.uDiag}}
	for _, c := range floats {
		if len(c.got) != len(c.want) {
			return fmt.Errorf("len(%s) = %d, reference %d", c.name, len(c.got), len(c.want))
		}
		for i := range c.got {
			if math.Float64bits(c.got[i]) != math.Float64bits(c.want[i]) {
				return fmt.Errorf("%s[%d] = %v, reference %v", c.name, i, c.got[i], c.want[i])
			}
		}
	}
	return nil
}

// checkAnalyzeMatchesReference runs Analyze and the map-based reference on
// a, and requires the same error (nil, or ErrSingular at the same step)
// and, on success, the same factorisation bit for bit.
func checkAnalyzeMatchesReference(a *Matrix, tol float64) error {
	got, want := LU{PivotTol: tol}, LU{PivotTol: tol}
	errGot, errWant := got.Analyze(a), refAnalyze(&want, a)
	if fmt.Sprint(errGot) != fmt.Sprint(errWant) {
		return fmt.Errorf("Analyze error %v, reference %v", errGot, errWant)
	}
	if errGot != nil {
		if !errors.Is(errGot, ErrSingular) {
			return fmt.Errorf("Analyze error %v is not ErrSingular", errGot)
		}
		return nil
	}
	return sameFactorisation(&got, &want)
}

func TestAnalyzeMatchesReferenceLadder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, stages := range []int{2, 62, 254} {
		if err := checkAnalyzeMatchesReference(ladderMatrix(stages, rng), 0); err != nil {
			t.Fatalf("ladder %d: %v", stages, err)
		}
	}
}

func TestAnalyzeMatchesReferenceRandomMNA(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		_, s, _ := randomMNASystem(rng, 2+rng.Intn(60), rng.Intn(6))
		tol := 0.0
		if trial%4 == 3 {
			tol = 0.5 // a stricter threshold changes which entries qualify
		}
		if err := checkAnalyzeMatchesReference(s, tol); err != nil {
			t.Fatalf("trial %d (n=%d): %v", trial, s.N, err)
		}
	}
}

// TestAnalyzeMatchesReferenceZeros zeroes whole columns and scattered
// entries of random MNA matrices: numerically empty columns are skipped
// until fill makes them eligible (or the matrix is singular), and
// structural zeros take part in fill and counts exactly as stored entries.
func TestAnalyzeMatchesReferenceZeros(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	singular := 0
	for trial := 0; trial < 200; trial++ {
		_, s, _ := randomMNASystem(rng, 3+rng.Intn(30), rng.Intn(4))
		for c := rng.Intn(3); c > 0; c-- {
			j := rng.Intn(s.N)
			for p := s.ColPtr[j]; p < s.ColPtr[j+1]; p++ {
				s.Vals[p] = 0
			}
		}
		for p := range s.Vals {
			if rng.Intn(8) == 0 {
				s.Vals[p] = math.Copysign(0, float64(rng.Intn(2))-0.5)
			}
		}
		if err := checkAnalyzeMatchesReference(s, 0); err != nil {
			t.Fatalf("trial %d (n=%d): %v", trial, s.N, err)
		}
		var f LU
		if f.Analyze(s) != nil {
			singular++
		}
	}
	if singular == 0 {
		t.Fatal("no zeroed matrix was singular; the singular path went untested")
	}
}

// TestAnalyzeMatchesReferenceSingular covers structurally and numerically
// singular matrices: both analyses must stop at the same step.
func TestAnalyzeMatchesReferenceSingular(t *testing.T) {
	cases := map[string]func(add func(i, j int, v float64)){
		"empty column": func(add func(i, j int, v float64)) {
			add(0, 0, 1)
			add(1, 0, 2)
			add(2, 2, 3)
			add(1, 2, 1)
		},
		"equal rows": func(add func(i, j int, v float64)) {
			add(0, 0, 1)
			add(0, 1, 2)
			add(1, 0, 1)
			add(1, 1, 2)
			add(2, 2, 5)
		},
		"source loop": func(add func(i, j int, v float64)) {
			// Two voltage sources in parallel across node 0.
			add(0, 0, 1e-3)
			add(0, 1, 1)
			add(1, 0, 1)
			add(0, 2, 1)
			add(2, 0, 1)
			add(1, 1, 0)
			add(2, 2, 0)
		},
	}
	for name, stamps := range cases {
		_, s := buildBoth(3, stamps)
		if err := checkAnalyzeMatchesReference(s, 0); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var f LU
		if err := f.Analyze(s); !errors.Is(err, ErrSingular) {
			t.Fatalf("%s: Analyze = %v, want ErrSingular", name, err)
		}
	}
}

// fuzzMNA decodes bytes into an MNA-shaped system: every node leaks to
// ground, resistors join node pairs, and voltage-source branches form a
// forest (branch k joins node k to a higher node or to ground), so the
// system is nonsingular. Byte values set the conductances, and a zero byte
// stamps a structural zero.
func fuzzMNA(data []byte) (*linalg.Matrix, *Matrix, []float64) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	cond := func(b byte) float64 {
		if b == 0 {
			return 0
		}
		return float64(b) / 16 * math.Pow(10, float64(int(b%5)-2))
	}
	nNodes := 2 + int(next()%40)
	nBranch := int(next()) % (nNodes/2 + 1)
	n := nNodes + nBranch
	d := linalg.NewMatrix(n, n)
	b := NewBuilder(n)
	add := func(i, j int, v float64) {
		d.Add(i, j, v)
		b.Add(i, j, v)
	}
	for i := 0; i < nNodes; i++ {
		add(i, i, 1e-3+cond(next()))
	}
	for r := int(next()) % (3 * nNodes); r > 0; r-- {
		i, j, g := int(next())%nNodes, int(next())%nNodes, cond(next())
		if i == j {
			continue
		}
		add(i, i, g)
		add(j, j, g)
		add(i, j, -g)
		add(j, i, -g)
	}
	for k := 0; k < nBranch; k++ {
		br := nNodes + k
		add(k, br, 1)
		add(br, k, 1)
		if to := k + 1 + int(next())%(nNodes-k); to < nNodes {
			add(to, br, -1)
			add(br, to, -1)
		}
		add(br, br, 0)
	}
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = float64(int(next()) - 128)
	}
	return d, b.Freeze(), rhs
}

// FuzzSparseLU checks, on MNA-shaped systems decoded from the fuzz input,
// that Analyze reproduces the map-based reference analysis bit for bit,
// and that the sparse solve agrees with the dense linalg solve and leaves
// a small residual.
func FuzzSparseLU(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 0, 0, 0, 12})
	f.Add([]byte{39, 19, 200, 0, 255, 16, 90, 1, 2, 0, 3, 4, 5, 250, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 64+rng.Intn(192))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, s, rhs := fuzzMNA(data)
		if err := checkAnalyzeMatchesReference(s, 0); err != nil {
			t.Fatalf("n=%d: %v", s.N, err)
		}
		var lu LU
		if err := lu.FactorInto(s); err != nil {
			t.Fatalf("n=%d: sparse factor of a nonsingular system: %v", s.N, err)
		}
		x := lu.Solve(rhs)
		xd, err := linalg.Solve(d, rhs)
		if err != nil {
			t.Fatalf("n=%d: dense solve of a nonsingular system: %v", s.N, err)
		}
		r := make([]float64, s.N)
		s.MulVecInto(r, x)
		linalg.VecSubInto(r, r, rhs)
		anorm := 0.0
		for j := 0; j < s.N; j++ {
			for p := s.ColPtr[j]; p < s.ColPtr[j+1]; p++ {
				anorm = math.Max(anorm, math.Abs(s.Vals[p]))
			}
		}
		scale := anorm*linalg.VecNormInf(x)*float64(s.N) + linalg.VecNormInf(rhs)
		if res := linalg.VecNormInf(r); res > 1e-10*scale {
			t.Fatalf("n=%d: sparse residual %g, scale %g", s.N, res, scale)
		}
		diff := make([]float64, s.N)
		linalg.VecSubInto(diff, x, xd)
		if dv := linalg.VecNormInf(diff); dv > 1e-6*(linalg.VecNormInf(xd)+1) {
			t.Fatalf("n=%d: sparse and dense solutions differ by %g (|x| %g)", s.N, dv, linalg.VecNormInf(xd))
		}
	})
}
