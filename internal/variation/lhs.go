package variation

import (
	"fmt"

	"repro/internal/mathx"
)

// LatinHypercube returns n samples in [0,1)^dims with Latin-hypercube
// stratification: each dimension is divided into n equal bins, every bin
// receives exactly one sample, and the bin-to-sample assignment is an
// independent random permutation per dimension. Transform columns through
// a Quantile function (e.g. mathx.NormQuantile) to sample arbitrary
// marginals. Compared with plain Monte Carlo, LHS removes the variance of
// each dimension's empirical marginal, tightening smooth statistics for
// the same sample count.
func LatinHypercube(n, dims int, seed uint64) [][]float64 {
	if n <= 0 || dims <= 0 {
		panic(fmt.Sprintf("variation: invalid LHS shape %d×%d", n, dims))
	}
	rng := mathx.NewRNG(seed)
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, dims)
	}
	for d := 0; d < dims; d++ {
		perm := rng.Perm(n)
		for i := 0; i < n; i++ {
			// Sample uniformly inside the assigned stratum.
			out[i][d] = (float64(perm[i]) + rng.Float64()) / float64(n)
		}
	}
	return out
}

// LHSNormals returns n stratified standard-normal sample vectors of the
// given dimensionality (LatinHypercube pushed through the normal inverse
// CDF).
func LHSNormals(n, dims int, seed uint64) [][]float64 {
	u := LatinHypercube(n, dims, seed)
	for _, row := range u {
		for d, v := range row {
			if v <= 0 {
				v = 0.5 / float64(2*n)
			}
			row[d] = mathx.NormQuantile(v)
		}
	}
	return u
}
