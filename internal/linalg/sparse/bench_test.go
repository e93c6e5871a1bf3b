package sparse

import (
	"math/rand"
	"testing"
)

// ladderMatrix stamps the MNA matrix of a resistively coupled chain of
// diode-connected NMOS stages (the benchmark ladder: rail node, one node
// per stage, the supply's branch row): 30 kΩ from the rail and 50 kΩ from
// the previous stage into each node, and a device conductance of a few
// hundred µS from each node to ground. n = stages + 2.
func ladderMatrix(stages int, rng *rand.Rand) *Matrix {
	n := stages + 2
	rail, br := 0, n-1
	b := NewBuilder(n)
	res := func(i, j int, g float64) {
		b.Add(i, i, g)
		b.Add(j, j, g)
		b.Add(i, j, -g)
		b.Add(j, i, -g)
	}
	prev := rail
	for s := 0; s < stages; s++ {
		node := 1 + s
		res(rail, node, 1/30e3)
		res(prev, node, 1/50e3)
		b.Add(node, node, 1e-4+4e-4*rng.Float64())
		prev = node
	}
	b.Add(rail, br, 1)
	b.Add(br, rail, 1)
	b.Add(br, br, 0)
	return b.Freeze()
}

// BenchmarkSparseAnalyze measures one full Markowitz analysis of the
// 256-unknown ladder matrix (the 254-stage benchmark ladder), the cost a
// die pays at its first sparse factorisation.
func BenchmarkSparseAnalyze(b *testing.B) {
	a := ladderMatrix(254, rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	b.ResetTimer()
	var f LU
	for i := 0; i < b.N; i++ {
		if err := f.Analyze(a); err != nil {
			b.Fatal(err)
		}
	}
}
