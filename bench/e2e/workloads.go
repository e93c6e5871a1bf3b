package main

import (
	"fmt"
	"strings"

	"repro/internal/jobspec"
)

// workload is one traffic mix: what a job looks like, how a client's
// task submits it, and how many fleet nodes serve it. The server only
// ever sees the specs spec generates; every job's spec seed is derived
// from the run's -seed (see jobSeed).
type workload struct {
	name string
	// nodes is the number of in-process job servers (2 = a fleet).
	nodes int
	// specs is the number of distinct specs in one task, and sends how
	// many times each is submitted (see pass.task).
	specs, sends int
	// trials is the Monte-Carlo trial count of one job (0: no trials).
	trials int
	spec   func(seed uint64) *jobspec.Spec
}

// The Fig. 3 current reference: the deck of the paper's mismatch-yield
// figure and of the repository's service-path MC benchmark. Eight
// unknowns, so circuit's automatic backend choice is the dense LU.
const currentRefDeck = `
* fig. 3 current reference, 180nm
.tech 180nm
VSUP rail 0 DC 1.8
RREF rail gate 30k
M1 gate gate 0 0 NMOS W=2u L=720n
M2 out gate 0 0 NMOS W=2u L=720n
RLOAD rail out 10k
CFILT gate 0 20p
.end
`

// otaDeck is examples/ota_reliability/ota.sp, the deck the signoff docs
// walk through, copied so the workload stays fixed when the example
// changes.
const otaDeck = `
* two-stage OTA, unity-gain, for yield and reliability signoff
.tech 90nm
.temp 300
VDD vdd 0 DC 1.1
VINP inp 0 DC 0.55
RVDD vdd vddi 25
RBIAS vddi nbias 40k
MB nbias nbias 0 0 NMOS W=2u L=180n
MT tail nbias 0 0 NMOS W=4u L=180n
M1 n1 out tail 0 NMOS W=8u L=180n
M2 out1 inp tail 0 NMOS W=8u L=180n
M3 n1 n1 vddi vddi PMOS W=4u L=180n
M4 out1 n1 vddi vddi PMOS W=4u L=180n
M5 out out1 vddi vddi PMOS W=12u L=180n
M6 out nbias 0 0 NMOS W=4u L=180n
RL out 0 60k
.end
`

// ladderDeck is a resistively coupled chain of diode-connected NMOS
// stages (the repository's sparse-solver testbench, as a netlist). With
// stages+2 unknowns and a few entries per row, circuit picks the sparse
// LU from 94 stages up.
func ladderDeck(stages int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "* %d-stage diode ladder, 180nm\n.tech 180nm\nVSUP rail 0 DC 1.8\n", stages)
	prev := "rail"
	for i := 0; i < stages; i++ {
		n := fmt.Sprintf("n%04d", i)
		fmt.Fprintf(&b, "RF%04d rail %s 30k\nM%04d %s %s 0 0 NMOS W=2u L=720n\nRC%04d %s %s 50k\n",
			i, n, i, n, n, i, prev, n)
		prev = n
	}
	b.WriteString(".end\n")
	return b.String()
}

// workloads returns the five workloads in run order. smoke shrinks every
// job so the test can drive all of them under the race detector; the
// benchmark itself always runs full size.
func workloads(smoke bool) []*workload {
	size := func(full, small int) int {
		if smoke {
			return small
		}
		return full
	}
	denseTrials := size(20000, 64)
	stages := size(254, 100)
	ladder := ladderDeck(stages)
	cacheDeck := ladderDeck(size(254, 10))
	lastStage := fmt.Sprintf("n%04d", stages-1)
	sparseTrials := size(400, 4)
	signoffTrials := size(2000, 16)
	fleetTrials := size(2048, 64)
	mc := func(node string, trials int, lo, hi float64, shards int) *jobspec.MCParams {
		return &jobspec.MCParams{Trials: trials, Node: node, Lo: &lo, Hi: &hi, Shards: shards}
	}
	return []*workload{
		// The Sec. 2 yield campaign: per-trial compute dominates, and every
		// 256-trial chunk journals and fsyncs a checkpoint (79 per job), so
		// both the trial engine and the checkpoint path show.
		{name: "mc_dense", specs: 1, nodes: 1, sends: 1, trials: denseTrials,
			spec: func(seed uint64) *jobspec.Spec {
				return &jobspec.Spec{Analysis: jobspec.KindMC, Netlist: currentRefDeck, Seed: seed,
					MC: mc("out", denseTrials, 1.45, 1.48, 0)}
			}},
		// Short campaigns on a 256-unknown ladder: most of a trial is the
		// sparse operating point, two chunks per job leave the store idle,
		// and the 20 KB deck makes admission and deck parsing visible.
		{name: "mc_sparse", specs: 1, nodes: 1, sends: 1, trials: sparseTrials,
			spec: func(seed uint64) *jobspec.Spec {
				return &jobspec.Spec{Analysis: jobspec.KindMC, Netlist: ladder, Seed: seed,
					MC: mc(lastStage, sparseTrials, 0.808, 0.818, 0)}
			}},
		// The Sec. 3-5 signoff DAG (corners -> pinned MC -> aging, EM/TDDB
		// wear-out) in ~40 ms jobs, where campaign, aging, report assembly
		// and the sub-job cache lookups are a visible share.
		{name: "signoff_ota", specs: 1, nodes: 1, sends: 1, trials: signoffTrials,
			spec: func(seed uint64) *jobspec.Spec {
				lo, hi := 0.5, 0.6
				return &jobspec.Spec{Analysis: jobspec.KindSignoff, Netlist: otaDeck, Seed: seed,
					Signoff: &jobspec.SignoffParams{Node: "out", Lo: &lo, Hi: &hi, Trials: signoffTrials}}
			}},
		// Operating points sent four times each, so three of four answers
		// come from the result cache: admission, journal fsyncs, the cache's
		// read and write paths and retention eviction/compaction dominate.
		// The deck is the 20 KB ladder, not the Fig. 3 deck: with near-zero
		// work per request, the run-to-run spread followed the host
		// kernel's cost of wake-ups and fsyncs (0.26-0.66 over sets of ten
		// runs), and real-sized specs and results cut it to about 0.15.
		{name: "cache_mix", specs: 4, nodes: 1, sends: 4, trials: 0,
			spec: func(seed uint64) *jobspec.Spec {
				return &jobspec.Spec{Analysis: jobspec.KindOP, Netlist: cacheDeck, Seed: seed}
			}},
		// The only workload that crosses fleet hops: shard placement,
		// node-to-node HTTP, the dispatcher's 50 ms → 2 s poll backoff and
		// the chunk fold, where the slowest shard sets the latency. Shards
		// are 512 trials, so a peer finishes them well before the first
		// poll: with 5,000-trial shards they finish around the second poll
		// (~150 ms) and the latency median jumps between poll steps from
		// run to run.
		{name: "fleet_shard", specs: 1, nodes: 2, sends: 1, trials: fleetTrials,
			spec: func(seed uint64) *jobspec.Spec {
				return &jobspec.Spec{Analysis: jobspec.KindMC, Netlist: currentRefDeck, Seed: seed,
					MC: mc("out", fleetTrials, 1.45, 1.48, 4)}
			}},
	}
}

// workloadByName finds a workload of the full-size set.
func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads(false) {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// jobSeed derives task i's spec seed from the run seed (a SplitMix64
// finalizer). Seeds stay below 2^53 so any JSON client reads them
// exactly, and are never 0, which ApplyDefaults would rewrite to 1.
// Warm-up tasks use negative indices, so they never share a cache entry
// with a measured task.
func jobSeed(runSeed uint64, i int64) uint64 {
	z := runSeed*0x9E3779B97F4A7C15 + uint64(i)*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return z&(1<<53-1) | 1
}
