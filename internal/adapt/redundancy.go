package adapt

import (
	"fmt"
	"math"
	"sort"
)

// The paper's §5 argues that the classical resilience approaches —
// overdesign and redundancy — "introduce an unacceptable power and area
// penalty" compared with knobs and monitors. These helpers quantify the
// redundancy side of that comparison so the benches can put numbers on it.

// StandbyLifetime returns the system lifetime of cold-standby redundancy
// with the given number of spares and a perfect failure switch: each unit
// wears only while active, so lifetimes add.
//
// paper: §5 — TestStandbyLifetime asserts the additive standby lifetime.
func StandbyLifetime(unitTTF float64, spares int) float64 {
	if spares < 0 {
		panic(fmt.Sprintf("adapt: negative spare count %d", spares))
	}
	return unitTTF * float64(spares+1)
}

// StandbyUnitsFor returns how many total units (active + spares) standby
// redundancy needs to reach targetTTF — the area multiplier of the
// redundancy approach. It returns a huge count capped at math.MaxInt32 for
// effectively unreachable targets and 1 when the unit already suffices.
//
// paper: §5 — TestRedundancyVsAdaptationStory asserts that matching the
// adaptive design's lifetime by redundancy costs an absurd area.
func StandbyUnitsFor(unitTTF, targetTTF float64) int {
	if unitTTF <= 0 {
		panic(fmt.Sprintf("adapt: non-positive unit TTF %g", unitTTF))
	}
	if targetTTF <= unitTTF {
		return 1
	}
	if math.IsInf(targetTTF, 1) {
		return math.MaxInt32
	}
	n := math.Ceil(targetTTF / unitTTF)
	if n > math.MaxInt32 {
		return math.MaxInt32
	}
	return int(n)
}

// TMRLifetime returns the lifetime of a triple-modular-redundant system
// (2-of-3 majority voting): the system fails at the *second* unit failure.
// Note the classic wear-out result — with identically aging units TMR can
// die *earlier* than a single unit once failures cluster, while costing 3×
// the area.
//
// paper: §5 — TestTMRLifetime asserts the second-failure lifetime.
func TMRLifetime(unitTTFs []float64) float64 {
	if len(unitTTFs) != 3 {
		panic(fmt.Sprintf("adapt: TMR needs exactly 3 units, got %d", len(unitTTFs)))
	}
	s := append([]float64(nil), unitTTFs...)
	sort.Float64s(s)
	return s[1]
}
