package core

import (
	"fmt"
	"math"
	"sort"
)

// HazardCurve is a life-table estimate of the instantaneous failure rate
// λ(t) from Monte-Carlo failure times: the quantity whose early-decreasing
// / flat / late-increasing shape is the classic reliability bathtub. Our
// wear-out mechanisms produce the right-hand wall of that bathtub.
type HazardCurve struct {
	// Edges are the n+1 bin boundaries in seconds.
	Edges []float64
	// Failures[i] counts failures inside bin i.
	Failures []int
	// AtRisk[i] counts units alive at the start of bin i.
	AtRisk []int
	// Rate[i] is the estimated hazard in failures per unit-second:
	// Failures[i] / (AtRisk[i] · width_i). NaN when nothing was at risk.
	Rate []float64
}

// EstimateHazard bins failure times (as produced by Result.FailureTimes,
// +Inf marking survivors) into the given increasing edges. Failures before
// the first edge reduce the at-risk population but are not binned.
//
// paper: §3 — TestHazardRisingForWeibullWearOut asserts that wear-out
// (Weibull β > 1) failure times give a rising hazard.
func EstimateHazard(failureTimes []float64, edges []float64) (*HazardCurve, error) {
	if len(edges) < 2 {
		return nil, fmt.Errorf("core: hazard needs at least 2 bin edges")
	}
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			return nil, fmt.Errorf("core: hazard edges must increase")
		}
	}
	times := append([]float64(nil), failureTimes...)
	sort.Float64s(times)

	nBins := len(edges) - 1
	h := &HazardCurve{
		Edges:    append([]float64(nil), edges...),
		Failures: make([]int, nBins),
		AtRisk:   make([]int, nBins),
		Rate:     make([]float64, nBins),
	}
	for b := 0; b < nBins; b++ {
		lo, hi := edges[b], edges[b+1]
		atRisk, fails := 0, 0
		for _, t := range times {
			if t >= lo {
				atRisk++
			}
			if t >= lo && t < hi {
				fails++
			}
		}
		h.AtRisk[b] = atRisk
		h.Failures[b] = fails
		if atRisk == 0 {
			h.Rate[b] = math.NaN()
			continue
		}
		h.Rate[b] = float64(fails) / (float64(atRisk) * (hi - lo))
	}
	return h, nil
}

// WearOutOnset returns the time of the first bin whose hazard exceeds
// thresholdPerSecond — a simple operational definition of where the
// bathtub's wear-out wall begins. It returns +Inf when the hazard never
// reaches the threshold.
//
// paper: §3 — TestHazardRisingForWeibullWearOut asserts that the onset of
// the wear-out wall lies inside the simulated range.
func (h *HazardCurve) WearOutOnset(thresholdPerSecond float64) float64 {
	for i, r := range h.Rate {
		if !math.IsNaN(r) && r >= thresholdPerSecond {
			return h.Edges[i]
		}
	}
	return math.Inf(1)
}
