package variation

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/circuit"
	"repro/internal/device"
)

// CornerByName returns the named standard corner at the given 3σ levels
// (see StandardCorners); ok is false for an unknown name.
func CornerByName(name string, sigmaVT, sigmaBeta float64) (Corner, bool) {
	for _, co := range StandardCorners(sigmaVT, sigmaBeta) {
		if co.Name == name {
			return co, true
		}
	}
	return Corner{}, false
}

// ResizeMOSFET re-derives a MOSFET's parameter set at scale× its current
// width. The parameters are rebuilt through the technology's parameter
// constructors rather than patched in place, because β = KP·W/L is baked
// into the card at construction — mutating W alone would leave the
// current factor stale. Mismatch and accumulated damage are preserved;
// the new width is returned.
func ResizeMOSFET(m *circuit.MOSFET, tech *device.Technology, tempK, scale float64) float64 {
	if scale <= 0 {
		panic(fmt.Sprintf("variation: non-positive resize scale %g", scale))
	}
	p := m.Dev.Params
	w := p.W * scale
	if p.Type == device.PMOS {
		m.Dev.Params = tech.PMOSParams(w, p.L, tempK)
	} else {
		m.Dev.Params = tech.NMOSParams(w, p.L, tempK)
	}
	return w
}

// CenteringStep is one point of a design-centering trajectory.
type CenteringStep struct {
	// Iteration numbers the accepted move (0 is the uncentered baseline).
	Iteration int `json:"iteration"`
	// Device is the resized device ("" at the baseline point) and Scale
	// its cumulative width scale after the move.
	Device string  `json:"device,omitempty"`
	Scale  float64 `json:"scale,omitempty"`
	// Yield is the spec yield at this sizing (NaN dies count as rejects).
	Yield YieldEstimate `json:"yield"`
	// Mean and Sigma summarise the metric distribution at this sizing.
	Mean  float64 `json:"mean"`
	Sigma float64 `json:"sigma"`
}

// CenteringResult is the outcome of a greedy design-centering search.
type CenteringResult struct {
	// Baseline and Final are the first and last trajectory points.
	Baseline, Final CenteringStep
	// Trajectory holds every accepted point, baseline first.
	Trajectory []CenteringStep
	// Scales maps each device to its final cumulative width scale
	// (1 when untouched).
	Scales map[string]float64
	// Converged reports the search stopped because no candidate improved
	// (as opposed to hitting MaxIters).
	Converged bool
}

// Centering is a greedy coordinate-descent design-centering search
// (paper §4.2: sizing against variability — widening a device shrinks
// its Pelgrom σ as 1/√(WL) at the cost of area). Each iteration
// evaluates widening and narrowing every candidate device by Step and
// accepts the best improving move; candidates are compared with common
// random numbers (every evaluation reuses the same seed), so the
// comparison is paired, deterministic and independent of evaluation
// order.
type Centering struct {
	// Devices lists the move axes, evaluated in sorted order for
	// determinism. An entry is either a single MOSFET name or several
	// names joined by '+' (e.g. "M1+M2"): a group is resized as one
	// move, which is how matched pairs must be driven — widening one
	// side of a differential pair alone trades its Pelgrom σ for a
	// systematic offset and loses. No device may appear in two entries.
	Devices []string
	// Step is the width scale of one move (> 1); MaxScale bounds any
	// device's cumulative scale to [1/MaxScale, MaxScale].
	Step, MaxScale float64
	// MaxIters bounds the number of accepted moves.
	MaxIters int
	// Evaluate measures the metric distribution at the given sizing
	// (device → cumulative width scale), counting spec passes into its
	// Stats (a Campaign with the pass window as its Spec). It must be
	// deterministic in the sizing: the optimizer re-evaluates and
	// compares across iterations.
	Evaluate func(ctx context.Context, scales map[string]float64) (*MCResult, error)
}

// Run executes the search from the all-ones sizing. The context is
// checked between candidate evaluations; cancellation returns the
// trajectory so far with ErrCancelled.
func (c *Centering) Run(ctx context.Context) (*CenteringResult, error) {
	if c.Evaluate == nil || len(c.Devices) == 0 {
		return nil, fmt.Errorf("variation: centering needs devices and an evaluator")
	}
	if c.Step <= 1 || c.MaxScale < c.Step || c.MaxIters < 1 {
		return nil, fmt.Errorf("variation: centering needs step > 1, max_scale >= step, max_iters >= 1")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	devices := append([]string(nil), c.Devices...)
	sort.Strings(devices)
	groups := make(map[string][]string, len(devices))
	scales := make(map[string]float64)
	for _, d := range devices {
		members := strings.Split(d, "+")
		for _, m := range members {
			if _, dup := scales[m]; dup {
				return nil, fmt.Errorf("variation: centering device %q appears in more than one group", m)
			}
			scales[m] = 1
		}
		groups[d] = members
	}
	base, err := c.point(ctx, 0, "", 0, scales)
	if err != nil {
		return nil, err
	}
	res := &CenteringResult{Baseline: base, Trajectory: []CenteringStep{base}, Scales: scales}
	best := base

	for iter := 1; iter <= c.MaxIters; iter++ {
		type move struct {
			device string
			scale  float64 // candidate cumulative scale
			step   CenteringStep
		}
		var winner *move
		for _, d := range devices {
			for _, factor := range []float64{c.Step, 1 / c.Step} {
				// Group members always move together, so they share one
				// cumulative scale; read it off the first member.
				cand := scales[groups[d][0]] * factor
				if cand > c.MaxScale || cand < 1/c.MaxScale {
					continue
				}
				if err := ctx.Err(); err != nil {
					res.Final = best
					return res, fmt.Errorf("variation: centering: %w", ErrCancelled)
				}
				trial := cloneScales(scales)
				for _, m := range groups[d] {
					trial[m] = cand
				}
				st, err := c.point(ctx, iter, d, cand, trial)
				if err != nil {
					return nil, fmt.Errorf("variation: centering candidate %s×%.3g: %w", d, cand, err)
				}
				if winner == nil || betterStep(st, winner.step) {
					winner = &move{device: d, scale: cand, step: st}
				}
			}
		}
		if winner == nil || !betterStep(winner.step, best) {
			res.Converged = true
			break
		}
		for _, m := range groups[winner.device] {
			scales[m] = winner.scale
		}
		best = winner.step
		res.Trajectory = append(res.Trajectory, best)
	}
	res.Final = best
	res.Scales = scales
	return res, nil
}

// point evaluates one sizing into a trajectory step.
func (c *Centering) point(ctx context.Context, iter int, dev string, scale float64, scales map[string]float64) (CenteringStep, error) {
	r, err := c.Evaluate(ctx, scales)
	if err != nil {
		return CenteringStep{}, err
	}
	return CenteringStep{
		Iteration: iter, Device: dev, Scale: scale,
		Mean: r.Mean(), Sigma: r.StdDev(), Yield: r.Stats.Yield(),
	}, nil
}

// betterStep orders candidate steps: higher yield wins; ties break on
// the larger σ-margin proxy (smaller σ at equal yield means more margin
// to the spec edges), then on device name and upsizing for determinism.
func betterStep(a, b CenteringStep) bool {
	if a.Yield.Yield != b.Yield.Yield {
		return a.Yield.Yield > b.Yield.Yield
	}
	as, bs := a.Sigma, b.Sigma
	aOK, bOK := !math.IsNaN(as) && as > 0, !math.IsNaN(bs) && bs > 0
	if aOK && bOK && as != bs {
		return as < bs
	}
	if aOK != bOK {
		return aOK
	}
	if a.Device != b.Device {
		return a.Device < b.Device
	}
	return a.Scale > b.Scale
}

func cloneScales(m map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
