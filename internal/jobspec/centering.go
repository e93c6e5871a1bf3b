package jobspec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/netlist"
	"repro/internal/variation"
)

// executeCentering runs the design-centering search: a greedy width
// optimizer over the deck's MOSFETs, each candidate sizing scored by a
// common-random-numbers Monte-Carlo yield estimate against the spec
// window.
func executeCentering(ctx context.Context, text string, deck *netlist.Deck, spec *Spec, res *Result, opts Options) error {
	p := spec.Centering
	devices := p.Devices
	if len(devices) == 0 {
		for _, m := range deck.Circuit.MOSFETList() {
			devices = append(devices, m.Name())
		}
	}
	if len(devices) == 0 {
		return fmt.Errorf("jobspec: centering needs a deck with MOSFETs")
	}
	for _, d := range devices {
		// An entry may be a '+'-joined matched group; every member must
		// exist before the search starts.
		for _, m := range strings.Split(d, "+") {
			if _, ok := deck.MOSFETs[m]; !ok {
				return fmt.Errorf("jobspec: centering device %q not in deck", m)
			}
		}
	}
	w := p.Window()
	vspec := variation.Spec{Name: p.Node, Lo: w.SpecLo(), Hi: w.SpecHi()}

	// Each candidate evaluation is a full Monte-Carlo campaign on a deck
	// resized to the candidate sizing. The seed is held fixed across
	// candidates (common random numbers), so every sizing sees the same
	// sequence of dies and the comparison is paired. The candidate's
	// nominal solution warm-starts every trial, as in an MC job.
	evaluate := func(ctx context.Context, scales map[string]float64) (*variation.MCResult, error) {
		pool := &variation.DiePool{Build: deckBuilder(text, scales)}
		pool.WarmStart()
		camp := &variation.Campaign{
			Trials: p.Trials,
			Seed:   spec.Seed,
			Spec:   &vspec,
			Trial:  voltageTrial(pool, deck.Tech, variation.NominalCorner(), p.Node),
		}
		return camp.Run(ctx)
	}

	accepted := 0
	meter := newMeter("iteration", p.MaxIters, opts)
	ctr := &variation.Centering{
		Devices:  devices,
		Step:     p.Step,
		MaxScale: p.MaxScale,
		MaxIters: p.MaxIters,
		Evaluate: evaluate,
	}
	cr, err := ctr.Run(ctx)
	if err != nil {
		if cr == nil || !errors.Is(err, variation.ErrCancelled) {
			return err
		}
		res.Partial = true
		res.Warning = err.Error()
	}

	out := &CenteringOutcome{
		Node:      p.Node,
		Trials:    p.Trials,
		Converged: cr.Converged,
	}
	for _, st := range cr.Trajectory {
		out.Trajectory = append(out.Trajectory, centeringPoint(st))
		if st.Iteration > accepted {
			accepted = st.Iteration
			meter.tick()
		}
	}
	out.Baseline = centeringPoint(cr.Baseline)
	out.Final = centeringPoint(cr.Final)
	// Final widths come from the original (unsized) deck: scale × drawn W.
	names := make([]string, 0, len(cr.Scales))
	for n := range cr.Scales {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		sc := cr.Scales[n]
		out.Sizing = append(out.Sizing, DeviceScale{
			Device: n,
			Scale:  sc,
			WidthM: deck.MOSFETs[n].Dev.Params.W * sc,
		})
	}
	res.Centering = out
	return nil
}

// centeringPoint converts an optimizer step to its wire form: NaN
// moments (no finite die) are encoded by absence.
func centeringPoint(st variation.CenteringStep) CenteringPoint {
	p := CenteringPoint{
		Iteration: st.Iteration,
		Device:    st.Device,
		Scale:     st.Scale,
		Yield:     st.Yield,
	}
	if !math.IsNaN(st.Mean) {
		m := st.Mean
		p.Mean = &m
	}
	if !math.IsNaN(st.Sigma) {
		s := st.Sigma
		p.Sigma = &s
	}
	return p
}
