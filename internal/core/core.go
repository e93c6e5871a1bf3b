// Package core is the top of the stack: it combines the time-zero
// variability layer (Pelgrom Monte-Carlo sampling), the time-dependent
// degradation layer (NBTI/HCI/TDDB aging) and a specification system into
// a single reliability simulator that answers the paper's headline
// question — how does yield evolve over a product lifetime in a nanometer
// CMOS technology, and when do circuits drop out of spec?
package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/aging"
	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/mathx"
	"repro/internal/obs"
	"repro/internal/variation"
)

// Metric is one monitored performance figure with its acceptance spec.
type Metric struct {
	Name string
	// Measure evaluates the metric on a circuit (typically from its
	// operating point or an AC analysis).
	Measure func(c *circuit.Circuit) (float64, error)
	// Spec is the pass interval.
	Spec variation.Spec
}

// Mission describes the use conditions over which reliability is assessed.
type Mission struct {
	// Duration is the mission length in seconds.
	Duration float64
	// TempK is the junction temperature.
	TempK float64
	// Checkpoints is the number of aging checkpoints (log-spaced from
	// Duration/1e6 unless LinearTime).
	Checkpoints int
	// LinearTime selects linear checkpoint spacing (log-spaced is the
	// right default for power-law aging).
	LinearTime bool
	// Duty maps device names to stress duty factors (default 1).
	Duty map[string]float64
}

// CheckpointTimes expands the mission into concrete times. A single
// checkpoint degenerates to the mission end for both spacings — end-of-
// life yield with no intermediate snapshots.
func (m Mission) CheckpointTimes() []float64 {
	if m.LinearTime {
		return aging.LinCheckpoints(m.Duration, m.Checkpoints)
	}
	return aging.LogCheckpoints(m.Duration/1e6, m.Duration, m.Checkpoints)
}

// Validate checks the mission.
func (m Mission) Validate() error {
	switch {
	case m.Duration <= 0:
		return fmt.Errorf("core: non-positive mission duration %g", m.Duration)
	case m.TempK <= 0:
		return fmt.Errorf("core: non-positive temperature %g", m.TempK)
	case m.Checkpoints < 1:
		return fmt.Errorf("core: need at least one checkpoint")
	}
	return nil
}

// Simulator runs Monte-Carlo reliability analysis: every trial fabricates
// one die (fresh mismatch sample), ages it through the mission and records
// the monitored metrics at every checkpoint.
type Simulator struct {
	// Build constructs a fresh nominal circuit. It must return a new
	// instance on every call (trials run in parallel).
	Build func() (*circuit.Circuit, error)
	// Tech supplies the mismatch coefficients.
	Tech *device.Technology
	// Models are the degradation mechanisms (zero value disables aging).
	Models aging.Models
	// Metrics are the monitored specs.
	Metrics []Metric
	// GlobalSigmaVT / GlobalSigmaBeta enable die-to-die corners on top of
	// local mismatch (0 disables).
	GlobalSigmaVT, GlobalSigmaBeta float64
	// Seed makes the whole analysis reproducible.
	Seed uint64
}

// Result is the outcome of a reliability run.
type Result struct {
	// Times are the checkpoint times (with t=0 prepended).
	Times []float64
	// Yield[k] is the fraction of trials meeting every spec at Times[k].
	Yield []variation.YieldEstimate
	// MetricStats[k][m] is the mergeable moment summary (count, mean,
	// variance, extrema) of metric m over surviving evaluations at
	// Times[k], so dispersion over life is available without retaining
	// per-trial values.
	MetricStats [][]mathx.Moments
	// FailureTimes holds each trial's first out-of-spec time (+Inf for
	// survivors), sorted ascending.
	FailureTimes []float64
	// Trials is the requested trial count; Errors counts trials whose
	// simulation failed outright.
	Trials, Errors int
	// Cancelled counts trials that never ran because the run's context
	// was cancelled; the rest of the result then describes a partial run
	// over Trials - Cancelled dies.
	Cancelled int
	// TrialErrors holds one structured record per errored trial, in
	// trial order; len(TrialErrors) == Errors.
	TrialErrors []*variation.TrialError
	// Telemetry summarises run execution for operators.
	Telemetry RunTelemetry
	// MetricNames echoes the metric order of MetricStats.
	MetricNames []string
}

// RunTelemetry is the execution accounting of a reliability run — the
// operational counters a production service exports next to the yield
// answer itself.
type RunTelemetry struct {
	// Completed counts trials that ran to a verdict (succeeded or failed).
	Completed int
	// WallTime is the end-to-end run duration.
	WallTime time.Duration
	// NewtonIterations totals solver iterations across every trial —
	// the dominant cost driver of a run.
	NewtonIterations int64
	// ErrorsByPhase counts structured trial failures by pipeline phase
	// (build, mismatch, age, measure); nil when no trial failed.
	ErrorsByPhase map[string]int
	// ErrorsByKind counts structured trial failures by taxonomy kind
	// (convergence, panic, cancelled, other); nil when no trial failed.
	ErrorsByKind map[variation.FailureKind]int
	// Metrics is the whole-stack obs snapshot taken as the run finished —
	// solver, Monte-Carlo, and aging instruments in JSON-exportable form.
	// Nil unless metrics were enabled (core.EnableMetrics / SetMetrics).
	// The snapshot is cumulative across the process; the core_* counters
	// move by exactly this run's Completed/Errors/Cancelled.
	Metrics *obs.Snapshot
}

// MedianTTF returns the median failure time (+Inf when most trials
// survive).
func (r *Result) MedianTTF() float64 {
	if len(r.FailureTimes) == 0 {
		return math.Inf(1)
	}
	return r.FailureTimes[len(r.FailureTimes)/2]
}

// trialOut is the private outcome of one reliability trial.
type trialOut struct {
	ok     bool
	inSpec []bool      // per checkpoint
	values [][]float64 // per checkpoint per metric
	err    *variation.TrialError
	newton int64 // Newton iterations spent by this trial's circuit
}

// RunCtx executes nTrials Monte-Carlo reliability trials on the
// variation.Campaign engine. Trials run in parallel but the result depends
// only on (Simulator.Seed, nTrials). Built circuits are pooled in a
// variation.DiePool for the whole run: with no failed trials it builds at
// most one circuit per worker, and a die is restored to its as-built
// state before every trial. Each trial is fault-isolated: a panic in
// Build, mismatch sampling, aging or a Measure callback is recovered and
// recorded as a structured TrialError instead of crashing the run. When
// ctx is cancelled or its deadline passes, dispatch stops, in-flight
// trials drain, and the partial Result — with accurate Errors/Cancelled
// accounting and telemetry — is returned alongside an error wrapping
// variation.ErrCancelled.
func (s *Simulator) RunCtx(ctx context.Context, nTrials int, mission Mission) (*Result, error) {
	if nTrials <= 0 {
		return nil, fmt.Errorf("core: nTrials must be positive")
	}
	if s.Build == nil || s.Tech == nil || len(s.Metrics) == 0 {
		return nil, fmt.Errorf("core: simulator needs Build, Tech and at least one Metric")
	}
	if err := mission.Validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	m := met.Load()
	if m != nil {
		m.runs.Inc()
	}
	start := time.Now()
	times := append([]float64{0}, mission.CheckpointTimes()...)
	nCk := len(times)
	nMet := len(s.Metrics)

	outs := make([]trialOut, nTrials)
	pool := &variation.DiePool{Build: s.Build}
	pool.WarmStart()
	camp := variation.Campaign{
		Trials: nTrials,
		Seed:   s.Seed,
		// The trial outcome is the end-of-life pass bit, so the campaign's
		// own Stats carry the end-of-life yield.
		Spec: &variation.Spec{Lo: 1, Hi: 1},
		Trial: func(rng *mathx.RNG, i int) (float64, error) {
			die, err := pool.Get()
			if err != nil {
				outs[i].err = &variation.TrialError{Index: i, Phase: "build", Cause: err}
				return 0, outs[i].err
			}
			out := s.runTrialOn(die.Circuit, i, rng, times, mission)
			outs[i] = out
			if !out.ok {
				return 0, out.err
			}
			pool.Put(die)
			if out.inSpec[nCk-1] {
				return 1, nil
			}
			return 0, nil
		},
	}
	// Run fails only on an invalid campaign, which this one is not, or on
	// cancellation, which is reported from ctx below.
	mc, _ := camp.Run(ctx)

	res := &Result{Times: times, Trials: nTrials, Errors: mc.Failures, Cancelled: mc.Cancelled}
	for _, m := range s.Metrics {
		res.MetricNames = append(res.MetricNames, m.Name)
	}
	res.Yield = make([]variation.YieldEstimate, nCk)
	res.MetricStats = make([][]mathx.Moments, nCk)
	for k := 0; k < nCk; k++ {
		pass, total := 0, 0
		stats := make([]mathx.Moments, nMet)
		for _, o := range outs {
			if !o.ok {
				continue
			}
			total++
			if o.inSpec[k] {
				pass++
			}
			for m, v := range o.values[k] { // nil when a Measure errored
				// A NaN metric is a measured reject: it already failed the
				// spec check, but folding it into the moments would poison
				// mean/σ for every surviving die at this checkpoint. Keep it
				// out of the dispersion summary, mirroring variation.MCStats
				// (NaNs counted for yield, excluded from Moments).
				if math.IsNaN(v) {
					continue
				}
				stats[m].Add(v)
			}
		}
		res.Yield[k] = variation.YieldFromCounts(pass, total)
		res.MetricStats[k] = stats
	}
	for _, o := range outs {
		res.Telemetry.NewtonIterations += o.newton
		if !o.ok {
			// Errored (o.err set) or never run (cancelled).
			if o.err != nil {
				res.TrialErrors = append(res.TrialErrors, o.err)
			}
			continue
		}
		ft := math.Inf(1)
		for k, in := range o.inSpec {
			if !in {
				ft = times[k]
				break
			}
		}
		res.FailureTimes = append(res.FailureTimes, ft)
	}
	sort.Float64s(res.FailureTimes)
	res.Telemetry.Completed = nTrials - res.Cancelled
	res.Telemetry.WallTime = time.Since(start)
	res.Telemetry.ErrorsByPhase = variation.CountByPhase(res.TrialErrors)
	res.Telemetry.ErrorsByKind = variation.CountByKind(res.TrialErrors)
	if m != nil {
		m.trialsDone.Add(int64(res.Telemetry.Completed))
		m.trialErrors.Add(int64(res.Errors))
		m.cancelled.Add(int64(res.Cancelled))
		res.Telemetry.Metrics = m.reg.Snapshot()
	}
	if err := ctx.Err(); err != nil {
		return res, fmt.Errorf("core: %w after %d/%d trials: %v",
			variation.ErrCancelled, res.Telemetry.Completed, nTrials, err)
	}
	return res, nil
}

// runTrialOn ages and measures one die on an already-built (possibly
// reused) circuit. A panic anywhere in the trial pipeline is recovered
// here and converted into a structured TrialError tagged with the phase
// that blew up, so one pathological die cannot take down the whole run.
// Newton iterations are accounted as the delta over the trial, so circuit
// reuse does not double-count earlier trials' work.
func (s *Simulator) runTrialOn(c *circuit.Circuit, index int, rng *mathx.RNG, times []float64, mission Mission) (out trialOut) {
	newton0 := c.NewtonIterations()
	phase := "mismatch"
	defer func() {
		out.newton = c.NewtonIterations() - newton0
		if r := recover(); r != nil {
			out = trialOut{newton: out.newton, err: &variation.TrialError{
				Index: index, Phase: phase,
				Cause: &variation.PanicError{Value: r},
			}}
		}
	}()
	corner := variation.NominalCorner()
	if s.GlobalSigmaVT > 0 || s.GlobalSigmaBeta > 0 {
		corner = variation.SampleGlobalCorner(s.GlobalSigmaVT, s.GlobalSigmaBeta, rng.Split(0))
	}
	variation.ApplyRandomMismatch(c, s.Tech, corner, rng.Split(1))

	phase = "age"
	ager := aging.NewCircuitAger(c, s.Models, mission.TempK, rng.Split(2).Uint64())
	ager.DutyOverride = mission.Duty

	out.inSpec = make([]bool, len(times))
	out.values = make([][]float64, len(times))

	measure := func(k int) {
		phase = "measure"
		vals := make([]float64, len(s.Metrics))
		pass := true
		for m, met := range s.Metrics {
			v, err := met.Measure(c)
			if err != nil {
				pass = false
				vals = nil
				break
			}
			vals[m] = v
			if !met.Spec.Pass(v) {
				pass = false
			}
		}
		out.inSpec[k] = pass
		out.values[k] = vals
	}

	measure(0)
	prev := 0.0
	for k := 1; k < len(times); k++ {
		phase = "age"
		if err := c.SolveOP(); err != nil {
			// Hard failure: everything from here on is out of spec.
			for j := k; j < len(times); j++ {
				out.inSpec[j] = false
			}
			out.ok = true
			return
		}
		ager.Step(times[k] - prev)
		prev = times[k]
		measure(k)
	}
	out.ok = true
	return
}
