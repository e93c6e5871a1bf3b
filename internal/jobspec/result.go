package jobspec

import (
	"repro/internal/report/signoff"
	"repro/internal/variation"
)

// Result is the structured outcome of one executed Spec — everything a
// renderer (CLI tables/CSV) or an API client (JSON) needs, with exactly
// one analysis-specific block populated according to Kind. All fields
// marshal cleanly to JSON: unbounded or undefined quantities are encoded
// by absence, never by ±Inf/NaN.
type Result struct {
	// Kind echoes the executed analysis.
	Kind Kind `json:"kind"`
	// Seed echoes the RNG seed the run actually used (meaningful for mc
	// and age). ApplyDefaults rewrites an unset seed to 1, so this is how
	// a client that submitted a sparse spec learns the value it must
	// resubmit to reproduce the run.
	Seed uint64 `json:"seed,omitempty"`
	// Elapsed is the end-to-end execution wall time.
	Elapsed Duration `json:"elapsed"`
	// Partial marks a run cut short by cancellation or deadline; the
	// analysis block then describes the completed portion and Warning
	// carries the cause.
	Partial bool   `json:"partial,omitempty"`
	Warning string `json:"warning,omitempty"`

	OP        *OPResult         `json:"op,omitempty"`
	Series    *Series           `json:"series,omitempty"` // tran, sweep, ac
	Age       *AgeResult        `json:"age,omitempty"`
	MC        *MCOutcome        `json:"mc,omitempty"`
	Corners   *CornersResult    `json:"corners,omitempty"`
	Centering *CenteringOutcome `json:"centering,omitempty"`
	Signoff   *signoff.Report   `json:"signoff,omitempty"`
}

// NodeVoltage is one (node, voltage) pair in report order.
type NodeVoltage struct {
	Node string  `json:"node"`
	V    float64 `json:"v"`
}

// OPResult is a DC operating point: node voltages plus a per-MOSFET
// bias summary.
type OPResult struct {
	Nodes   []NodeVoltage `json:"nodes"`
	Devices []DeviceOP    `json:"devices,omitempty"`
}

// DeviceOP summarises one MOSFET's bias point.
type DeviceOP struct {
	Name   string  `json:"name"`
	ID     float64 `json:"id"`
	Gm     float64 `json:"gm"`
	Region string  `json:"region"`
}

// Series is a rectangular sweep result (transient, DC sweep or AC): one
// header per column, one row per abscissa point — the shape report.CSV
// prints directly.
type Series struct {
	Headers []string    `json:"headers"`
	Rows    [][]float64 `json:"rows"`
}

// AgeResult is a mission-aging trajectory plus end-of-life damage.
type AgeResult struct {
	// Years and TempK echo the mission (table-title metadata).
	Years float64 `json:"years"`
	TempK float64 `json:"temp_k"`
	// Nodes is the recorded node order (column order for renderers, even
	// when every checkpoint failed to converge).
	Nodes []string `json:"nodes"`
	// Checkpoints hold the recorded node voltages at each age; a Failed
	// checkpoint is one where the circuit no longer converges.
	Checkpoints []AgeCheckpoint `json:"checkpoints"`
	// Devices lists per-device damage at end of life in sorted-name order.
	Devices []DeviceDamage `json:"devices,omitempty"`
}

// AgeCheckpoint is one point of the trajectory.
type AgeCheckpoint struct {
	Time   float64       `json:"time"`
	Failed bool          `json:"failed,omitempty"`
	Nodes  []NodeVoltage `json:"nodes,omitempty"`
}

// DeviceDamage is one device's accumulated wear.
type DeviceDamage struct {
	Name           string  `json:"name"`
	DeltaVT        float64 `json:"delta_vt"`
	MobilityFactor float64 `json:"mobility_factor"`
	BDMode         string  `json:"bd_mode"`
}

// MCOutcome is a Monte-Carlo mismatch distribution with its exact
// failure accounting: Requested == Stats.Moments.Count + Failures + NaNs
// + Cancelled always holds, including on partial (cancelled) runs. It
// carries no per-trial values, so it has one shape whatever the shard
// split or resume point.
type MCOutcome struct {
	Node      string `json:"node"`
	Requested int    `json:"requested"`
	Failures  int    `json:"failures"`
	NaNs      int    `json:"nans"`
	Cancelled int    `json:"cancelled"`
	// Elapsed is the Monte-Carlo engine's own wall time (excludes deck
	// parsing and the nominal warm-start solve).
	Elapsed Duration `json:"elapsed"`
	// Stats is the mergeable statistical summary: exact moments and
	// counts, and a bounded-error quantile sketch.
	Stats *variation.MCStats `json:"stats,omitempty"`
	// Chunks carries the per-chunk summaries of a trial-range sub-job so
	// the dispatching parent can scatter-gather and checkpoint them.
	// Populated only when the spec had MC.Range set.
	Chunks []variation.ChunkStat `json:"chunks,omitempty"`
	// Shards is the scatter-gather fan-out that produced this outcome
	// (0 for an unsharded run); Resumed counts grid chunks restored from
	// checkpoints instead of re-run.
	Shards  int `json:"shards,omitempty"`
	Resumed int `json:"resumed,omitempty"`
	// FailuresByKind tallies failed trials by the variation taxonomy
	// (convergence, panic, cancelled, other).
	FailuresByKind map[string]int `json:"failures_by_kind,omitempty"`
	// FirstFailure is the first structured trial error, as a debugging
	// sample.
	FirstFailure string `json:"first_failure,omitempty"`
	// Yield is the spec yield estimate; nil when the spec had no bounds
	// or no trial succeeded.
	Yield *variation.YieldEstimate `json:"yield,omitempty"`
}

// Completed returns the number of trials that ran to a verdict.
func (m *MCOutcome) Completed() int { return m.Stats.Completed() }

// CornersResult is a global-corner sweep of one node voltage with
// worst-case identification, and — when the spec carried limits — a
// per-corner pass/fail verdict.
type CornersResult struct {
	Node    string        `json:"node"`
	Corners []CornerValue `json:"corners"`
	// Lo/Hi echo the spec window the corners were judged against; both
	// absent when the sweep ran without limits.
	Lo *float64 `json:"lo,omitempty"`
	Hi *float64 `json:"hi,omitempty"`
	// Worst names the worst-case corner: minimal spec margin when limits
	// were given, otherwise the largest deviation from TT. WorstV is its
	// value.
	Worst  string  `json:"worst,omitempty"`
	WorstV float64 `json:"worst_v,omitempty"`
	// Pass reports whether every corner met the window (vacuously true
	// without limits).
	Pass bool `json:"pass"`
}

// CornerValue is one corner's result.
type CornerValue struct {
	Name string  `json:"name"`
	V    float64 `json:"v"`
	// Pass and Margin are the spec verdict and the distance to the
	// nearest spec edge (negative when out of spec); absent when the
	// sweep ran without limits. A NaN measurement fails with no margin.
	Pass   *bool    `json:"pass,omitempty"`
	Margin *float64 `json:"margin,omitempty"`
}

// CenteringOutcome is a design-centering run: the yield trajectory of
// the greedy width search and the final per-device sizing.
type CenteringOutcome struct {
	Node string `json:"node"`
	// Trials is the Monte-Carlo sample size of each candidate evaluation
	// (common random numbers across candidates).
	Trials int `json:"trials"`
	// Baseline and Final are the first and last trajectory points; the
	// demo claim "centering improves yield" is Final.Yield vs
	// Baseline.Yield.
	Baseline CenteringPoint `json:"baseline"`
	Final    CenteringPoint `json:"final"`
	// Trajectory holds every accepted move, baseline first.
	Trajectory []CenteringPoint `json:"trajectory"`
	// Sizing lists each candidate device's final width, sorted by name.
	Sizing []DeviceScale `json:"sizing"`
	// Converged reports the search stopped because no move improved,
	// rather than exhausting max_iters.
	Converged bool `json:"converged"`
}

// CenteringPoint is one accepted point of a centering trajectory.
type CenteringPoint struct {
	// Iteration numbers the accepted move (0 = uncentered baseline);
	// Device/Scale identify the move (absent at the baseline).
	Iteration int     `json:"iteration"`
	Device    string  `json:"device,omitempty"`
	Scale     float64 `json:"scale,omitempty"`
	// Yield is the spec yield at this sizing (NaN dies count as rejects).
	Yield variation.YieldEstimate `json:"yield"`
	// Mean and Sigma summarise the metric distribution; absent when no
	// die produced a finite value.
	Mean  *float64 `json:"mean,omitempty"`
	Sigma *float64 `json:"sigma,omitempty"`
}

// DeviceScale is one device's final centering sizing.
type DeviceScale struct {
	Device string `json:"device"`
	// Scale is the cumulative width scale vs the deck (1 = untouched);
	// WidthM the resulting drawn width in metres.
	Scale  float64 `json:"scale"`
	WidthM float64 `json:"width_m"`
}
