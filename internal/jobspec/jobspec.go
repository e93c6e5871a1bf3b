// Package jobspec defines the versioned, JSON-serializable description of
// one reliability analysis — the unit of work of this reproduction. The
// paper's resilience loop (§5.2) assumes reliability analyses run as
// continuous, parameterized campaigns rather than ad-hoc batch
// invocations; a campaign needs a stable wire format for "run this
// analysis on this netlist with these parameters". A Spec captures
// exactly that (analysis kind, netlist source, parameters, seed, wall
// budget), a Result captures the structured outcome, and Execute runs the
// one through the other — the single dispatch path behind both the relsim
// command line and the internal/serve HTTP job service, so a flag-driven
// one-shot run and a POSTed server job execute the identical struct.
package jobspec

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"repro/internal/variation"
)

// SpecVersion is the current schema version. Version 0 in an incoming
// document means "unversioned, oldest" and is upgraded to the current
// version by ApplyDefaults; versions above SpecVersion are rejected by
// Validate so an old server never silently misreads a newer client's
// spec. Version 2 added the yield-campaign layer: spec limits and
// worst-corner identification on corners, the mc corner pin, and the
// centering and signoff analyses. Version-1 documents remain valid.
const SpecVersion = 2

// Kind names one analysis.
type Kind string

// The supported analysis kinds. They mirror relsim's -analysis values.
const (
	KindOP        Kind = "op"        // DC operating point
	KindTran      Kind = "tran"      // transient (fixed or adaptive step)
	KindSweep     Kind = "sweep"     // DC source sweep
	KindAC        Kind = "ac"        // small-signal frequency sweep
	KindAge       Kind = "age"       // NBTI/HCI/TDDB mission aging
	KindMC        Kind = "mc"        // Monte-Carlo mismatch
	KindCorners   Kind = "corners"   // TT/SS/FF/SF/FS global corners
	KindCentering Kind = "centering" // design-centering yield optimization
	KindSignoff   Kind = "signoff"   // composite corners→MC→aging/EM signoff campaign
)

// Kinds lists every valid analysis kind in documentation order.
func Kinds() []Kind {
	return []Kind{KindOP, KindTran, KindSweep, KindAC, KindAge, KindMC,
		KindCorners, KindCentering, KindSignoff}
}

// ErrUnknownAnalysis tags validation failures caused by an unrecognised
// analysis kind, so the CLI can turn exactly that mistake into usage +
// exit 2 while other validation errors stay ordinary failures.
type ErrUnknownAnalysis struct{ Kind Kind }

func (e *ErrUnknownAnalysis) Error() string {
	return fmt.Sprintf("jobspec: unknown analysis %q (want one of %v)", e.Kind, Kinds())
}

// Duration is a time.Duration that marshals to/from the Go duration
// string ("30s", "1m30s") so specs stay readable on the wire.
type Duration time.Duration

// MarshalJSON renders the duration as a string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts either a duration string or a number of
// nanoseconds (the encoding a naive client produces).
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		dd, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("jobspec: bad duration %q: %w", s, err)
		}
		*d = Duration(dd)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return fmt.Errorf("jobspec: duration must be a string or integer nanoseconds")
	}
	*d = Duration(n)
	return nil
}

// Spec is one fully-parameterized analysis request. The zero value plus
// Analysis and a netlist source is a valid request after ApplyDefaults.
type Spec struct {
	// Version is the schema version (see SpecVersion). 0 means "default".
	Version int `json:"version"`
	// Analysis selects the engine.
	Analysis Kind `json:"analysis"`
	// Netlist is the inline SPICE-flavoured deck text. It takes priority
	// over NetlistFile and is the only source the HTTP server accepts.
	Netlist string `json:"netlist,omitempty"`
	// NetlistFile names a local file to read when Netlist is empty
	// (CLI convenience; rejected by the job server).
	NetlistFile string `json:"netlist_file,omitempty"`
	// Record lists the nodes to report (empty = analysis-specific default,
	// usually every node).
	Record []string `json:"record,omitempty"`
	// Seed fixes the RNG for mc and age. A sparse document may omit it
	// (or carry 0): ApplyDefaults rewrites 0 to 1, so an unseeded
	// submission is deterministic rather than irreproducible. The seed a
	// run actually used is echoed back in Result.Seed, so a client that
	// submitted without an explicit seed can still reproduce the run.
	Seed uint64 `json:"seed,omitempty"`
	// NoCache opts this submission out of the server's spec-keyed result
	// cache: it is neither answered from the cache nor entered into it.
	// The field is excluded from CanonicalHash, so a no_cache run of a
	// spec does not perturb the cache key of its cacheable twin.
	NoCache bool `json:"no_cache,omitempty"`
	// Timeout bounds the analysis wall clock; on expiry mc and age report
	// the completed portion as a partial result. 0 = unbounded.
	Timeout Duration `json:"timeout,omitempty"`

	// Exactly the parameter block matching Analysis is consulted; the
	// others may be nil.
	Tran      *TranParams      `json:"tran,omitempty"`
	Sweep     *SweepParams     `json:"sweep,omitempty"`
	AC        *ACParams        `json:"ac,omitempty"`
	Age       *AgeParams       `json:"age,omitempty"`
	MC        *MCParams        `json:"mc,omitempty"`
	Corners   *CornersParams   `json:"corners,omitempty"`
	Centering *CenteringParams `json:"centering,omitempty"`
	Signoff   *SignoffParams   `json:"signoff,omitempty"`
}

// TranParams parameterizes a transient analysis.
type TranParams struct {
	// Stop is the end time [s]; Step the fixed step (or minimum step when
	// Adaptive) [s].
	Stop float64 `json:"stop"`
	Step float64 `json:"step"`
	// Adaptive selects LTE-controlled variable stepping with tolerance
	// LTETol [V].
	Adaptive bool    `json:"adaptive,omitempty"`
	LTETol   float64 `json:"lte_tol,omitempty"`
}

// SweepParams parameterizes a DC sweep.
type SweepParams struct {
	// Source is the swept source element.
	Source string  `json:"source"`
	From   float64 `json:"from"`
	To     float64 `json:"to"`
	Points int     `json:"points"`
}

// ACParams parameterizes a small-signal frequency sweep.
type ACParams struct {
	// Source is stimulated with ACMag = 1.
	Source string  `json:"source"`
	FStart float64 `json:"fstart"`
	FStop  float64 `json:"fstop"`
	Points int     `json:"points"`
}

// AgeParams parameterizes a mission aging analysis.
type AgeParams struct {
	// Years is the mission length; TempK the junction temperature.
	Years float64 `json:"years"`
	TempK float64 `json:"temp_k"`
	// Checkpoints is the number of log-spaced trajectory points.
	Checkpoints int `json:"checkpoints,omitempty"`
}

// MCParams parameterizes a Monte-Carlo mismatch analysis.
type MCParams struct {
	// Trials is the number of dies; Node the monitored node voltage.
	Trials int    `json:"trials"`
	Node   string `json:"node"`
	// Lo/Hi bound the yield spec; nil means unbounded on that side
	// (JSON cannot carry ±Inf).
	Lo *float64 `json:"lo,omitempty"`
	Hi *float64 `json:"hi,omitempty"`
	// Shards splits the campaign into that many trial-range sub-jobs
	// executed concurrently (locally or on peer servers) and scatter-
	// gathered into one result. It is an execution knob — mean/std/yield
	// are bit-identical for any shard count and quantiles stay within the
	// sketch's rank-error bound — so CanonicalHash excludes it. 0 or 1
	// means unsharded.
	Shards int `json:"shards,omitempty"`
	// Range restricts execution to a chunk-aligned trial sub-range of the
	// campaign grid — the form a shard sub-job takes. Unlike Shards it IS
	// part of CanonicalHash: a sub-range is different work, not a
	// different way of running the same work. Trials stays the TOTAL
	// campaign count (it defines the grid and every trial's RNG stream);
	// Range selects which slice of it this execution computes.
	Range *TrialRange `json:"range,omitempty"`
	// Corner pins the campaign to one named global process corner: every
	// trial's sampled local mismatch rides on top of the corner's
	// deterministic per-polarity ΔVT/β shift. Like Range it IS part of
	// CanonicalHash — Monte-Carlo at SS is different work than at TT.
	// nil means nominal (no global shift), the pre-v2 behaviour.
	Corner *CornerShift `json:"corner,omitempty"`
}

// CornerShift names the global process corner a Monte-Carlo campaign is
// pinned to (see variation.StandardCorners) and the 3σ levels that define
// it. The signoff campaign uses it to re-run yield at the worst corner
// found by the corner sweep.
type CornerShift struct {
	// Name is one of TT, SS, FF, SF, FS.
	Name string `json:"name"`
	// SigmaVT [V] and SigmaBeta (fractional) set the 3σ corner levels;
	// ApplyDefaults picks 0.03 V and 0.08, matching the corners analysis.
	SigmaVT   float64 `json:"sigma_vt,omitempty"`
	SigmaBeta float64 `json:"sigma_beta,omitempty"`
}

// TrialRange is a half-open global trial range [From, To) on the
// campaign chunk grid (see variation.ChunkSize).
type TrialRange struct {
	From int `json:"from"`
	To   int `json:"to"`
}

// Bounds is the spec window a parameter block's Lo/Hi pair carries: a
// nil side is unbounded (JSON cannot carry ±Inf).
type Bounds struct{ Lo, Hi *float64 }

// SpecLo returns the lower spec bound (-Inf when unset).
func (b Bounds) SpecLo() float64 {
	if b.Lo == nil {
		return math.Inf(-1)
	}
	return *b.Lo
}

// SpecHi returns the upper spec bound (+Inf when unset).
func (b Bounds) SpecHi() float64 {
	if b.Hi == nil {
		return math.Inf(1)
	}
	return *b.Hi
}

// HasSpec reports whether either bound is set.
func (b Bounds) HasSpec() bool { return b.Lo != nil || b.Hi != nil }

// validate rejects an inverted window.
func (b Bounds) validate(kind Kind) error {
	if b.Lo != nil && b.Hi != nil && *b.Lo > *b.Hi {
		return fmt.Errorf("jobspec: %s spec lo %g above hi %g", kind, *b.Lo, *b.Hi)
	}
	return nil
}

// Window returns the yield spec window.
func (p *MCParams) Window() Bounds { return Bounds{p.Lo, p.Hi} }

// CornersParams parameterizes a global-corner sweep.
type CornersParams struct {
	// Node is the monitored node voltage.
	Node string `json:"node"`
	// SigmaVT [V] and SigmaBeta (fractional) set the 3σ corner levels.
	SigmaVT   float64 `json:"sigma_vt,omitempty"`
	SigmaBeta float64 `json:"sigma_beta,omitempty"`
	// Lo/Hi bound the per-corner spec window; nil means unbounded on that
	// side (JSON cannot carry ±Inf). With at least one bound set, each
	// corner gets a pass verdict and a worst-case margin; unset keeps the
	// pre-v2 behaviour (values only, worst = largest deviation from TT).
	Lo *float64 `json:"lo,omitempty"`
	Hi *float64 `json:"hi,omitempty"`
}

// Window returns the per-corner spec window.
func (p *CornersParams) Window() Bounds { return Bounds{p.Lo, p.Hi} }

// CenteringParams parameterizes a design-centering run: a greedy
// coordinate search over per-device width scale factors that moves the
// sizing toward maximum yield on the monitored node (paper §4.2 — sizing
// against variability via the Pelgrom area law).
type CenteringParams struct {
	// Node is the monitored node voltage; Lo/Hi its spec window (at least
	// one bound is required — centering needs a yield to climb).
	Node string   `json:"node"`
	Lo   *float64 `json:"lo,omitempty"`
	Hi   *float64 `json:"hi,omitempty"`
	// Trials is the Monte-Carlo sample size of each candidate evaluation.
	// Every candidate in a run reuses the same seed (common random
	// numbers), so comparisons are paired and deterministic. Default 96.
	Trials int `json:"trials,omitempty"`
	// MaxIters bounds the number of accepted moves. Default 6.
	MaxIters int `json:"max_iters,omitempty"`
	// Step is the width scale factor of one move (a device is widened or
	// narrowed by this factor). Default 1.25.
	Step float64 `json:"step,omitempty"`
	// MaxScale bounds any device's cumulative width scale (and 1/MaxScale
	// its shrink), keeping the optimizer inside a plausible layout budget.
	// Default 4.
	MaxScale float64 `json:"max_scale,omitempty"`
	// Devices restricts the search to these move axes (default: every
	// MOSFET in the deck, individually). An entry is a MOSFET name or
	// several names joined by '+' ("M1+M2"): the group resizes as one
	// move, which is how matched pairs must be driven.
	Devices []string `json:"devices,omitempty"`
}

// Window returns the yield spec window.
func (p *CenteringParams) Window() Bounds { return Bounds{p.Lo, p.Hi} }

// SignoffParams parameterizes the composite signoff campaign: a DAG of
// sub-jobs (corner sweep → Monte-Carlo at the worst corner, with aging
// and electromigration roll-ups in parallel) compiled into one
// compliance report (see internal/report/signoff).
type SignoffParams struct {
	// Node is the monitored node voltage; Lo/Hi its spec window (at least
	// one bound is required — signoff judges yield against it).
	Node string   `json:"node"`
	Lo   *float64 `json:"lo,omitempty"`
	Hi   *float64 `json:"hi,omitempty"`
	// Trials is the Monte-Carlo sample size at the worst corner.
	// Default 200.
	Trials int `json:"trials,omitempty"`
	// SigmaVT [V] and SigmaBeta (fractional) set the 3σ corner levels of
	// the corner-sweep stage. Defaults 0.03 V and 0.08.
	SigmaVT   float64 `json:"sigma_vt,omitempty"`
	SigmaBeta float64 `json:"sigma_beta,omitempty"`
	// Years is the mission length and TempK the junction temperature of
	// the aging and electromigration stages. Defaults 10 years, 350 K.
	Years float64 `json:"years,omitempty"`
	TempK float64 `json:"temp_k,omitempty"`
	// TargetFIT is the failure-rate budget [failures / 10⁹ device-hours]
	// the reliability section is judged against. Default 1000.
	TargetFIT float64 `json:"target_fit,omitempty"`
}

// Window returns the yield spec window.
func (p *SignoffParams) Window() Bounds { return Bounds{p.Lo, p.Hi} }

// ApplyDefaults fills every unset field with the documented default —
// the same values the relsim flags default to — and stamps Version. It
// is idempotent and safe on specs that already carry values.
func (s *Spec) ApplyDefaults() {
	if s.Version == 0 {
		s.Version = SpecVersion
	}
	if s.Analysis == "" {
		s.Analysis = KindOP
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	switch s.Analysis {
	case KindTran:
		if s.Tran == nil {
			s.Tran = &TranParams{}
		}
		if s.Tran.Stop == 0 {
			s.Tran.Stop = 1e-3
		}
		if s.Tran.Step == 0 {
			s.Tran.Step = 1e-6
		}
		if s.Tran.LTETol == 0 {
			s.Tran.LTETol = 1e-3
		}
	case KindSweep:
		if s.Sweep == nil {
			s.Sweep = &SweepParams{}
		}
		if s.Sweep.Points == 0 {
			s.Sweep.Points = 11
		}
		if s.Sweep.From == 0 && s.Sweep.To == 0 {
			s.Sweep.To = 1
		}
	case KindAC:
		if s.AC == nil {
			s.AC = &ACParams{}
		}
		if s.AC.FStart == 0 {
			s.AC.FStart = 1e3
		}
		if s.AC.FStop == 0 {
			s.AC.FStop = 1e9
		}
		if s.AC.Points == 0 {
			s.AC.Points = 31
		}
	case KindAge:
		if s.Age == nil {
			s.Age = &AgeParams{}
		}
		if s.Age.Years == 0 {
			s.Age.Years = 10
		}
		if s.Age.TempK == 0 {
			s.Age.TempK = 350
		}
		if s.Age.Checkpoints == 0 {
			s.Age.Checkpoints = 10
		}
	case KindMC:
		if s.MC == nil {
			s.MC = &MCParams{}
		}
		if s.MC.Trials == 0 {
			s.MC.Trials = 200
		}
		if c := s.MC.Corner; c != nil {
			if c.SigmaVT == 0 {
				c.SigmaVT = 0.03
			}
			if c.SigmaBeta == 0 {
				c.SigmaBeta = 0.08
			}
		}
	case KindCorners:
		if s.Corners == nil {
			s.Corners = &CornersParams{}
		}
		if s.Corners.SigmaVT == 0 {
			s.Corners.SigmaVT = 0.03
		}
		if s.Corners.SigmaBeta == 0 {
			s.Corners.SigmaBeta = 0.08
		}
	case KindCentering:
		if s.Centering == nil {
			s.Centering = &CenteringParams{}
		}
		if s.Centering.Trials == 0 {
			s.Centering.Trials = 96
		}
		if s.Centering.MaxIters == 0 {
			s.Centering.MaxIters = 6
		}
		if s.Centering.Step == 0 {
			s.Centering.Step = 1.25
		}
		if s.Centering.MaxScale == 0 {
			s.Centering.MaxScale = 4
		}
	case KindSignoff:
		if s.Signoff == nil {
			s.Signoff = &SignoffParams{}
		}
		if s.Signoff.Trials == 0 {
			s.Signoff.Trials = 200
		}
		if s.Signoff.SigmaVT == 0 {
			s.Signoff.SigmaVT = 0.03
		}
		if s.Signoff.SigmaBeta == 0 {
			s.Signoff.SigmaBeta = 0.08
		}
		if s.Signoff.Years == 0 {
			s.Signoff.Years = 10
		}
		if s.Signoff.TempK == 0 {
			s.Signoff.TempK = 350
		}
		if s.Signoff.TargetFIT == 0 {
			s.Signoff.TargetFIT = 1000
		}
	}
}

// CanonicalHash returns the spec's content address: the hex SHA-256 of
// its canonical JSON encoding with the execution-only fields cleared —
// NoCache (cache control) and MC.Shards (scatter-gather fan-out), neither
// of which changes a result. Everything that influences an execution's
// outcome — version, analysis kind, netlist text, record list, seed,
// timeout and the parameter blocks, including MC.Range (a trial sub-range
// is different work) — is part of the hash; two specs with equal hashes
// describe the same deterministic computation, which is what makes the
// hash usable as a result-cache key. Call ApplyDefaults first so that a
// sparse document and its fully-explicit twin hash identically. The
// retired mc.batch field was always cleared here, so a journaled spec
// that still carries it, decoded leniently, keeps its recorded hash.
func (s *Spec) CanonicalHash() string {
	c := *s
	c.NoCache = false
	if c.MC != nil && c.MC.Shards != 0 {
		mc := *c.MC
		mc.Shards = 0
		c.MC = &mc
	}
	// Spec marshals deterministically: fixed struct field order, no maps,
	// and Duration's string form. Marshal cannot fail on this shape.
	b, err := json.Marshal(&c)
	if err != nil {
		// Unreachable for a Spec, but never let a hash collide on error.
		return "unhashable:" + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Validate checks the spec for executability. It does not parse the
// netlist — deck errors surface from Execute — but it catches every
// structural mistake: unknown kind, missing netlist source, missing or
// out-of-range parameters. Call ApplyDefaults first unless every field
// is explicit.
func (s *Spec) Validate() error {
	if s.Version < 0 || s.Version > SpecVersion {
		return fmt.Errorf("jobspec: unsupported spec version %d (max %d)", s.Version, SpecVersion)
	}
	switch s.Analysis {
	case KindOP, KindTran, KindSweep, KindAC, KindAge, KindMC, KindCorners,
		KindCentering, KindSignoff:
	default:
		return &ErrUnknownAnalysis{Kind: s.Analysis}
	}
	if s.Netlist == "" && s.NetlistFile == "" {
		return fmt.Errorf("jobspec: spec needs a netlist (inline or file)")
	}
	if s.Timeout < 0 {
		return fmt.Errorf("jobspec: negative timeout %s", time.Duration(s.Timeout))
	}
	switch s.Analysis {
	case KindTran:
		if s.Tran == nil || s.Tran.Stop <= 0 || s.Tran.Step <= 0 {
			return fmt.Errorf("jobspec: tran needs stop > 0 and step > 0")
		}
		if s.Tran.Adaptive && s.Tran.LTETol <= 0 {
			return fmt.Errorf("jobspec: adaptive tran needs lte_tol > 0")
		}
	case KindSweep:
		if s.Sweep == nil || s.Sweep.Source == "" {
			return fmt.Errorf("jobspec: sweep needs a source")
		}
		if s.Sweep.Points < 2 {
			return fmt.Errorf("jobspec: sweep needs points >= 2")
		}
	case KindAC:
		if s.AC == nil || s.AC.Source == "" {
			return fmt.Errorf("jobspec: ac needs a source")
		}
		if s.AC.Points < 2 || s.AC.FStart <= 0 || s.AC.FStop <= s.AC.FStart {
			return fmt.Errorf("jobspec: ac needs 0 < fstart < fstop and points >= 2")
		}
	case KindAge:
		if s.Age == nil || s.Age.Years <= 0 || s.Age.TempK <= 0 || s.Age.Checkpoints < 1 {
			return fmt.Errorf("jobspec: age needs years > 0, temp_k > 0 and checkpoints >= 1")
		}
	case KindMC:
		if s.MC == nil || s.MC.Node == "" {
			return fmt.Errorf("jobspec: mc needs a node")
		}
		if s.MC.Trials < 1 {
			return fmt.Errorf("jobspec: mc needs trials >= 1")
		}
		if err := s.MC.Window().validate(KindMC); err != nil {
			return err
		}
		if s.MC.Shards < 0 {
			return fmt.Errorf("jobspec: mc needs shards >= 0 (0 or 1 means unsharded)")
		}
		if r := s.MC.Range; r != nil {
			if s.MC.Shards > 1 {
				return fmt.Errorf("jobspec: mc range and shards > 1 are mutually exclusive (a shard sub-job cannot itself shard)")
			}
			if r.From < 0 || r.To <= r.From || r.To > s.MC.Trials {
				return fmt.Errorf("jobspec: mc range [%d,%d) outside [0,%d)", r.From, r.To, s.MC.Trials)
			}
			cs := variation.ChunkSize(s.MC.Trials)
			if r.From%cs != 0 || (r.To%cs != 0 && r.To != s.MC.Trials) {
				return fmt.Errorf("jobspec: mc range [%d,%d) not aligned to the %d-trial chunk grid", r.From, r.To, cs)
			}
		}
		if c := s.MC.Corner; c != nil {
			if !validCornerName(c.Name) {
				return fmt.Errorf("jobspec: mc corner %q (want one of TT, SS, FF, SF, FS)", c.Name)
			}
			if c.SigmaVT < 0 || c.SigmaBeta < 0 {
				return fmt.Errorf("jobspec: mc corner needs sigma_vt >= 0 and sigma_beta >= 0")
			}
		}
	case KindCorners:
		if s.Corners == nil || s.Corners.Node == "" {
			return fmt.Errorf("jobspec: corners needs a node")
		}
		if err := s.Corners.Window().validate(KindCorners); err != nil {
			return err
		}
	case KindCentering:
		p := s.Centering
		if p == nil || p.Node == "" {
			return fmt.Errorf("jobspec: centering needs a node")
		}
		if !p.Window().HasSpec() {
			return fmt.Errorf("jobspec: centering needs a spec bound (lo and/or hi) — it optimizes yield against it")
		}
		if err := p.Window().validate(KindCentering); err != nil {
			return err
		}
		if p.Trials < 1 || p.MaxIters < 1 {
			return fmt.Errorf("jobspec: centering needs trials >= 1 and max_iters >= 1")
		}
		if p.Step <= 1 {
			return fmt.Errorf("jobspec: centering needs step > 1 (a width scale factor)")
		}
		if p.MaxScale < p.Step {
			return fmt.Errorf("jobspec: centering needs max_scale >= step")
		}
	case KindSignoff:
		p := s.Signoff
		if p == nil || p.Node == "" {
			return fmt.Errorf("jobspec: signoff needs a node")
		}
		if !p.Window().HasSpec() {
			return fmt.Errorf("jobspec: signoff needs a spec bound (lo and/or hi) — it judges yield against it")
		}
		if err := p.Window().validate(KindSignoff); err != nil {
			return err
		}
		if p.Trials < 1 {
			return fmt.Errorf("jobspec: signoff needs trials >= 1")
		}
		if p.Years <= 0 || p.TempK <= 0 {
			return fmt.Errorf("jobspec: signoff needs years > 0 and temp_k > 0")
		}
		if p.TargetFIT <= 0 {
			return fmt.Errorf("jobspec: signoff needs target_fit > 0")
		}
	}
	return nil
}

// validCornerName reports whether name is one of the five standard
// global corners.
func validCornerName(name string) bool {
	switch name {
	case "TT", "SS", "FF", "SF", "FS":
		return true
	}
	return false
}
