package jobspec

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"repro/internal/aging"
	"repro/internal/em"
	"repro/internal/netlist"
	"repro/internal/report/signoff"
	"repro/internal/variation"
)

// SignoffNodes is the number of nodes in the signoff graph — the
// resume-unit count the job server reports for a restored signoff job
// (checkpoint Seq values are node indices in [0, SignoffNodes)).
const SignoffNodes = 4

// The signoff graph's nodes in declaration order: the provenance order
// and the checkpoint Seq index space. mc depends on corners; the others
// depend on nothing.
const (
	nodeCorners = iota
	nodeMC
	nodeAge
	nodeWearout
)

var signoffNodeNames = [SignoffNodes]string{"corners", "mc", "age", "wearout"}

// ResumeUnits returns the number of durable checkpoint units an
// execution of this spec can emit: Monte-Carlo campaign grid chunks,
// signoff graph nodes, zero for everything else. The job server uses it
// as the Total of a restored job's resume accounting.
func (s *Spec) ResumeUnits() int {
	switch s.Analysis {
	case KindMC:
		if s.MC != nil {
			return variation.NumChunks(s.MC.Trials)
		}
	case KindSignoff:
		return SignoffNodes
	}
	return 0
}

// subjobCheckpoint is the durable record of one completed signoff
// node: the node name, the sub-spec's canonical hash (empty for the
// inline wear-out node) and the node's marshalled result. Hash is
// verified on restore, so a checkpoint journaled for a different
// campaign fails loudly instead of silently seeding wrong sections.
type subjobCheckpoint struct {
	Name   string          `json:"name"`
	Hash   string          `json:"hash,omitempty"`
	Result json.RawMessage `json:"result"`
}

// subOut is a signoff node's in-memory value: either a sub-job
// Result (corners/mc/age) or the inline wear-out roll-up, plus the
// provenance bits the report records.
type subOut struct {
	res      *Result
	wear     *wearOut
	hash     string
	analysis Kind
	cached   bool
	resumed  bool
}

// nodeOutcome is one signoff node's terminal state. err is the node's
// failure, or the cause it was skipped for; value is nil unless the
// node ran to completion.
type nodeOutcome struct {
	value   *subOut
	err     error
	skipped bool
}

// wearOut is the inline EM+TDDB roll-up's checkpointable value.
// LambdaPerHour is the combined wear-out failure rate (0 when every
// channel is unbounded).
type wearOut struct {
	EM            *signoff.EMSection   `json:"em,omitempty"`
	TDDB          *signoff.TDDBSection `json:"tddb,omitempty"`
	LambdaPerHour float64              `json:"lambda_per_hour"`
}

// executeSignoff runs the composite signoff campaign, a fixed graph of
// four nodes compiled into one deterministic compliance report: the
// corner sweep, the aging sub-job and the inline wear-out roll-up start
// at once, and Monte-Carlo starts at the worst corner once the sweep
// produced one. A failed sweep skips Monte-Carlo with the sweep's error
// as cause; a cancelled context skips it with the context's error; a
// panicking node fails only itself. Sub-jobs execute through
// Options.RunSub when set — the job server's cache-aware path — and
// in-process otherwise; each completed node is checkpointed through
// Options.OnCheckpoint so a killed campaign resumes from its completed
// sub-jobs. The result is Partial only when some node did not complete.
func executeSignoff(ctx context.Context, text string, deck *netlist.Deck, spec *Spec, res *Result, opts Options) error {
	p := spec.Signoff

	runSub := opts.RunSub
	if runSub == nil {
		runSub = func(ctx context.Context, _ string, sub *Spec) (*Result, bool, error) {
			r, err := ExecuteOpts(ctx, sub, Options{})
			return r, false, err
		}
	}

	// Journaled checkpoints from a previous execution of this spec. A
	// payload without a node name is not a signoff checkpoint at all.
	restored := make(map[string]subjobCheckpoint, len(opts.Resume))
	for _, raw := range opts.Resume {
		var cp subjobCheckpoint
		if err := json.Unmarshal(raw, &cp); err != nil {
			return fmt.Errorf("jobspec: decoding signoff checkpoint: %w", err)
		}
		if cp.Name == "" {
			return fmt.Errorf("jobspec: signoff checkpoint without a node name — checkpoint from a different campaign?")
		}
		if _, dup := restored[cp.Name]; dup {
			continue // journals can carry rewrites; the first record wins
		}
		restored[cp.Name] = cp
	}

	// restore returns the checkpointed Result for a node whose sub-spec
	// hashes to wantHash; a hash mismatch is a loud error, never a merge.
	restore := func(name, wantHash string) (*Result, bool, error) {
		cp, ok := restored[name]
		if !ok {
			return nil, false, nil
		}
		if cp.Hash != wantHash {
			return nil, false, fmt.Errorf("jobspec: signoff checkpoint %q hash %.12s does not match sub-spec %.12s — checkpoint from a different campaign?",
				name, cp.Hash, wantHash)
		}
		var r Result
		if err := json.Unmarshal(cp.Result, &r); err != nil {
			return nil, false, fmt.Errorf("jobspec: decoding signoff checkpoint %q: %w", name, err)
		}
		return &r, true, nil
	}

	// subSpec derives a sub-job's Spec. The netlist text is ALWAYS
	// inlined — even when the parent spec named a file — so the sub-spec's
	// canonical hash (and therefore the report's provenance and cache
	// keys) is identical whether the campaign ran through the CLI or the
	// job server.
	subSpec := func(kind Kind) *Spec {
		return &Spec{
			Version:  SpecVersion,
			Analysis: kind,
			Netlist:  text,
			Seed:     spec.Seed,
			NoCache:  spec.NoCache,
		}
	}

	// runJob resolves one sub-job node: restore from checkpoint, or
	// execute through the RunSub hook. A partial sub-result is a node
	// failure — a compliance report cannot stand on truncated numbers.
	runJob := func(ctx context.Context, name string, sub *Spec) (*subOut, error) {
		sub.ApplyDefaults()
		hash := sub.CanonicalHash()
		if r, ok, err := restore(name, hash); err != nil {
			return nil, err
		} else if ok {
			return &subOut{res: r, hash: hash, analysis: sub.Analysis, resumed: true}, nil
		}
		r, cached, err := runSub(ctx, name, sub)
		if err != nil {
			return nil, fmt.Errorf("sub-job %s: %w", name, err)
		}
		if r == nil {
			return nil, fmt.Errorf("sub-job %s returned no result", name)
		}
		if r.Partial {
			return nil, fmt.Errorf("sub-job %s was cut short: %s", name, r.Warning)
		}
		return &subOut{res: r, hash: hash, analysis: sub.Analysis, cached: cached}, nil
	}

	corners := func(ctx context.Context) (*subOut, error) {
		sub := subSpec(KindCorners)
		sub.Corners = &CornersParams{
			Node: p.Node, SigmaVT: p.SigmaVT, SigmaBeta: p.SigmaBeta,
			Lo: p.Lo, Hi: p.Hi,
		}
		return runJob(ctx, "corners", sub)
	}
	mc := func(ctx context.Context, co *subOut) (*subOut, error) {
		if co.res.Corners == nil || co.res.Corners.Worst == "" {
			return nil, fmt.Errorf("sub-job corners produced no worst-case corner")
		}
		sub := subSpec(KindMC)
		sub.MC = &MCParams{
			Trials: p.Trials, Node: p.Node, Lo: p.Lo, Hi: p.Hi,
			Corner: &CornerShift{Name: co.res.Corners.Worst, SigmaVT: p.SigmaVT, SigmaBeta: p.SigmaBeta},
		}
		return runJob(ctx, "mc", sub)
	}
	age := func(ctx context.Context) (*subOut, error) {
		sub := subSpec(KindAge)
		sub.Age = &AgeParams{Years: p.Years, TempK: p.TempK}
		return runJob(ctx, "age", sub)
	}
	wearout := func(context.Context) (*subOut, error) {
		if cp, ok := restored["wearout"]; ok {
			if cp.Hash != "" {
				return nil, fmt.Errorf("jobspec: signoff checkpoint %q carries sub-spec hash %.12s — checkpoint from a different campaign?",
					"wearout", cp.Hash)
			}
			var w wearOut
			if err := json.Unmarshal(cp.Result, &w); err != nil {
				return nil, fmt.Errorf("jobspec: decoding signoff checkpoint %q: %w", "wearout", err)
			}
			return &subOut{wear: &w, resumed: true}, nil
		}
		w, err := wearOutRollup(deck, p)
		if err != nil {
			return nil, err
		}
		return &subOut{wear: w}, nil
	}

	// Each node runs on its own goroutine; this goroutine alone records
	// outcomes, so progress and checkpoints are emitted serially, in
	// completion order, and need no locking.
	type nodeDone struct {
		i     int
		value *subOut
		err   error
	}
	done := make(chan nodeDone)
	start := func(i int, run func(context.Context) (*subOut, error)) {
		go func() {
			v, err := runNode(ctx, signoffNodeNames[i], run)
			done <- nodeDone{i: i, value: v, err: err}
		}()
	}
	var outs [SignoffNodes]nodeOutcome
	finished := 0
	record := func(i int, o nodeOutcome) {
		outs[i] = o
		finished++
		if opts.OnProgress != nil {
			opts.OnProgress(Progress{Stage: "subjob", Done: finished, Total: SignoffNodes})
		}
		if opts.OnCheckpoint == nil || o.err != nil || o.value.resumed {
			return
		}
		cp := subjobCheckpoint{Name: signoffNodeNames[i], Hash: o.value.hash}
		var err error
		if o.value.wear != nil {
			cp.Result, err = json.Marshal(o.value.wear)
		} else {
			cp.Result, err = json.Marshal(o.value.res)
		}
		if err != nil {
			return // results always marshal; never fail the campaign on it
		}
		b, err := json.Marshal(cp)
		if err != nil {
			return
		}
		opts.OnCheckpoint(Checkpoint{Stage: "subjob", Seq: i, Data: b})
	}

	start(nodeCorners, corners)
	start(nodeAge, age)
	start(nodeWearout, wearout)
	for running := 3; running > 0; {
		d := <-done
		running--
		record(d.i, nodeOutcome{value: d.value, err: d.err})
		if d.i != nodeCorners {
			continue
		}
		// mc needs corners' worst case: the dependency is checked
		// before the context, so a failed sweep names itself as cause.
		switch ctxErr := ctx.Err(); {
		case d.err != nil:
			record(nodeMC, nodeOutcome{skipped: true, err: fmt.Errorf("campaign: node %q skipped: dependency %q failed: %w",
				signoffNodeNames[nodeMC], signoffNodeNames[nodeCorners], d.err)})
		case ctxErr != nil:
			record(nodeMC, nodeOutcome{skipped: true, err: fmt.Errorf("campaign: node %q skipped: %w", signoffNodeNames[nodeMC], ctxErr)})
		default:
			co := d.value
			start(nodeMC, func(ctx context.Context) (*subOut, error) { return mc(ctx, co) })
			running++
		}
	}

	rep, complete := assembleReport(deck, p, &outs)
	res.Signoff = rep
	if !complete {
		res.Partial = true
		res.Warning = "signoff campaign incomplete: one or more sub-jobs failed"
		if err := ctx.Err(); err != nil {
			res.Warning = err.Error() // cancellation caused the gap
		}
	}
	return nil
}

// runNode runs one signoff node behind a recover, so a panicking engine
// fails its own node instead of the job.
func runNode(ctx context.Context, name string, run func(context.Context) (*subOut, error)) (v *subOut, err error) {
	defer func() {
		if r := recover(); r != nil {
			v, err = nil, fmt.Errorf("campaign: node %q panicked: %v", name, r)
		}
	}()
	return run(ctx)
}

// assembleReport compiles the node outcomes into the compliance report
// and reports whether every node produced a value. Assembly is not
// itself a node: it is pure, cheap and deterministic, so re-running it
// on resume costs nothing. Failed or skipped nodes leave their section
// nil and add a violation.
func assembleReport(deck *netlist.Deck, p *SignoffParams, outs *[SignoffNodes]nodeOutcome) (*signoff.Report, bool) {
	rep := &signoff.Report{
		SchemaVersion: signoff.SchemaVersion,
		Circuit:       deck.Title,
		Tech:          deck.Tech.Name,
		Node:          p.Node,
		SpecLo:        p.Lo,
		SpecHi:        p.Hi,
	}
	sub := func(i int) *subOut {
		if outs[i].err != nil {
			return nil
		}
		return outs[i].value
	}

	var worstCorner string
	if so := sub(nodeCorners); so != nil && so.res.Corners != nil {
		cr := so.res.Corners
		sec := &signoff.CornersSection{
			SigmaVT: p.SigmaVT, SigmaBeta: p.SigmaBeta,
			Worst: cr.Worst, WorstV: cr.WorstV, Pass: cr.Pass,
		}
		for _, cv := range cr.Corners {
			out := signoff.CornerResult{Name: cv.Name, V: cv.V, Margin: cv.Margin}
			if cv.Pass != nil {
				out.Pass = *cv.Pass
			}
			sec.Corners = append(sec.Corners, out)
		}
		rep.Corners = sec
		worstCorner = cr.Worst
	}

	if so := sub(nodeMC); so != nil && so.res.MC != nil {
		mo := so.res.MC
		ys := &signoff.YieldSection{
			Corner: worstCorner, Trials: mo.Requested, Completed: mo.Completed(),
		}
		if y := mo.Yield; y != nil {
			ys.PassCount = y.Pass
			ys.YieldPct = 100 * y.Yield
			ys.YieldLoPct = 100 * y.Lo95
			ys.YieldHiPct = 100 * y.Hi95
		}
		mean, sd := math.NaN(), math.NaN()
		if st := mo.Stats; st != nil {
			mean, sd = st.Mean(), st.StdDev()
		}
		ys.Mean = signoff.Ptr(mean)
		ys.StdDev = signoff.Ptr(sd)
		if !math.IsNaN(mean) && sd > 0 {
			sm := math.Inf(1)
			if p.Lo != nil {
				sm = math.Min(sm, (mean-*p.Lo)/sd)
			}
			if p.Hi != nil {
				sm = math.Min(sm, (*p.Hi-mean)/sd)
			}
			ys.SigmaMargin = signoff.Ptr(sm)
		}
		rep.Yield = ys
		rep.Pareto = failurePareto(mo, ys.PassCount)
	}

	if so := sub(nodeAge); so != nil && so.res.Age != nil {
		ar := so.res.Age
		sec := &signoff.AgingSection{Years: ar.Years, TempK: ar.TempK}
		if n := len(ar.Checkpoints); n > 0 {
			sec.Converged = !ar.Checkpoints[n-1].Failed
		}
		modes := make(map[string]int)
		for _, d := range ar.Devices {
			if sec.WorstDevice == "" || math.Abs(d.DeltaVT) > math.Abs(*sec.WorstDeltaVT) {
				v := d.DeltaVT
				sec.WorstDevice, sec.WorstDeltaVT = d.Name, &v
			}
			modes[d.BDMode]++
		}
		names := make([]string, 0, len(modes))
		for m := range modes {
			names = append(names, m)
		}
		sort.Strings(names)
		for _, m := range names {
			sec.BDModes = append(sec.BDModes, signoff.BDModeCount{Mode: m, Count: modes[m]})
		}
		rep.Aging = sec
	}

	if so := sub(nodeWearout); so != nil && so.wear != nil {
		w := so.wear
		sec := &signoff.ReliabilitySection{TargetFIT: p.TargetFIT, EM: w.EM, TDDB: w.TDDB, Pass: true}
		if w.LambdaPerHour > 0 {
			sec.FIT = signoff.Ptr(1e9 * w.LambdaPerHour)
			sec.MTBFHours = signoff.Ptr(1 / w.LambdaPerHour)
			if sec.FIT != nil && *sec.FIT > p.TargetFIT {
				sec.Pass = false
			}
		}
		if w.EM != nil && len(w.EM.Violations) > 0 {
			sec.Pass = false
		}
		rep.Reliability = sec
	}

	// Violations and provenance, in deterministic order: spec failures
	// first, then incomplete sub-jobs in node declaration order.
	if rep.Corners != nil && !rep.Corners.Pass {
		for _, c := range rep.Corners.Corners {
			if !c.Pass {
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("corner %s out of spec: V(%s) = %g", c.Name, p.Node, c.V))
			}
		}
	}
	if rel := rep.Reliability; rel != nil && !rel.Pass {
		if rel.FIT != nil && *rel.FIT > p.TargetFIT {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("composite failure rate %.3g FIT exceeds target %g", *rel.FIT, p.TargetFIT))
		}
		if rel.EM != nil && len(rel.EM.Violations) > 0 {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("%d wires miss the %g-year electromigration lifetime target", len(rel.EM.Violations), p.Years))
		}
	}
	complete := true
	for i, o := range outs {
		sj := signoff.SubJob{Name: signoffNodeNames[i], Skipped: o.skipped}
		if so := o.value; so != nil {
			sj.Analysis = string(so.analysis)
			sj.Hash = so.hash
			sj.Cached = so.cached
			sj.Resumed = so.resumed
		}
		if o.err != nil {
			complete = false
			sj.Error = o.err.Error()
		}
		if sj.Error != "" {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("sub-job %s did not complete: %s", sj.Name, sj.Error))
		}
		rep.Provenance = append(rep.Provenance, sj)
	}
	rep.Pass = complete &&
		(rep.Corners == nil || rep.Corners.Pass) &&
		(rep.Reliability == nil || rep.Reliability.Pass)
	return rep, complete
}

// failurePareto ranks the Monte-Carlo trial outcomes by failure class:
// the variation.FailureKind taxonomy for errored trials, "nan_reject"
// for dies whose metric measured NaN, and "out_of_spec" for finite
// values outside the window. Sorted by count descending, then kind.
func failurePareto(mo *MCOutcome, passCount int) []signoff.ParetoEntry {
	completed := mo.Completed()
	if completed == 0 {
		return nil
	}
	counts := make(map[string]int, len(mo.FailuresByKind)+2)
	for k, n := range mo.FailuresByKind {
		counts[k] = n
	}
	if mo.NaNs > 0 {
		counts["nan_reject"] = mo.NaNs
	}
	if oos := completed - mo.Failures - mo.NaNs - passCount; oos > 0 {
		counts["out_of_spec"] = oos
	}
	out := make([]signoff.ParetoEntry, 0, len(counts))
	for k, n := range counts {
		out = append(out, signoff.ParetoEntry{Kind: k, Count: n, Percent: 100 * float64(n) / float64(completed)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// resistorWires stands one interconnect segment in for every resistor of
// the deck. The geometry convention is fixed — width 4×Lmin, thickness
// 2×Lmin (a typical intermediate-metal aspect) and a length that
// reproduces the element's resistance in damascene copper (the inverse of
// em.WireResistance) — so the same deck always maps to the same wires.
func resistorWires(deck *netlist.Deck) ([]*em.Wire, []em.Binding, error) {
	var wires []*em.Wire
	var bindings []em.Binding
	for _, name := range deck.Circuit.ResistorNames() {
		_, _, ohms, err := deck.Circuit.ResistorInfo(name)
		if err != nil {
			return nil, nil, err
		}
		width, thick := 4*deck.Tech.Lmin, 2*deck.Tech.Lmin
		wire := &em.Wire{
			Name: name, Width: width, Thickness: thick,
			Length: ohms * width * thick / em.Resistivity,
		}
		wires = append(wires, wire)
		bindings = append(bindings, em.Binding{Resistor: name, Wire: wire})
	}
	return wires, bindings, nil
}

// wearOutRollup is the inline wear-out node: Black-equation EM over wire
// geometries synthesized from the deck's resistors, and TDDB Weibull
// characteristic lives from the nominal operating-point gate stress,
// composed into one failure rate under the series-system assumption
// (each channel an exponential hazard at its characteristic life).
func wearOutRollup(deck *netlist.Deck, p *SignoffParams) (*wearOut, error) {
	sol, err := deck.Circuit.OperatingPoint()
	if err != nil {
		return nil, fmt.Errorf("wearout operating point: %w", err)
	}
	target := p.Years * yearSeconds
	w := &wearOut{}
	var lambdaPerHour float64

	wires, bindings, err := resistorWires(deck)
	if err != nil {
		return nil, err
	}
	if len(wires) > 0 {
		if err := em.AssignCurrents(deck.Circuit, sol, bindings); err != nil {
			return nil, err
		}
		black := em.DefaultBlack()
		rep := black.Check(wires, target, p.TempK)
		sec := &signoff.EMSection{Checked: rep.Checked, Immune: rep.Immune}
		for _, v := range rep.Violations {
			sec.Violations = append(sec.Violations, signoff.EMViolation{
				Wire:            v.Wire.Name,
				MTTFYears:       v.MTTF / yearSeconds,
				JDensityAm2:     v.JdensityAm2,
				SuggestedWidthM: v.SuggestedWidth,
			})
		}
		if !math.IsInf(rep.WorstMTTF, 1) {
			sec.WorstWire = rep.WorstWire
			sec.WorstMTTFYears = signoff.Ptr(rep.WorstMTTF / yearSeconds)
		}
		mttfs := make([]float64, len(wires))
		for i, wi := range wires {
			mttfs[i] = black.MTTF(wi, p.TempK)
		}
		if series := em.SeriesMTTF(mttfs); series > 0 && !math.IsInf(series, 1) {
			lam := 3600 / series // seconds → failures per hour
			sec.FIT = signoff.Ptr(1e9 * lam)
			lambdaPerHour += lam
		}
		w.EM = sec
	}

	// TDDB: each MOSFET's gate oxide is a Weibull-distributed breakdown
	// channel at its DC operating-point field; MTTF = η·Γ(1+1/β) turns
	// the characteristic life into a mean for the rate roll-up.
	if mosfets := deck.Circuit.MOSFETList(); len(mosfets) > 0 {
		tddb := aging.DefaultTDDB()
		beta := tddb.WeibullSlope(deck.Tech.ToxNM)
		gamma := math.Gamma(1 + 1/beta)
		sec := &signoff.TDDBSection{Beta: beta, Devices: len(mosfets)}
		worstEta := math.Inf(1)
		var lamTDDB float64
		for _, m := range mosfets {
			vgs, _, _ := m.BiasVoltages()
			area := m.Dev.Params.W * m.Dev.Params.L
			eox := math.Abs(vgs) / deck.Tech.Tox()
			eta := tddb.Eta(eox, p.TempK, area, deck.Tech.ToxNM)
			if eta < worstEta {
				worstEta = eta
				sec.WorstDevice = m.Name()
			}
			if mttf := eta * gamma; mttf > 0 && !math.IsInf(mttf, 1) {
				lamTDDB += 3600 / mttf
			}
		}
		if !math.IsInf(worstEta, 1) {
			sec.WorstEtaYears = signoff.Ptr(worstEta / yearSeconds)
		}
		if lamTDDB > 0 {
			sec.FIT = signoff.Ptr(1e9 * lamTDDB)
			lambdaPerHour += lamTDDB
		}
		w.TDDB = sec
	}

	w.LambdaPerHour = lambdaPerHour
	return w, nil
}
