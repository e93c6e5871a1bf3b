package jobspec

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/aging"
	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/mathx"
	"repro/internal/netlist"
	"repro/internal/variation"
)

const yearSeconds = 365.25 * 24 * 3600

// Progress is one execution progress sample. Stage is "trial" for
// Monte-Carlo dies and "checkpoint" for aging mission points; Done/Total
// count completed units.
type Progress struct {
	Stage string `json:"stage"`
	Done  int    `json:"done"`
	Total int    `json:"total"`
}

// Options tunes an execution without changing its result.
type Options struct {
	// OnProgress, when non-nil, receives progress samples. Calls are
	// serialized and Done is strictly increasing within a stage, so a
	// consumer can append them to an ordered event log directly.
	OnProgress func(Progress)
	// ProgressEvery emits every k-th sample (the final one always fires).
	// 0 picks a default that bounds a run to ~200 samples.
	ProgressEvery int
	// OnCheckpoint, when non-nil, receives one checkpoint per completed
	// Monte-Carlo campaign chunk — the durable unit of resume. Calls are
	// serialized. A consumer that journals every checkpoint can hand the
	// payloads back through Resume to continue an interrupted campaign
	// re-running at most the chunk that was in flight.
	OnCheckpoint func(Checkpoint)
	// Resume supplies checkpoint payloads journaled from a previous
	// execution of the same spec; the covered chunks are folded without
	// re-running their trials. A payload that does not fit the campaign
	// grid fails the execution loudly rather than merging wrong numbers.
	Resume []json.RawMessage
	// RunShard, when non-nil, executes one trial-range sub-spec of a
	// sharded campaign (shard is the 0-based shard index) — the hook the
	// job server uses to dispatch shards to peer servers. Nil falls back
	// to executing every shard in this process.
	RunShard func(ctx context.Context, shard int, sub *Spec) (*Result, error)
	// RunSub, when non-nil, executes one sub-job of a composite (signoff)
	// campaign and reports whether the result was answered from a
	// spec-keyed result cache rather than executed — the hook the job
	// server uses to share sub-results with identical standalone
	// submissions. Nil falls back to executing the sub-spec in this
	// process (never cached).
	RunSub func(ctx context.Context, name string, sub *Spec) (*Result, bool, error)
}

// Checkpoint is one durable unit of Monte-Carlo campaign progress: the
// JSON summary (variation.ChunkStat) of one completed grid chunk. Seq is
// the global chunk index; replaying Data through Options.Resume skips
// the chunk on the next run.
type Checkpoint struct {
	Stage string
	Seq   int
	Data  json.RawMessage
}

// progressMeter serializes progress emission: Monte-Carlo trials finish
// concurrently, and without the lock two workers could emit Done values
// out of order between the increment and the callback.
type progressMeter struct {
	mu    sync.Mutex
	done  int
	total int
	every int
	stage string
	emit  func(Progress)
}

func newMeter(stage string, total int, opts Options) *progressMeter {
	if opts.OnProgress == nil {
		return nil
	}
	every := opts.ProgressEvery
	if every <= 0 {
		every = total / 200
		if every < 1 {
			every = 1
		}
	}
	return &progressMeter{total: total, every: every, stage: stage, emit: opts.OnProgress}
}

// tick records one completed unit and emits if due. Nil meters are no-ops
// so the disabled path costs one comparison.
func (p *progressMeter) tick() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.done++
	if p.done%p.every == 0 || p.done == p.total {
		p.emit(Progress{Stage: p.stage, Done: p.done, Total: p.total})
	}
	p.mu.Unlock()
}

// Execute runs one analysis described by spec and returns its structured
// result. The spec is validated first, so a half-filled spec fails
// loudly rather than running with garbage; callers that accept sparse
// documents (the HTTP server) run ApplyDefaults at admission, while the
// CLI's flags already encode every default. A spec Timeout is layered
// onto ctx; cancellation or expiry mid-run yields a partial Result
// (Partial set, Warning explaining why) for the analyses that support it
// (mc, age) and an error for the rest. Execute is the single dispatch
// path shared by the relsim CLI and the internal/serve job server —
// both execute the identical struct.
func Execute(ctx context.Context, spec *Spec) (*Result, error) {
	return ExecuteOpts(ctx, spec, Options{})
}

// ExecuteOpts is Execute with progress streaming.
func ExecuteOpts(ctx context.Context, spec *Spec, opts Options) (*Result, error) {
	if spec == nil {
		return nil, fmt.Errorf("jobspec: nil spec")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if spec.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(spec.Timeout))
		defer cancel()
	}
	text := spec.Netlist
	if text == "" {
		b, err := os.ReadFile(spec.NetlistFile)
		if err != nil {
			return nil, fmt.Errorf("jobspec: %w", err)
		}
		text = string(b)
	}
	deck, err := parseDeck(text)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("jobspec: %w before start", err)
	}

	start := time.Now()
	res := &Result{Kind: spec.Analysis, Seed: spec.Seed}
	switch spec.Analysis {
	case KindOP:
		err = executeOP(deck, spec, res)
	case KindTran:
		err = executeTran(deck, spec, res)
	case KindSweep:
		err = executeSweep(deck, spec, res)
	case KindAC:
		err = executeAC(deck, spec, res)
	case KindAge:
		err = executeAge(ctx, deck, spec, res, opts)
	case KindMC:
		err = executeMC(ctx, text, deck, spec, res, opts)
	case KindCorners:
		err = executeCorners(deck, spec, res)
	case KindCentering:
		err = executeCentering(ctx, text, deck, spec, res, opts)
	case KindSignoff:
		err = executeSignoff(ctx, text, deck, spec, res, opts)
	}
	if err != nil {
		return nil, err
	}
	res.Elapsed = Duration(time.Since(start))
	return res, nil
}

// recordNodes resolves the report node list (default: every node).
func recordNodes(deck *netlist.Deck, spec *Spec) []string {
	if len(spec.Record) > 0 {
		return spec.Record
	}
	return deck.Circuit.NodeNames()
}

func executeOP(deck *netlist.Deck, spec *Spec, res *Result) error {
	sol, err := deck.Circuit.OperatingPoint()
	if err != nil {
		return err
	}
	out := &OPResult{}
	for _, n := range recordNodes(deck, spec) {
		out.Nodes = append(out.Nodes, NodeVoltage{Node: n, V: sol.Voltage(n)})
	}
	if len(deck.MOSFETs) > 0 {
		for _, m := range deck.Circuit.MOSFETList() {
			op := m.OP()
			out.Devices = append(out.Devices, DeviceOP{
				Name: m.Name(), ID: op.ID, Gm: op.Gm, Region: op.Region,
			})
		}
	}
	res.OP = out
	return nil
}

// seriesFromWaveforms flattens a transient result into a Series, using
// the waveform's own node order when the spec recorded nothing.
func seriesFromWaveforms(wf *circuit.Waveforms, nodes []string) *Series {
	if len(nodes) == 0 {
		nodes = wf.Nodes()
	}
	s := &Series{Headers: append([]string{"t [s]"}, nodes...)}
	s.Rows = make([][]float64, len(wf.Times))
	for i, tm := range wf.Times {
		row := []float64{tm}
		for _, n := range nodes {
			row = append(row, wf.Node(n)[i])
		}
		s.Rows[i] = row
	}
	return s
}

func executeTran(deck *netlist.Deck, spec *Spec, res *Result) error {
	p := spec.Tran
	var (
		wf  *circuit.Waveforms
		err error
	)
	if p.Adaptive {
		wf, err = deck.Circuit.TransientAdaptive(circuit.AdaptiveSpec{
			Stop: p.Stop, MinStep: p.Step, MaxStep: p.Stop / 20, LTETol: p.LTETol,
			Integrator: circuit.Trapezoidal, Record: spec.Record,
		})
	} else {
		wf, err = deck.Circuit.Transient(circuit.TranSpec{
			Stop: p.Stop, Step: p.Step, Integrator: circuit.Trapezoidal, Record: spec.Record,
		})
	}
	if err != nil {
		return err
	}
	res.Series = seriesFromWaveforms(wf, spec.Record)
	return nil
}

func executeSweep(deck *netlist.Deck, spec *Spec, res *Result) error {
	p := spec.Sweep
	values := mathx.Linspace(p.From, p.To, p.Points)
	sols, err := deck.Circuit.DCSweep(p.Source, values)
	if err != nil {
		return err
	}
	nodes := recordNodes(deck, spec)
	s := &Series{Headers: append([]string{p.Source}, nodes...)}
	s.Rows = make([][]float64, len(values))
	for i := range values {
		row := []float64{values[i]}
		for _, n := range nodes {
			row = append(row, sols[i].Voltage(n))
		}
		s.Rows[i] = row
	}
	res.Series = s
	return nil
}

func executeAC(deck *netlist.Deck, spec *Spec, res *Result) error {
	p := spec.AC
	src, err := deck.Circuit.VSourceByName(p.Source)
	if err != nil {
		return err
	}
	src.ACMag = 1
	pts, err := deck.Circuit.AC(mathx.Logspace(p.FStart, p.FStop, p.Points))
	if err != nil {
		return err
	}
	nodes := recordNodes(deck, spec)
	s := &Series{Headers: []string{"f [Hz]"}}
	for _, n := range nodes {
		s.Headers = append(s.Headers, n+" [dB]", n+" [deg]")
	}
	s.Rows = make([][]float64, len(pts))
	for i := range pts {
		row := []float64{pts[i].Freq}
		for _, n := range nodes {
			row = append(row, pts[i].MagDB(n), pts[i].PhaseDeg(n))
		}
		s.Rows[i] = row
	}
	res.Series = s
	return nil
}

func executeAge(ctx context.Context, deck *netlist.Deck, spec *Spec, res *Result, opts Options) error {
	p := spec.Age
	nodes := recordNodes(deck, spec)
	ager := aging.NewCircuitAger(deck.Circuit, aging.DefaultModels(), p.TempK, spec.Seed)
	meter := newMeter("checkpoint", p.Checkpoints, opts)
	ager.OnCheckpoint = func(int, aging.Checkpoint) { meter.tick() }
	traj, err := ager.AgeToCtx(ctx, aging.LogCheckpoints(3600, p.Years*yearSeconds, p.Checkpoints))
	if err != nil {
		if len(traj) == 0 || !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
			return err
		}
		res.Partial = true
		res.Warning = err.Error()
	}
	out := &AgeResult{Years: p.Years, TempK: p.TempK, Nodes: nodes}
	for _, cp := range traj {
		ck := AgeCheckpoint{Time: cp.Time, Failed: cp.Failed}
		if !cp.Failed {
			for _, n := range nodes {
				ck.Nodes = append(ck.Nodes, NodeVoltage{Node: n, V: cp.Solution.Voltage(n)})
			}
		}
		out.Checkpoints = append(out.Checkpoints, ck)
	}
	for _, m := range deck.Circuit.MOSFETList() {
		out.Devices = append(out.Devices, DeviceDamage{
			Name:           m.Name(),
			DeltaVT:        m.Dev.Damage.DeltaVT,
			MobilityFactor: m.Dev.Damage.MobilityFactor,
			BDMode:         ager.Ager(m.Name()).BDMode().String(),
		})
	}
	res.Age = out
	return nil
}

// decodeResume parses journaled chunk checkpoints back into ChunkStats
// and validates them against the campaign grid. A payload that does not
// decode or does not fit the grid is an error: resuming with a foreign
// checkpoint must fail loudly, never merge wrong statistics. Duplicate
// chunk records (a journal can carry rewrites) keep the first.
func decodeResume(raw []json.RawMessage, trials int) ([]variation.ChunkStat, error) {
	if len(raw) == 0 {
		return nil, nil
	}
	nc := variation.NumChunks(trials)
	out := make([]variation.ChunkStat, 0, len(raw))
	seen := make(map[int]bool, len(raw))
	for _, b := range raw {
		var st variation.ChunkStat
		if err := json.Unmarshal(b, &st); err != nil {
			return nil, fmt.Errorf("jobspec: decoding resume checkpoint: %w", err)
		}
		if st.Chunk < 0 || st.Chunk >= nc {
			return nil, fmt.Errorf("jobspec: resume chunk %d outside the %d-chunk campaign grid", st.Chunk, nc)
		}
		if ef, et := variation.ChunkRange(trials, st.Chunk); st.From != ef || st.To != et {
			return nil, fmt.Errorf("jobspec: resume chunk %d range [%d,%d) does not match grid [%d,%d) — checkpoint from a different campaign?",
				st.Chunk, st.From, st.To, ef, et)
		}
		if seen[st.Chunk] {
			continue
		}
		seen[st.Chunk] = true
		out = append(out, st)
	}
	return out, nil
}

// emitCheckpoint journals one completed chunk through the caller's hook.
func emitCheckpoint(opts Options, st variation.ChunkStat) {
	if opts.OnCheckpoint == nil {
		return
	}
	b, err := json.Marshal(st)
	if err != nil {
		return // a ChunkStat always marshals; never fail the campaign on it
	}
	opts.OnCheckpoint(Checkpoint{Stage: "chunk", Seq: st.Chunk, Data: b})
}

// mcOutcome assembles the MCOutcome from a campaign result. The failure
// taxonomy and yield come from the mergeable Stats, so the outcome reads
// the same whatever the shard split or resume point.
func mcOutcome(p *MCParams, mc *variation.MCResult, chunks []variation.ChunkStat) *MCOutcome {
	out := &MCOutcome{
		Node:      p.Node,
		Requested: mc.N,
		Failures:  mc.Failures,
		NaNs:      mc.NaNs,
		Cancelled: mc.Cancelled,
		Elapsed:   Duration(mc.Elapsed),
		Stats:     mc.Stats,
		Chunks:    chunks,
		Resumed:   mc.Resumed,
	}
	st := mc.Stats
	if st.Failures > 0 {
		out.FailuresByKind = st.ByKind
		out.FirstFailure = st.First
	}
	// NaN dies are measured rejects, so a campaign where every die
	// measured NaN still has a (zero) yield.
	if p.Window().HasSpec() && int(st.Moments.Count)+st.NaNs > 0 {
		y := st.Yield()
		out.Yield = &y
	}
	return out
}

// parseDeck parses a netlist; a variable so tests can count the parses
// an execution makes.
var parseDeck = netlist.Parse

// deckBuilder returns a DiePool Build that parses text into a fresh deck
// and scales the named MOSFETs' widths (nil scales: the deck as written).
// Resizing happens once per die, at build: ResizeMOSFET compounds on a
// reused deck, so a pooled die is only ever reset, never re-resized.
func deckBuilder(text string, scales map[string]float64) func() (*circuit.Circuit, error) {
	return func() (*circuit.Circuit, error) {
		deck, err := parseDeck(text)
		if err != nil {
			return nil, err
		}
		for name, sc := range scales {
			if sc == 1 {
				continue
			}
			m, ok := deck.MOSFETs[name]
			if !ok {
				return nil, fmt.Errorf("jobspec: centering device %q not in deck", name)
			}
			variation.ResizeMOSFET(m, deck.Tech, deck.TempK, sc)
		}
		return deck.Circuit, nil
	}
}

// parsedFirst returns a DiePool Build that serves deck's circuit as the
// first die, so the text Execute already parsed is not parsed again for
// it, and calls build for every later die.
func parsedFirst(deck *netlist.Deck, build func() (*circuit.Circuit, error)) func() (*circuit.Circuit, error) {
	var first atomic.Pointer[circuit.Circuit]
	first.Store(deck.Circuit)
	return func() (*circuit.Circuit, error) {
		if c := first.Swap(nil); c != nil {
			return c, nil
		}
		return build()
	}
}

// voltageTrial returns a Campaign trial that takes a die from pool,
// applies fresh mismatch on top of corner's systematic shift and measures
// node's operating-point voltage. Only a die whose solve converged goes
// back to the pool.
func voltageTrial(pool *variation.DiePool, tech *device.Technology, corner variation.Corner, node string) variation.Trial {
	return func(rng *mathx.RNG, _ int) (float64, error) {
		die, err := pool.Get()
		if err != nil {
			return 0, err
		}
		variation.ApplyRandomMismatch(die.Circuit, tech, corner, rng)
		if err := die.Circuit.SolveOP(); err != nil {
			return 0, err
		}
		v := die.Circuit.Voltage(node)
		pool.Put(die)
		return v, nil
	}
}

// mcTrial builds executeMC's trial; a variable so tests can read the
// per-trial values a campaign folds into its Stats.
var mcTrial = voltageTrial

// executeMC runs a Monte-Carlo mismatch campaign on the deck, or on the
// trial sub-range a shard sub-job names, resuming from checkpoints in
// opts.Resume; a campaign with Shards > 1 scatter-gathers instead. Every
// worker draws its die from one variation.DiePool and keeps it for the
// whole job.
func executeMC(ctx context.Context, text string, deck *netlist.Deck, spec *Spec, res *Result, opts Options) error {
	p := spec.MC
	resume, err := decodeResume(opts.Resume, p.Trials)
	if err != nil {
		return err
	}
	if p.Shards > 1 && p.Range == nil {
		return executeMCSharded(ctx, spec, res, opts, resume)
	}
	// Trials run in parallel, so each die solves a private circuit instead
	// of mutating the shared deck. The first die solves the nominal deck,
	// whose solution warm-starts every trial's first solve, and then goes
	// back to the pool for the first trial. Each worker keeps its die for
	// the whole job, which amortises netlist parsing and the sparse
	// backend's pattern discovery without perturbing any value (mismatch
	// is fully overwritten per trial and the die reset to its parsed state
	// on reuse). The first die is the deck Execute already parsed, and the
	// nominal deck's Tech serves every die.
	pool := &variation.DiePool{Build: parsedFirst(deck, deckBuilder(text, nil))}
	pool.WarmStart()
	from, to := 0, p.Trials
	if p.Range != nil {
		from, to = p.Range.From, p.Range.To
	}
	// The meter counts trials this execution actually runs: resumed
	// chunks are folded from checkpoints, not re-run.
	toRun := to - from
	for _, st := range resume {
		if st.From >= from && st.To <= to {
			toRun -= st.To - st.From
		}
	}
	meter := newMeter("trial", toRun, opts)
	var vspec *variation.Spec
	if w := p.Window(); w.HasSpec() {
		vspec = &variation.Spec{Name: p.Node, Lo: w.SpecLo(), Hi: w.SpecHi()}
	}
	// A corner-pinned campaign holds the systematic (die-to-die) component
	// at a named corner while the local Pelgrom part still varies per die.
	pinned := variation.NominalCorner()
	if p.Corner != nil {
		co, ok := variation.CornerByName(p.Corner.Name, p.Corner.SigmaVT, p.Corner.SigmaBeta)
		if !ok {
			return fmt.Errorf("jobspec: unknown mc corner %q", p.Corner.Name)
		}
		pinned = co
	}
	trial := mcTrial(pool, deck.Tech, pinned, p.Node)
	var chunks []variation.ChunkStat
	camp := &variation.Campaign{
		Trials: p.Trials,
		Seed:   spec.Seed,
		Spec:   vspec,
		From:   from,
		To:     to,
		Resume: resume,
		Trial: func(rng *mathx.RNG, i int) (float64, error) {
			defer meter.tick()
			return trial(rng, i)
		},
		OnChunk: func(st variation.ChunkStat) {
			// Run emits complete chunks sequentially from one goroutine.
			if p.Range != nil {
				chunks = append(chunks, st)
			}
			emitCheckpoint(opts, st)
		},
	}
	mc, err := camp.Run(ctx)
	if err != nil {
		if !errors.Is(err, variation.ErrCancelled) {
			return err
		}
		res.Partial = true
		res.Warning = err.Error()
	}
	res.MC = mcOutcome(p, mc, chunks)
	return nil
}

// executeMCSharded scatter-gathers a Monte-Carlo campaign across
// trial-range sub-jobs. Each shard covers a contiguous run of whole grid
// chunks; shards whose chunks are all resumed are skipped outright.
// Gathered per-chunk stats are folded in ascending global chunk order,
// which is what makes the merged mean/std/yield bit-identical to a
// single-shard run for any shard count.
func executeMCSharded(ctx context.Context, spec *Spec, res *Result, opts Options, resume []variation.ChunkStat) error {
	p := spec.MC
	nc := variation.NumChunks(p.Trials)
	k := p.Shards
	if k > nc {
		k = nc
	}
	runShard := opts.RunShard
	if runShard == nil {
		runShard = func(ctx context.Context, _ int, sub *Spec) (*Result, error) {
			return ExecuteOpts(ctx, sub, Options{})
		}
	}
	// byChunk gathers chunk stats under mu once shards start; resumed is
	// its immutable pre-launch snapshot, safe to read while launching.
	byChunk := make(map[int]variation.ChunkStat, nc)
	resumed := make(map[int]bool, len(resume))
	for _, st := range resume {
		byChunk[st.Chunk] = st
		resumed[st.Chunk] = true
	}

	var (
		mu         sync.Mutex
		shardsDone int
		firstErr   error
	)
	emitShard := func() { // callers hold mu
		shardsDone++
		if opts.OnProgress != nil {
			opts.OnProgress(Progress{Stage: "shard", Done: shardsDone, Total: k})
		}
	}
	start := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < k; s++ {
		firstChunk, lastChunk := s*nc/k, (s+1)*nc/k
		from, _ := variation.ChunkRange(p.Trials, firstChunk)
		_, to := variation.ChunkRange(p.Trials, lastChunk-1)
		allResumed := true
		for c := firstChunk; c < lastChunk; c++ {
			if !resumed[c] {
				allResumed = false
				break
			}
		}
		if allResumed {
			mu.Lock()
			emitShard()
			mu.Unlock()
			continue
		}
		wg.Add(1)
		go func(s int, sub *Spec) {
			defer wg.Done()
			r, err := runShard(ctx, s, sub)
			mu.Lock()
			defer mu.Unlock()
			if err == nil && (r == nil || r.MC == nil) {
				err = fmt.Errorf("shard returned no mc outcome")
			}
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("jobspec: shard %d [%d,%d): %w", s, sub.MC.Range.From, sub.MC.Range.To, err)
				}
				return
			}
			if r.Partial && !res.Partial {
				res.Partial = true
				res.Warning = r.Warning
			}
			for _, st := range r.MC.Chunks {
				if _, ok := byChunk[st.Chunk]; ok {
					continue // a resumed chunk wins; identical by construction
				}
				byChunk[st.Chunk] = st
				emitCheckpoint(opts, st)
			}
			emitShard()
		}(s, shardSpec(spec, from, to))
	}
	wg.Wait()
	if firstErr != nil && ctx.Err() == nil {
		return firstErr
	}

	merged := &variation.MCStats{}
	for c := 0; c < nc; c++ {
		if st, ok := byChunk[c]; ok {
			merged.Merge(&st.Stats)
		}
	}
	mc := &variation.MCResult{
		N:         p.Trials,
		Stats:     merged,
		NaNs:      merged.NaNs,
		Failures:  merged.Failures,
		Cancelled: p.Trials - merged.Completed(),
		Elapsed:   time.Since(start),
		Resumed:   len(resume),
	}
	if mc.Cancelled > 0 {
		res.Partial = true
		if res.Warning == "" {
			res.Warning = fmt.Sprintf("%v after %d/%d trials", variation.ErrCancelled, merged.Completed(), p.Trials)
		}
	}
	out := mcOutcome(p, mc, nil)
	out.Shards = k
	res.MC = out
	return nil
}

// shardSpec derives the trial-range sub-spec one shard executes: the
// same campaign (netlist, seed, total trials, spec bounds — hence the
// same chunk grid and RNG substreams), restricted to [from, to) and
// never itself sharded.
func shardSpec(spec *Spec, from, to int) *Spec {
	c := *spec
	mc := *spec.MC
	mc.Range = &TrialRange{From: from, To: to}
	mc.Shards = 0
	c.MC = &mc
	return &c
}

func executeCorners(deck *netlist.Deck, spec *Spec, res *Result) error {
	p := spec.Corners
	// 3σ global corner levels; the defaults are a representative
	// 30 mV / 8 % spread.
	corners := variation.StandardCorners(p.SigmaVT, p.SigmaBeta)
	vals, err := variation.CornerSweep(deck.Circuit, corners, func(c *circuit.Circuit) (float64, error) {
		sol, err := c.OperatingPoint()
		if err != nil {
			return 0, err
		}
		return sol.Voltage(p.Node), nil
	})
	if err != nil {
		return err
	}
	out := &CornersResult{Node: p.Node, Lo: p.Lo, Hi: p.Hi, Pass: true}
	w := p.Window()
	hasSpec := w.HasSpec()
	lo, hi := w.SpecLo(), w.SpecHi()
	ttV := vals["TT"]
	worstKey := math.Inf(1) // spec margin, or -|deviation from TT| without a spec
	for _, co := range corners {
		v := vals[co.Name]
		cv := CornerValue{Name: co.Name, V: v}
		var key float64
		if hasSpec {
			pass := v >= lo && v <= hi // NaN fails both comparisons
			cv.Pass = &pass
			if !pass {
				out.Pass = false
			}
			margin := math.Min(v-lo, hi-v)
			if !math.IsNaN(margin) && !math.IsInf(margin, 0) {
				cv.Margin = &margin
			}
			key = margin
		} else {
			key = -math.Abs(v - ttV)
		}
		if math.IsNaN(key) {
			key = math.Inf(-1) // an undefined measurement is the worst case
		}
		if key < worstKey {
			worstKey = key
			out.Worst, out.WorstV = co.Name, v
		}
		out.Corners = append(out.Corners, cv)
	}
	if out.Worst == "" {
		// Degenerate sweep (every corner identical): TT is the worst case.
		out.Worst, out.WorstV = "TT", ttV
	}
	res.Corners = out
	return nil
}
