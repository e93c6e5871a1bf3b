package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	// rounds splits every pass; its throughput is the median of the round
	// rates, because identical runs on a small shared host spread ±10–15%.
	rounds = 5
	// maxSteal is the share of the host's CPU time a hypervisor may steal
	// during a round before the round is taken again; maxRounds caps the
	// rounds of a pass, retaken ones included. On a 2-vCPU VM on a shared
	// machine (README.md, "Host noise"), steal came in bursts of 10–28%
	// lasting seconds, and the latency of the runs they hit rose with them
	// (correlation 0.85–0.98 over ten runs per workload).
	maxSteal  = 0.05
	maxRounds = 2 * rounds
	// minJudgedRound is the shortest round judged by its steal. The kernel
	// counts CPU time in 10 ms ticks; a 0.5 s round on two CPUs spans
	// about 100, enough to tell 5% from 6%. Shorter rounds (the test's)
	// always count.
	minJudgedRound = 500 * time.Millisecond
)

// maxErrors bounds the failure messages a run keeps.
const maxErrors = 8

// record is one submission as the client saw it.
type record struct {
	round    int
	sent     time.Time
	answered time.Time // submit answer received
	terminal time.Time // terminal event (or cached 200) received
	ok       bool
	cached   bool
}

func (r record) latency() time.Duration { return r.terminal.Sub(r.sent) }

// sample is one executed result kept for the correctness gate.
type sample struct {
	seed   uint64
	result json.RawMessage
}

// usage is the process's resource consumption over a round.
type usage struct {
	cpu        time.Duration
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
}

// passResult is everything one pass measured.
type passResult struct {
	records []record // every submission, those of retaken rounds included
	// kept marks the rounds whose timings count: the ones the hypervisor
	// disturbed least (see runPass).
	kept    map[int]bool
	rates   []float64 // successful submissions per second, one per kept round
	retaken int       // rounds run beyond rounds
	use     usage     // summed over the kept rounds
	// peakRSS is the process's peak resident set in MB after the first
	// rounds rounds, so that retaken rounds, which run more jobs, do not
	// raise it; rssErr is why it could not be read.
	peakRSS float64
	rssErr  error
	samples []sample
	failed  int
	errors  []string
}

func (p *passResult) fail(msg string) {
	p.failed++
	if len(p.errors) < maxErrors {
		p.errors = append(p.errors, msg)
	}
}

// ok counts the successful submissions: of the kept rounds if keptOnly,
// else of every round.
func (p *passResult) ok(keptOnly bool) int {
	n := 0
	for _, r := range p.records {
		if r.ok && (!keptOnly || p.kept[r.round]) {
			n++
		}
	}
	return n
}

// pass drives one closed-loop load pass: nproc clients, each sending its
// next task only after the previous one completed.
type pass struct {
	sys    *system
	w      *workload
	seed   uint64
	tr     *tracer // nil: untraced
	mu     sync.Mutex
	result *passResult
}

// runPass runs back-to-back rounds of d/rounds each. In a round every
// client claims tasks until the round's deadline and finishes the one in
// hand; the round's rate is its successful submissions over its wall
// time. A round during which the hypervisor stole more than maxSteal of
// the host's CPU time is taken again, until rounds rounds were clean or
// maxRounds have run; the rounds with the least steal are kept. Every
// round's results still go through the correctness checks, and the first
// task of each round is sampled for the correctness gate.
func runPass(ctx context.Context, sys *system, w *workload, seed uint64, d time.Duration, tr *tracer) *passResult {
	p := &pass{sys: sys, w: w, seed: seed, tr: tr, result: &passResult{kept: map[int]bool{}}}
	clients := runtime.NumCPU()
	var next atomic.Int64
	type round struct {
		rate, steal float64
		use         usage
	}
	var done []round
	for clean := 0; clean < rounds && len(done) < maxRounds && ctx.Err() == nil; {
		r := len(done)
		use, ticks := readUsage(), readHostTicks()
		start := time.Now()
		deadline := start.Add(d / rounds)
		var sampled atomic.Bool
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(deadline) && ctx.Err() == nil {
					p.task(ctx, r, next.Add(1)-1, sampled.CompareAndSwap(false, true))
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(start)
		steal := readHostTicks().stealSince(ticks)
		n := 0
		for _, rec := range p.result.records {
			if rec.round == r && rec.ok {
				n++
			}
		}
		done = append(done, round{float64(n) / elapsed.Seconds(), steal, readUsage().since(use)})
		if steal <= maxSteal || d/rounds < minJudgedRound {
			clean++
		}
		if len(done) == rounds {
			p.result.peakRSS, p.result.rssErr = peakRSSMB()
		}
	}
	order := make([]int, len(done))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return done[order[i]].steal < done[order[j]].steal })
	for _, r := range order[:min(rounds, len(order))] {
		p.result.kept[r] = true
		p.result.rates = append(p.result.rates, done[r].rate)
		p.result.use = p.result.use.plus(done[r].use)
	}
	p.result.retaken = max(0, len(done)-rounds)
	return p.result
}

// task runs task i: w.specs consecutive specs (job indices i·specs + k),
// each sent w.sends times. The sends go copy by copy across the task's
// specs, so a spec's resend follows its previous answer only after the
// other specs' requests: the server journals a result and enters it into
// the cache after streaming the terminal event, and an immediate resend
// races that write. Each spec goes to node (index mod nodes), so submits
// alternate across a fleet. A cached answer must be byte-identical to a
// result its spec computed; that check is a memcmp of compacted JSON,
// cheap enough to run inside the timed window.
func (p *pass) task(ctx context.Context, round int, i int64, keep bool) {
	type job struct {
		idx      int64
		seed     uint64
		body     []byte
		node     *node
		computed [][]byte
	}
	jobs := make([]*job, p.w.specs)
	for k := range jobs {
		idx := i*int64(p.w.specs) + int64(k)
		seed := jobSeed(p.seed, idx)
		body, err := json.Marshal(p.w.spec(seed))
		if err != nil {
			p.record(record{round: round}, fmt.Sprintf("job %d: encoding spec: %v", idx, err))
			return
		}
		jobs[k] = &job{idx: idx, seed: seed, body: body, node: p.sys.nodes[int(uint64(idx)%uint64(len(p.sys.nodes)))]}
	}
	for s := 0; s < p.w.sends; s++ {
		for k, j := range jobs {
			rec, result, err := p.send(ctx, j.node, j.body, j.seed, fmt.Sprintf("%s-%d-%d", p.w.name, j.idx, s))
			rec.round = round
			if err != nil {
				p.record(rec, fmt.Sprintf("job %d send %d: %v", j.idx, s, err))
				continue
			}
			var compact bytes.Buffer
			if err := json.Compact(&compact, result); err != nil {
				rec.ok = false
				p.record(rec, fmt.Sprintf("job %d send %d: result is not JSON: %v", j.idx, s, err))
				continue
			}
			msg := ""
			if rec.cached {
				if !matchesAny(compact.Bytes(), j.computed) {
					rec.ok = false
					msg = fmt.Sprintf("job %d send %d: cached answer differs from every result the spec computed", j.idx, s)
				}
			} else {
				j.computed = append(j.computed, compact.Bytes())
				if keep && k == 0 && len(j.computed) == 1 {
					p.mu.Lock()
					p.result.samples = append(p.result.samples, sample{seed: j.seed, result: result})
					p.mu.Unlock()
				}
			}
			p.record(rec, msg)
		}
	}
}

func matchesAny(b []byte, set [][]byte) bool {
	for _, s := range set {
		if bytes.Equal(b, s) {
			return true
		}
	}
	return false
}

func (p *pass) record(rec record, errMsg string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.result.records = append(p.result.records, rec)
	if errMsg != "" {
		p.result.fail(errMsg)
	}
}

// send submits one spec and follows it to its answer: a 200 carries a
// cached result; a 202 is followed over the event stream to its terminal
// event, and the result is then fetched the way a client would.
func (p *pass) send(ctx context.Context, n *node, body []byte, seed uint64, traceID string) (record, json.RawMessage, error) {
	rec := record{sent: time.Now()}
	var root ref
	if p.tr != nil {
		root = p.tr.openJob(seed, traceID)
	}
	result, err := p.exchange(ctx, n, body, &rec)
	if p.tr != nil {
		p.tr.closeJob(seed, root, rec)
	}
	return rec, result, err
}

func (p *pass) exchange(ctx context.Context, n *node, body []byte, rec *record) (json.RawMessage, error) {
	v, status, err := p.sys.submit(ctx, n, body)
	rec.answered = time.Now()
	rec.terminal = rec.answered
	if err != nil {
		return nil, err
	}
	if status == http.StatusOK {
		rec.cached = v.Cached
		if v.State != "done" || !v.Cached {
			return nil, fmt.Errorf("200 answer in state %q (cached=%v)", v.State, v.Cached)
		}
		rec.ok = true
		return v.Result, nil
	}
	typ, msg, err := p.sys.await(ctx, n, v.ID)
	rec.terminal = time.Now()
	if err != nil {
		return nil, err
	}
	if typ != "done" {
		return nil, fmt.Errorf("job %s ended %s: %s", v.ID, typ, msg)
	}
	var full view
	if err := p.sys.getJSON(ctx, n.url+"/v1/jobs/"+v.ID, &full); err != nil {
		return nil, err
	}
	rec.ok = true
	return full.Result, nil
}

// warmUp runs one task outside any measurement — it warms the solver,
// the connections and the server's code paths — and fails set-up when it
// does not succeed.
func warmUp(ctx context.Context, sys *system, w *workload, seed uint64) error {
	p := &pass{sys: sys, w: w, seed: seed, result: &passResult{}}
	p.task(ctx, 0, -1, false)
	if p.result.failed > 0 {
		return fmt.Errorf("warm-up job failed: %s", strings.Join(p.result.errors, "; "))
	}
	return nil
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return usage{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   ms.NumGC,
		gcPause:    time.Duration(ms.PauseTotalNs),
	}
}

func (u usage) since(before usage) usage {
	return usage{
		cpu:        u.cpu - before.cpu,
		allocBytes: u.allocBytes - before.allocBytes,
		gcCycles:   u.gcCycles - before.gcCycles,
		gcPause:    u.gcPause - before.gcPause,
	}
}

func (u usage) plus(v usage) usage {
	return usage{
		cpu:        u.cpu + v.cpu,
		allocBytes: u.allocBytes + v.allocBytes,
		gcCycles:   u.gcCycles + v.gcCycles,
		gcPause:    u.gcPause + v.gcPause,
	}
}

// hostTicks is the host's CPU time as the kernel accounts it in
// /proc/stat, in clock ticks: all of it, and the part a hypervisor stole.
type hostTicks struct{ total, steal uint64 }

// readHostTicks reads the aggregate cpu line of /proc/stat: user nice
// system idle iowait irq softirq steal, then guest time that user already
// counts. Without /proc/stat (not Linux) it reads zeros, and no round
// is ever seen as stolen from.
func readHostTicks() hostTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var t hostTicks
	for i := 1; i < len(f) && i <= 8; i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return hostTicks{}
		}
		t.total += v
		if i == 8 {
			t.steal = v
		}
	}
	return t
}

// stealSince returns the share of the host's CPU time stolen since before.
func (t hostTicks) stealSince(before hostTicks) float64 {
	return div(float64(t.steal-before.steal), float64(t.total-before.total))
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
