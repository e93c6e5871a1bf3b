// Command e2e is the repository's end-to-end job benchmark. It drives
// the paper's campaigns as real jobs through the in-process HTTP job
// server — serve → jobspec → variation/circuit/linalg → store — on five
// workloads: the §2 mismatch-yield campaign on a dense and on a sparse
// deck, the §3–5 reliability signoff DAG, a result-cache-heavy
// operating-point mix, and a sharded campaign on a two-node fleet. An
// untraced pass yields the end-to-end metrics a user of the service
// sees; a traced pass yields a per-layer waterfall from spans recorded
// around the executor and its hooks, the layers' own registries, and
// direct probes of the layers' entry points.
//
// One run of one workload (the last stdout line is the result as JSON):
//
//	e2e -workload mc_dense -seed 1 -seconds 5 -trace 0
//
// Every workload, untraced and traced, written to a file; then two such
// files compared:
//
//	e2e -seed 1 -runs 10 -out change.json
//	e2e -compare parent.json change.json
//
// From the repository root, bash bench/e2e/run.sh builds and runs it.
// README.md holds the workload and metric catalogue.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"
)

const (
	// setupSamples is how many times an untraced run sets the workload up
	// (each in a fresh process); setup_s is their median.
	setupSamples = 5
	// runBudget bounds one run of one workload, children included.
	runBudget = 170 * time.Second
)

func main() {
	var (
		name    = flag.String("workload", "", "run this workload once and print its result line (default: every workload, see -out)")
		seed    = flag.Uint64("seed", 1, "input seed; every job spec derives from it")
		seconds = flag.Float64("seconds", 5, "measured seconds per run")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics, traced")
		out     = flag.String("out", "", "every-workload mode: write the runs here as JSON")
		runs    = flag.Int("runs", 1, "every-workload mode: runs per workload, with seeds seed, seed+1, ...")
		compare = flag.Bool("compare", false, "compare two -out files: -compare parent.json change.json")
		spans   = flag.String("spans", "", "traced runs: write spans as JSON lines here (default .bench_build/spans/<workload>.jsonl)")
		child   = flag.String("child", "", "internal: run as a workload child process (setup or run)")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1")
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatalf("-compare needs two files: parent.json change.json")
		}
		os.Exit(runCompare(os.Stdout, flag.Arg(0), flag.Arg(1)))
	case *child != "":
		os.Exit(childMain(*child, *name, *seed, *seconds, *trace == 1, *spans))
	case *name != "":
		os.Exit(oneMain(*name, *seed, *seconds, *trace, *spans))
	default:
		os.Exit(allMain(*seed, *runs, *seconds, *out))
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2e: "+format+"\n", args...)
	os.Exit(2)
}

// valueUnit is one metric of the result line.
type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the benchmark's output contract: the last stdout line.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

// oneMain runs one workload and prints the result line: the
// end-to-end catalogue untraced, the per-layer catalogue traced. It exits
// non-zero when a job failed or a result was wrong.
func oneMain(name string, seed uint64, seconds float64, trace int, spans string) int {
	w, err := workloadByName(name)
	if err != nil {
		fatalf("%v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	rep, err := coordinate(ctx, w, seed, seconds, trace, spans)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2e: %s: %v\n", name, err)
		return 1
	}
	catalogue := endToEnd
	if trace == 1 {
		catalogue = perLayer
	}
	line := resultLine{Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed,
		Metrics: map[string]valueUnit{}}
	for _, d := range catalogue {
		v, ok := rep.Metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			line.Correct = false
			v = 0
		}
		line.Metrics[d.name] = valueUnit{v, d.unit}
	}
	for _, e := range rep.Errors {
		fmt.Fprintf(os.Stderr, "e2e: %s: %s\n", name, e)
	}
	if n := rep.Metrics["retaken_rounds"]; n > 0 {
		fmt.Fprintf(os.Stderr, "e2e: %s: %.0f round(s) retaken, the hypervisor stole more than %.0f%% of the CPU time\n", name, n, 100*maxSteal)
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2e: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	if !line.Correct {
		return 1
	}
	return 0
}

// coordinate runs one workload run in fresh child processes of this
// binary, so set-up, RSS, CPU and GC are the workload's own. An untraced
// run first starts setupSamples-1 set-up-only children; setup_s is the
// median over them and the measuring child, each timed from process
// start to its warm-up job being terminal.
func coordinate(ctx context.Context, w *workload, seed uint64, seconds float64, trace int, spans string) (*childReport, error) {
	if trace == 1 {
		if spans == "" {
			spans = defaultSpansPath(w.name)
		}
		_, rep, err := spawn(ctx, "run", w.name, seed, seconds, trace, spans)
		return rep, err
	}
	var setups []float64
	for i := 0; i < setupSamples-1; i++ {
		d, _, err := spawn(ctx, "setup", w.name, seed, seconds, trace, "")
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	d, rep, err := spawn(ctx, "run", w.name, seed, seconds, trace, "")
	if err != nil {
		return nil, err
	}
	rep.Metrics["setup_s"] = median(append(setups, d.Seconds()))
	return rep, nil
}

// spawn runs a child process and returns the time from its start to its
// ready line, and its report (run children only).
func spawn(ctx context.Context, mode, w string, seed uint64, seconds float64, trace int, spans string) (time.Duration, *childReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, nil, err
	}
	args := []string{"-child", mode, "-workload", w, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace)}
	if spans != "" {
		args = append(args, "-spans", spans)
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	cmd.WaitDelay = 5 * time.Second
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, nil, err
	}
	var setup time.Duration
	var rep *childReport
	var parseErr error
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	for sc.Scan() {
		if setup == 0 && sc.Text() == "ready" {
			setup = time.Since(start)
			continue
		}
		rep = new(childReport)
		parseErr = json.Unmarshal(sc.Bytes(), rep)
	}
	if err := cmd.Wait(); err != nil {
		return 0, nil, fmt.Errorf("%s child: %w", mode, err)
	}
	switch {
	case setup == 0:
		return 0, nil, errors.New(mode + " child exited before set-up completed")
	case parseErr != nil:
		return 0, nil, fmt.Errorf("%s child report: %w", mode, parseErr)
	case mode == "run" && rep == nil:
		return 0, nil, errors.New("run child exited without a report")
	}
	return setup, rep, nil
}

// childMain is the child side of spawn: it prints "ready" once set-up is
// complete and, for a run, its report as one JSON line.
func childMain(mode, name string, seed uint64, seconds float64, trace bool, spans string) int {
	w, err := workloadByName(name)
	if err != nil {
		fatalf("%v", err)
	}
	if mode != "setup" && mode != "run" {
		fatalf("unknown -child mode %q", mode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	rep, err := runWorkload(ctx, runConfig{
		w: w, seed: seed, seconds: seconds, trace: trace, spans: spans,
		ready:     func() { fmt.Println("ready") },
		setupOnly: mode == "setup",
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2e: %s: %v\n", name, err)
		return 1
	}
	if mode == "run" {
		b, err := json.Marshal(rep)
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2e: %v\n", err)
			return 1
		}
		fmt.Println(string(b))
	}
	return 0
}

// runFile is the every-workload mode's output and -compare's input.
type runFile struct {
	Seed    uint64                 `json:"seed"`
	Seconds float64                `json:"seconds"`
	Host    map[string]any         `json:"host"`
	Runs    map[string][]runRecord `json:"runs"`
}

// runRecord is one seed's untraced and traced run of one workload.
type runRecord struct {
	Seed      uint64             `json:"seed"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

// allMain runs every workload untraced and traced, runs times each,
// prints every metric with its unit, and writes the runs to out.
func allMain(seed uint64, runs int, seconds float64, out string) int {
	doc := runFile{Seed: seed, Seconds: seconds, Runs: map[string][]runRecord{},
		Host: map[string]any{"goos": runtime.GOOS, "goarch": runtime.GOARCH,
			"nproc": runtime.NumCPU(), "go": runtime.Version()}}
	status := 0
	for r := 0; r < runs; r++ {
		s := seed + uint64(r)
		for _, w := range workloads(false) {
			rec := runRecord{Seed: s, Correct: true, Metrics: map[string]float64{}}
			for trace := 0; trace <= 1; trace++ {
				ctx, cancel := context.WithTimeout(context.Background(), runBudget)
				rep, err := coordinate(ctx, w, s, seconds, trace, "")
				cancel()
				if err != nil {
					fmt.Fprintf(os.Stderr, "e2e: %s seed %d: %v\n", w.name, s, err)
					rec.Correct = false
					status = 1
					continue
				}
				for _, e := range rep.Errors {
					fmt.Fprintf(os.Stderr, "e2e: %s seed %d: %s\n", w.name, s, e)
				}
				rec.Attempted += rep.Attempted
				rec.Failed += rep.Failed
				// A traced run's untraced pass is half as long as an untraced
				// run's, so the end-to-end metrics come from the untraced run.
				own := append(append([]metricDef(nil), endToEnd...), extras...)
				if trace == 1 {
					own = perLayer
				}
				for _, d := range own {
					if v, ok := rep.Metrics[d.name]; ok {
						rec.Metrics[d.name] = v
					}
				}
			}
			rec.Metrics["error_rate"] = div(float64(rec.Failed), float64(rec.Attempted))
			if rec.Failed > 0 {
				rec.Correct = false
				status = 1
			}
			doc.Runs[w.name] = append(doc.Runs[w.name], rec)
		}
	}
	printRuns(os.Stdout, &doc)
	if out != "" {
		b, err := json.MarshalIndent(&doc, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2e: writing %s: %v\n", out, err)
			return 1
		}
	}
	return status
}
