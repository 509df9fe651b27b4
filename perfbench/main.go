// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload against the system from outside — buscond over loopback
// HTTP, internal/experiments in-process through its public
// Options.Analyze hook — checks every output against a direct engine
// answer, and prints one JSON result line:
//
//	perfbench -buscond PATH -workload serve_repeat -seed 1 -seconds 30 -trace 0
//
// Workloads: serve_repeat, serve_edit, sweep_fig2 (README.md gives each
// one's rationale and the metric-to-layer map). With -trace 0 the
// result carries the end-to-end metrics; with -trace 1 a separate
// traced run replays the workload's requests through each layer's
// public functions and reports the per-layer metrics instead.
//
//	perfbench compare OLD.jsonl NEW.jsonl
//
// compares result records written with -out, refusing records whose run
// context (Go version, GOMAXPROCS, nproc, window, trace mode) differs.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// scale sizes a run. fullScale is what the benchmark measures; tests
// use a tiny one.
type scale struct {
	repeatBases  int // serve_repeat: distinct base task sets
	editBases    int // serve_edit: distinct base task sets
	setupRuns    int // set-up repetitions behind setup_s and pool_extract_ms
	replay       int // trace: requests in the fixed replay sequence
	replayPasses int // trace: traced and untraced passes over it, each
	setsPerPoint int // sweep: task sets per utilization point
	refChecks    int // sweep: requests re-checked against AnalyzeReference
}

var fullScale = scale{repeatBases: 96, editBases: 24, setupRuns: 9, replay: 48, replayPasses: 3, setsPerPoint: 40, refChecks: 24}

// runConfig is one benchmark run.
type runConfig struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	buscond  string // path of the buscond binary (serve workloads)
	workdir  string // scratch space: checkpoint logs, span dumps
	scale    scale
}

// workloads maps each workload to its runner.
var workloads = map[string]func(context.Context, runConfig, *reporter) (attempted, failed int64, err error){
	"serve_repeat": runServeRepeat,
	"serve_edit":   runServeEdit,
	"sweep_fig2":   runSweep,
}

// runContext is recorded with every result: figures measured under
// different contexts are not comparable.
type runContext struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Workload   string `json:"workload"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
}

func currentContext(rc runConfig) runContext {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "-dirty"
				}
			}
		}
		if rev != "" {
			commit = rev + dirty
		}
	}
	return runContext{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Commit:     commit,
		Seed:       rc.seed,
		Workload:   rc.workload,
		Seconds:    int(rc.window / time.Second),
		Trace:      rc.trace,
	}
}

// reporter collects a run's measurements: every value goes into vals
// (from which the result line picks its metrics) and, with its unit and
// sample note, into the human-readable report.
type reporter struct {
	vals  map[string]float64
	lines []string
	at    map[string]int // name -> index in lines
}

func newReporter() *reporter { return &reporter{vals: map[string]float64{}, at: map[string]int{}} }

// set records a value; setting a name again replaces its earlier value.
func (r *reporter) set(name string, v float64, unit, note string) {
	r.vals[name] = v
	line := fmt.Sprintf("%-32s %14.6g %-6s", name, v, unit)
	if note != "" {
		line += "  " + note
	}
	line = strings.TrimRight(line, " ")
	if i, ok := r.at[name]; ok {
		r.lines[i] = line
		return
	}
	r.at[name] = len(r.lines)
	r.lines = append(r.lines, line)
}

// record is one run written with -out: context, outcome and every
// measured value.
type record struct {
	Context   runContext         `json:"context"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Values    map[string]float64 `json:"values"`
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], fullScale, os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, sc scale, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "pool-cold":
			return runPoolCold(stdout, stderr)
		case "compare":
			if err := runCompare(args[1:], stdout); err != nil {
				fmt.Fprintln(stderr, "perfbench compare:", err)
				return 1
			}
			return 0
		}
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "serve_repeat, serve_edit or sweep_fig2")
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 30, "length of the timed window")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	buscond := fs.String("buscond", "", "path of the buscond binary (serve workloads)")
	workdir := fs.String("workdir", ".bench_build", "scratch directory for checkpoint logs and span dumps")
	out := fs.String("out", "", "append this run's record (context and every value) to this JSON-lines file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want -workload serve_repeat|serve_edit|sweep_fig2, -seconds >= 1, -trace 0|1\n")
		return 2
	}
	if err := validateDefs(endToEnd, perLayer); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rc := runConfig{
		workload: *workload, seed: *seed, window: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, buscond: *buscond, workdir: *workdir, scale: sc,
	}
	rcx := currentContext(rc)
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d seconds=%d trace=%v go=%s gomaxprocs=%d nproc=%d commit=%s\n",
		rcx.Workload, rcx.Seed, rcx.Seconds, rcx.Trace, rcx.GoVersion, rcx.GOMAXPROCS, rcx.NumCPU, rcx.Commit)

	rep := newReporter()
	attempted, failed, err := runner(ctx, rc, rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, l := range rep.lines {
		fmt.Fprintln(stdout, l)
	}
	fmt.Fprintf(stdout, "%-32s %14.6g %-6s  %d failed of %d attempted\n", "error_rate",
		ratio(float64(failed), float64(attempted)), "ratio", failed, attempted)

	defs := endToEnd
	if rc.trace {
		defs = perLayer
	}
	metrics, err := buildMetrics(defs, rep.vals)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res := resultLine{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}
	if *out != "" {
		if err := appendRecord(*out, record{Context: rcx, Correct: res.Correct, Attempted: attempted, Failed: failed, Values: rep.vals}); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func appendRecord(path string, rec record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if err := writeJSONLine(f, rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

var errNoAttempts = errors.New("no operation completed in the timed window")

// sortedKeys returns a map's keys in order (stable report output).
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
