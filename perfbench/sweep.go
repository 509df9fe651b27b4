package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/taskgen"
)

// sweepArbiters are the three panels of Fig. 2.
var sweepArbiters = []core.Arbiter{core.FP, core.RR, core.TDMA}

// CLI flush policy of cmd/experiments -checkpoint (its -checkpoint-every
// and -checkpoint-interval defaults).
const (
	ckptEvery    = 64
	ckptInterval = 5 * time.Second
)

// runPoolCold is the child-process side of the cold-extraction
// measurement: one taskgen.PoolFromSuite in a process that has never
// extracted the suite, printed in nanoseconds.
func runPoolCold(stdout, stderr io.Writer) int {
	start := time.Now()
	if _, err := taskgen.PoolFromSuite(taskgen.DefaultConfig().Platform.Cache); err != nil {
		fmt.Fprintln(stderr, "perfbench pool-cold:", err)
		return 1
	}
	fmt.Fprintln(stdout, time.Since(start).Nanoseconds())
	return 0
}

// coldPool times taskgen.PoolFromSuite in n fresh processes. The pool
// is memoized process-wide, so only a fresh process measures the cold
// extraction.
func coldPool(n int) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(self, "pool-cold")
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("cold pool extraction: %v: %s", err, stderr.String())
		}
		ns, err := strconv.ParseInt(strings.TrimSpace(stdout.String()), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("cold pool extraction printed %q", stdout.String())
		}
		out = append(out, float64(ns)/1e9)
	}
	return out, nil
}

func reportColdPool(rep *reporter, n int) error {
	s, err := coldPool(n)
	if err != nil {
		return err
	}
	rep.set("taskgen.pool_extract_ms", 1e3*median(s), "ms", fmt.Sprintf("cold PoolFromSuite in a fresh process, median of %d", n))
	return nil
}

// capturedReq is a sweep request kept for the correctness check and the
// replay.
type capturedReq struct {
	req core.BatchRequest
	res []*core.Result
}

// sweepHook is the Options.Analyze hook: it runs the in-process engine
// exactly as the default path does, remembering when the sweep entered
// and left the analysis phase. When traced it also times the workers'
// OnResult calls (checkpoint record and flush); when capturing it keeps
// an evenly spaced sample of the requests and their results.
type sweepHook struct {
	traced  bool
	start   time.Time // Fig2 call
	capture int
	enter   time.Time
	exit    time.Time
	blocked atomic.Int64 // ns inside OnResult, summed over workers
	kept    []capturedReq
}

func (h *sweepHook) analyze(reqs []core.BatchRequest, bo core.BatchOptions) ([][]*core.Result, error) {
	h.enter = time.Now()
	if h.traced && bo.OnResult != nil {
		inner := bo.OnResult
		bo.OnResult = func(i int, res []*core.Result, label string) {
			t := time.Now()
			inner(i, res, label)
			h.blocked.Add(int64(time.Since(t)))
		}
	}
	out, err := core.AnalyzeBatchOpts(reqs, bo)
	h.exit = time.Now()
	for k := 0; k < h.capture && k < len(reqs); k++ {
		i := k * len(reqs) / h.capture
		h.kept = append(h.kept, capturedReq{req: reqs[i], res: out[i]})
	}
	return out, err
}

// regeneration is one untraced Fig. 2 regeneration and the host's
// steal share while it ran.
type regeneration struct{ ms, rate, steal float64 }

// sweepPhases accumulates the traced iterations' phase times.
type sweepPhases struct {
	generate, analyze, fold, blocked, total time.Duration
}

// panelRun is the outcome of one Fig. 2 panel.
type panelRun struct {
	csv       []byte
	jobs      int
	fileBytes int64
	took      time.Duration
	lost      int // jobs missing from the checkpoint log on disk
}

// panel runs one Fig. 2 panel with a fresh checkpoint log in dir.
func panel(arb core.Arbiter, rc runConfig, dir string, h *sweepHook, jobFailures *atomic.Int64) (panelRun, error) {
	path := filepath.Join(dir, strings.ToLower(arb.String())+".json")
	var pr panelRun
	log, err := checkpoint.Create(path, checkpoint.Header{Study: "fig2-" + arb.String(), Seed: rc.seed, TaskSets: rc.scale.setsPerPoint})
	if err != nil {
		return pr, err
	}
	log.Every, log.Interval = ckptEvery, ckptInterval
	opts := experiments.Options{
		TaskSetsPerPoint: rc.scale.setsPerPoint,
		Seed:             rc.seed,
		Checkpoint:       log,
		Analyze:          h.analyze,
		OnJobFailure:     func(string, error, []byte) { jobFailures.Add(1) },
	}
	h.start = time.Now()
	st, err := experiments.Fig2(arb, opts)
	pr.took = time.Since(h.start)
	if err != nil {
		return pr, err
	}
	if err := log.Close(); err != nil {
		return pr, err
	}
	var buf bytes.Buffer
	if err := st.WriteCSV(&buf); err != nil {
		return pr, err
	}
	pr.csv = buf.Bytes()
	pr.jobs = len(experiments.DefaultUtilizations()) * rc.scale.setsPerPoint
	// Every job must be in the log on disk, as a resumed run would read
	// it back.
	back, err := checkpoint.Open(path)
	if err != nil {
		return pr, err
	}
	if n := back.Len(); n != pr.jobs {
		pr.lost = pr.jobs - n
		fmt.Fprintf(os.Stderr, "perfbench: check: %s checkpoint holds %d of %d jobs\n", arb, n, pr.jobs)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return pr, err
	}
	pr.fileBytes = fi.Size()
	return pr, nil
}

// runSweep regenerates Fig. 2 (FP, RR and TDMA panels, the paper's
// 20-point utilization grid) in-process until the window is spent. One
// operation is one whole regeneration; every regeneration uses the same
// seed, so each must reproduce the first one's study exactly.
func runSweep(ctx context.Context, rc runConfig, rep *reporter) (attempted, failed int64, err error) {
	setups, err := coldPool(rc.scale.setupRuns)
	if err != nil {
		return 0, 0, err
	}
	rep.set("setup_s", median(setups), "s", fmt.Sprintf("cold taskgen.PoolFromSuite in a fresh process, median of %d", len(setups)))
	// The timed sweeps see the memoized pool, as every figure after the
	// first does in cmd/experiments.
	if _, err := taskgen.PoolFromSuite(taskgen.DefaultConfig().Platform.Cache); err != nil {
		return 0, 0, err
	}
	if err := os.MkdirAll(rc.workdir, 0o755); err != nil {
		return 0, 0, err
	}

	var jobFailures atomic.Int64
	var first [][]byte
	var kept []capturedReq
	var plain []regeneration
	var fileBytes int64
	var phases sweepPhases
	var tracedRate []float64
	var busy, clean, steal time.Duration // regeneration time: all, with low steal, stolen
	perPanel := (rc.scale.replay + len(sweepArbiters) - 1) / len(sweepArbiters)
	// A traced run needs an untraced and a traced regeneration at least.
	minIters := 1
	if rc.trace {
		minIters = 2
	}
	start := time.Now()
	for it := 0; ; it++ {
		if ctx.Err() != nil {
			return 0, 0, ctx.Err()
		}
		// When tracing, odd iterations are traced and even ones are not,
		// so both rates come from the same run.
		traced := rc.trace && it%2 == 1
		dir, err := os.MkdirTemp(rc.workdir, "sweep-")
		if err != nil {
			return 0, 0, err
		}
		cpu0, err := readCPU()
		if err != nil {
			return 0, 0, err
		}
		var took time.Duration
		var jobs int
		for pi, arb := range sweepArbiters {
			h := &sweepHook{traced: traced}
			if it == 0 {
				h.capture = perPanel
			}
			pr, err := panel(arb, rc, dir, h, &jobFailures)
			if err != nil {
				os.RemoveAll(dir)
				return 0, 0, err
			}
			took += pr.took
			jobs += pr.jobs
			failed += int64(pr.lost)
			kept = append(kept, h.kept...)
			if it == 0 {
				first = append(first, pr.csv)
				fileBytes += pr.fileBytes
			} else if !bytes.Equal(pr.csv, first[pi]) {
				failed++
				fmt.Fprintf(os.Stderr, "perfbench: check: %s panel of regeneration %d differs from the first\n", arb, it)
			}
			if traced {
				phases.generate += h.enter.Sub(h.start)
				phases.analyze += h.exit.Sub(h.enter)
				phases.fold += h.start.Add(pr.took).Sub(h.exit)
				phases.blocked += time.Duration(h.blocked.Load())
				phases.total += pr.took
			}
		}
		cpu1, err := readCPU()
		if err != nil {
			return 0, 0, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return 0, 0, err
		}
		attempted += int64(jobs)
		g := regeneration{ms: float64(took) / 1e6, rate: float64(jobs) / took.Seconds(), steal: cpu1.stealSince(cpu0)}
		busy += took
		if g.steal <= maxSteal {
			clean += took
		}
		steal += time.Duration(g.steal * float64(took))
		// End-to-end figures come from untraced regenerations only.
		if traced {
			tracedRate = append(tracedRate, g.rate)
		} else {
			plain = append(plain, g)
		}
		if it+1 >= minIters && cleanEnough(time.Since(start).Seconds(), clean.Seconds(), rc.window.Seconds()) {
			break
		}
	}
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return 0, 0, err
	}

	failed += jobFailures.Load()
	failed += checkReference(kept, rc.scale.refChecks, os.Stderr)
	// Figures come from the clean regenerations when there are
	// minCleanParts of them, else from all; the throughput is the median
	// regeneration's.
	var used []regeneration
	for _, g := range plain {
		if g.steal <= maxSteal {
			used = append(used, g)
		}
	}
	if len(used) < minCleanParts {
		used = plain
	}
	var ms, rates []float64
	for _, g := range used {
		ms, rates = append(ms, g.ms), append(rates, g.rate)
	}
	rep.set("host.steal_share", steal.Seconds()/busy.Seconds(), "share",
		fmt.Sprintf("over all regenerations; figures from %d of %d untraced ones", len(used), len(plain)))
	rep.set("throughput_per_s", median(rates), "1/s",
		fmt.Sprintf("task sets generated, analysed under 3 variants and checkpointed per second, median of %d regenerations", len(used)))
	n := fmt.Sprintf("one Fig. 2 regeneration (3 panels), n=%d", len(used))
	rep.set("p50_ms", percentile(ms, 0.50), "ms", n)
	rep.set("p99_ms", percentile(ms, 0.99), "ms", n)
	rep.set("peak_rss_mb", rss, "MB", "benchmark process VmHWM (the sweep runs in-process)")
	if !rc.trace {
		return attempted, failed, nil
	}

	total := phases.total.Seconds()
	rep.set("experiments.generate_s", phases.generate.Seconds(), "s", "Fig2 entry until the Analyze hook, traced regenerations")
	rep.set("experiments.analyze_s", phases.analyze.Seconds(), "s", "inside the Analyze hook")
	rep.set("experiments.fold_s", phases.fold.Seconds(), "s", "Analyze hook return until Fig2 returns")
	rep.set("checkpoint.blocked_s", phases.blocked.Seconds(), "s", "worker time inside OnResult (record + flush), summed over workers")
	rep.set("experiments.generate_share", phases.generate.Seconds()/total, "share", "of traced sweep time")
	rep.set("experiments.analyze_share", phases.analyze.Seconds()/total, "share", "of traced sweep time")
	rep.set("experiments.fold_share", phases.fold.Seconds()/total, "share", "of traced sweep time")
	rep.set("checkpoint.blocked_share", phases.blocked.Seconds()/total, "share", "worker time in OnResult ÷ traced sweep time")
	rep.set("checkpoint.file_bytes", float64(fileBytes), "bytes", "final checkpoint logs of the 3 panels")
	rep.set("taskgen.pool_extract_ms", 1e3*median(setups), "ms", fmt.Sprintf("cold PoolFromSuite in a fresh process, median of %d", len(setups)))

	reqs := make([]*replayReq, 0, len(kept))
	for i, k := range kept {
		body, err := analyzeBody(k.req.TS, k.req.Cfgs)
		if err != nil {
			return 0, 0, err
		}
		w, err := expect(k.req.TS, k.req.Cfgs)
		if err != nil {
			return 0, 0, err
		}
		reqs = append(reqs, &replayReq{id: fmt.Sprintf("r%03d-sweep", i), body: body, want: &w})
	}
	st, err := replay(reqs, rc.scale.replayPasses, spanPath(rc), os.Stderr)
	if err != nil {
		return 0, 0, err
	}
	reportReplay(rep, st, len(reqs), rc.scale.replayPasses)
	// The sweep's own overhead figure: traced against untraced
	// regenerations of this run.
	rep.set("trace.overhead_share", 1-median(tracedRate)/median(rates), "share",
		fmt.Sprintf("1 - traced/untraced regeneration rate, medians of %d and %d", len(tracedRate), len(rates)))
	notExercised(rep, "server.cache_hit_ratio", "server.cache_evictions", "server.coalesced", "server.shed",
		"server.timeouts", "server.delta_base_misses", "server.stage_queue_share", "server.stage_cache_share",
		"server.stage_coalesce_share", "server.stage_analyze_share", "server.stage_marshal_share",
		"server.unnamed_share", "server.client_overhead_share", "core.memo_hit_ratio",
		"core.curve_memo_hit_ratio", "core.memo_evictions", "client.delta_retries")
	return attempted, failed + st.failed, nil
}

// checkReference re-checks up to n of the captured requests, evenly
// spaced, against core.AnalyzeReference — the naive evaluator that
// shares no fast-path code with the engine — and returns the number of
// mismatching requests.
func checkReference(kept []capturedReq, n int, report io.Writer) int64 {
	if n > len(kept) {
		n = len(kept)
	}
	var failed atomic.Int64
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for k := 0; k < n; k++ {
		c := kept[k*len(kept)/n]
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			for ci, cfg := range c.req.Cfgs {
				want, err := core.AnalyzeReference(c.req.TS, cfg)
				if err != nil || c.res == nil || !reflect.DeepEqual(c.res[ci], want) {
					failed.Add(1)
					fmt.Fprintf(report, "perfbench: check: %s %s differs from core.AnalyzeReference (%v)\n", c.req.Label, cfg.Arbiter, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return failed.Load()
}
