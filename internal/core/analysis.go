// Package core implements the paper's contribution: memory-bus
// contention analysis for partitioned fixed-priority multicore systems
// under FP, Round-Robin and TDMA bus arbitration (plus a regulated and
// a parallelism-aware bus), with and without cache persistence
// awareness, and the resulting worst-case response time (WCRT)
// analysis.
//
// Equation map (numbers refer to the paper):
//
//	BAS   — Eq. (1), same-core bus accesses, CRPD-inflated
//	B̂AS  — Lemma 1 (Eq. 16), persistence-aware same-core accesses
//	BAO   — Eq. (3)–(6), remote-core bus accesses with carry-out
//	B̂AO  — Lemma 2 (Eq. 17–18), persistence-aware remote accesses
//	BAT   — Eq. (7) FP bus, Eq. (8) RR bus, Eq. (9) TDMA bus
//	WCRT  — Eq. (19), fixed point with an outer loop over all tasks
//
// The "+1" blocking term of Eq. (7)–(9) is charged exactly when the
// core under analysis hosts at least one lower-priority task, matching
// the paper's remark below Eq. (12) that the term vanishes for the
// lowest-priority task of the core.
//
// Each formula has one definition, and there are two evaluators. How
// an arbiter composes BAS, the per-core BAO and the blocking term into
// BAT is written once, in the arbiter combinator (arbiter.go). The
// reference (reference.go) recomputes every BAS/BAO term from the task
// model on each use; it is the oracle of the differential test and
// serves the pointwise API (Analyzer.BAS/BAO/BAOLow/BAT) and Explain.
// The fast path (this file and curves.go) runs the fixed point on
// breakpoint curves built from precomputed interference tables
// (tables.go), so the iteration does integer arithmetic only; the
// differential test asserts it returns results bit-identical to the
// reference.
package core

import (
	"fmt"
	"strconv"
	"sync"

	"repro/internal/crpd"
	"repro/internal/persistence"
	"repro/internal/taskmodel"
	"repro/internal/telemetry"
)

// Config selects the analysis variant.
type Config struct {
	// Arbiter is the bus arbitration policy.
	Arbiter Arbiter
	// Persistence enables Lemmas 1 and 2 (the paper's contribution);
	// disabled, the analysis reduces to the baseline of Davis et al.
	Persistence bool
	// CRPD selects the preemption-delay bound; the paper uses ECBUnion.
	CRPD crpd.Approach
	// CPRO selects the persistence-reload accounting; the paper uses
	// Union. Ignored unless Persistence is set.
	CPRO persistence.CPROApproach
	// MaxOuterIterations caps the outer fixed-point loop (safety net;
	// the loop is monotone and terminates on its own). Zero means the
	// default of 64.
	MaxOuterIterations int
}

// DefaultConfig returns the paper's configuration for the given
// arbiter: ECB-union CRPD, CPRO-union, persistence on.
func DefaultConfig(arb Arbiter, persistence bool) Config {
	return Config{Arbiter: arb, Persistence: persistence}
}

// ValidateFor reports the first problem that makes the configuration
// unanalyzable against the platform: an Arbiter, CRPD or CPRO value
// outside the declared enums (possible when a numeric config arrives
// from a newer peer or a careless caller — the engine switches must
// never see one), or a Regulated configuration on a platform that
// carries no regulation parameters. Every analysis entry point runs it,
// so malformed enum values surface as errors, not panics.
func (c Config) ValidateFor(p taskmodel.Platform) error {
	if c.Arbiter < FP || c.Arbiter > ParAware {
		return fmt.Errorf("core: unknown arbiter %v", c.Arbiter)
	}
	if c.CRPD < crpd.ECBUnion || c.CRPD > crpd.Combined {
		return fmt.Errorf("core: unknown CRPD approach %d", int(c.CRPD))
	}
	if c.CPRO < persistence.Union || c.CPRO > persistence.None {
		return fmt.Errorf("core: unknown CPRO approach %d", int(c.CPRO))
	}
	if c.MaxOuterIterations < 0 {
		return fmt.Errorf("core: negative MaxOuterIterations %d", c.MaxOuterIterations)
	}
	if c.Arbiter == Regulated && (p.RegBudget < 1 || p.RegPeriod < 1) {
		return fmt.Errorf("core: regulated arbiter needs platform RegBudget >= 1 and RegPeriod >= 1 (got Q=%d P=%d)", p.RegBudget, p.RegPeriod)
	}
	return nil
}

// TaskResult reports the analysis outcome for one task.
type TaskResult struct {
	Name     string
	Priority int
	Core     int
	WCRT     taskmodel.Time // converged bound only if Verified
	Deadline taskmodel.Time
	// Schedulable reports whether the task is proven to meet its
	// deadline. When the analysis aborts early (Result.Complete false),
	// tasks whose response times never converged are conservatively
	// reported not schedulable: nothing was proven about them.
	Schedulable bool
	// Verified reports whether the analysis finished judging this task:
	// either its WCRT converged at or below the deadline (Schedulable),
	// or it provably misses its deadline. Unverified tasks carry the
	// mid-iteration estimate in WCRT — a lower bound on the true WCRT,
	// not a final bound.
	Verified bool
}

// Result is the outcome of a whole-task-set analysis.
type Result struct {
	Schedulable bool
	Tasks       []TaskResult
	// Complete reports whether every task's response time converged.
	// Following the paper, the fixed point aborts as soon as any task
	// provably misses its deadline; in that case the WCRT estimates of
	// the remaining tasks are lower bounds still mid-iteration, not
	// final bounds, and Complete is false.
	Complete        bool
	OuterIterations int
}

// Analyzer evaluates the bus contention and response-time equations
// for one task set under one configuration. The response-time
// estimates R (indexed by priority) feed the remote-interference terms
// N and W_cout; Run maintains them via the outer fixed-point loop, and
// tests may set them directly to reproduce the paper's worked example.
type Analyzer struct {
	TS  *taskmodel.TaskSet
	Cfg Config
	// R holds the current response-time estimate per priority value.
	R map[int]taskmodel.Time

	tab *Tables
	// fps holds each level's persistent cursor state of the
	// event-driven fixed point (curves.go); fp points at the state of
	// the level currently under analysis. Reuse across ResponseTime
	// calls makes the inner loop allocation-free and lets re-analyses
	// resume instead of rebuild.
	fps []fpState
	fp  *fpState
	// rd mirrors R densely by table index while Run is executing
	// (rdLive); the reset path reads thousands of remote estimates per
	// analysis and the map hashing would dominate it. Callers that
	// write R directly and invoke ResponseTime themselves (the OPA
	// probe, tests) bypass the mirror and read the map.
	rd     []taskmodel.Time
	rdLive bool
	// obs receives telemetry; nil (the default) disables every hook —
	// all hot-path instrumentation sits behind a single nil check.
	obs *telemetry.Observer
}

// NewAnalyzer validates the task set and prepares an analyzer with
// response times initialized to PD_i + MD_i·d_mem, the paper's
// fixed-point seed.
func NewAnalyzer(ts *taskmodel.TaskSet, cfg Config) (*Analyzer, error) {
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	return NewAnalyzerWithTables(ts, cfg, PrecomputeTables(ts, cfg.CRPD))
}

// NewAnalyzerWithTables is NewAnalyzer reusing previously computed
// interference tables, so repeated analyses of the same task set — or
// of clones differing only in d_mem, which none of the cached terms
// depend on — skip the cache-set work entirely. The tables' CRPD
// approach must match cfg and the task set must be compatible with the
// one the tables were built for.
func NewAnalyzerWithTables(ts *taskmodel.TaskSet, cfg Config, tbl *Tables) (*Analyzer, error) {
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.ValidateFor(ts.Platform); err != nil {
		return nil, err
	}
	if tbl.crpd != cfg.CRPD {
		return nil, fmt.Errorf("core: tables built for CRPD %v, config wants %v", tbl.crpd, cfg.CRPD)
	}
	if err := tbl.compatible(ts); err != nil {
		return nil, err
	}
	return newAnalyzerChecked(ts, cfg, tbl), nil
}

// newAnalyzerChecked skips the validation and compatibility checks for
// callers that already performed them (AnalyzeAll runs one validation
// for the whole config list and builds the tables from ts itself).
func newAnalyzerChecked(ts *taskmodel.TaskSet, cfg Config, tbl *Tables) *Analyzer {
	if cfg.MaxOuterIterations == 0 {
		cfg.MaxOuterIterations = 64
	}
	a := &Analyzer{
		TS:  ts,
		Cfg: cfg,
		R:   make(map[int]taskmodel.Time, len(ts.Tasks)),
		tab: tbl,
	}
	for _, t := range ts.Tasks {
		a.R[t.Priority] = t.PD + taskmodel.Time(t.MD)*ts.Platform.DMem
	}
	return a
}

func ceilDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a > 0) == (b > 0) {
		q++
	}
	return q
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a > 0) != (b > 0) {
		q--
	}
	return q
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// ResponseTime runs the inner fixed point of Eq. (19) for the
// priority-i task with the current remote response-time estimates. It
// returns the WCRT and true, or the deadline-exceeding estimate and
// false. The iteration starts from the larger of the seed
// PD_i + MD_i·d_mem and the current estimate R[i] (the outer loop is
// monotone, so restarting lower would waste iterations).
//
// The iteration is event-driven (curves.go): every interference term
// is tracked as a breakpoint curve whose cursor only moves forward, so
// re-evaluating the recurrence after the first pass costs only the
// breakpoints actually crossed, and an iterate that crosses none
// terminates the loop immediately. The iterate chain — and with it
// every returned value, including the deadline-exceeding abort
// estimate — is exactly the naive chain of AnalyzeReference.
//
// i must be the priority of a task in the analyzed set; any other value
// is a caller bug and panics with a message naming it.
func (a *Analyzer) ResponseTime(i int) (taskmodel.Time, bool) {
	ii, ok := a.tab.prioIdx[i]
	if !ok {
		panic(fmt.Sprintf("core: ResponseTime: no task with priority %d", i))
	}
	obs := a.obs
	if obs == nil {
		r, ok, _, _ := a.responseTime(ii)
		return r, ok
	}
	obs.Add(telemetry.CtrTaskAnalyses, 1)
	var sp telemetry.Span
	if obs.Tracing() {
		sp = obs.Span("task "+a.tab.tasks[ii].Name, "task")
	}
	r, ok, iters, jumps := a.responseTime(ii)
	obs.Add(telemetry.CtrInnerIterations, iters)
	obs.Add(telemetry.CtrBreakpointJumps, jumps)
	obs.Observe(telemetry.HistInnerIters, iters)
	if obs.Tracing() {
		sp.EndArgs(map[string]any{"prio": i, "wcrt": int64(r), "converged": ok, "iterations": iters})
	}
	return r, ok
}

// responseTime is the ResponseTime body for table level ii,
// additionally reporting the number of inner iterates and whether the
// loop terminated via the breakpoint jump — the telemetry wrapper's
// raw material.
func (a *Analyzer) responseTime(ii int) (taskmodel.Time, bool, int64, int64) {
	ti := a.tab.tasks[ii]
	dmem := a.TS.Platform.DMem
	r := ti.PD + taskmodel.Time(ti.MD)*dmem
	var cur taskmodel.Time
	if a.rdLive {
		cur = a.rd[ii]
	} else {
		cur = a.R[ti.Priority]
	}
	if cur > r {
		r = cur
	}
	a.fpReset(ii, ti.Core, r)
	hasLP := a.tab.hasLP(ii)
	conv := a.obs.ConvergenceOn()
	var iters int64
	for {
		iters++
		d := a.fpBAT(ti.MD, ti.Core, hasLP)
		next := ti.PD + a.fp.procSum + taskmodel.Time(d.bat())*dmem
		if conv {
			a.obs.Convergence.Step(ti.Name, ti.Priority, int64(next), a.dominantTerm(d))
		}
		if next > ti.Deadline {
			return next, false, iters, 0
		}
		if next == r {
			return r, true, iters, 0
		}
		if next < r {
			// The recurrence is monotone in r; a decrease can only come
			// from starting above the least fixed point (stale outer
			// estimate), in which case the current r remains a valid
			// bound.
			return r, true, iters, 0
		}
		if next < a.fp.minNext {
			// Breakpoint jump: no interference term changes in
			// (r, next], so f is constant there and f(next) = f(r) =
			// next — next is the least fixed point (≤ the deadline,
			// checked above). This is where whole stretches of the
			// naive chain collapse into one step. The cursors stay
			// valid at next, where the outer loop will resume.
			a.fp.at = next
			return next, true, iters, 1
		}
		a.fpAdvance(next)
		r = next
	}
}

// dominantTerm names the largest interference term of the recurrence
// right-hand side at the current cursor state: the processor
// preemption sum, then the parts of the decomposition d that fpBAT
// just returned, with the per-core charges it left in the cursor
// state. The names are the Explanation fields of explain.go
// (CorePreemption, BAS, Remote[y], SlotWait, Blocking) and ties go to
// the earlier term in that order. Access terms are compared in time
// units (accesses × d_mem) so they are commensurable with the
// processor-preemption sum; the task's own PD is demand, not
// interference, and is excluded. Only called while recording
// convergence traces.
func (a *Analyzer) dominantTerm(d busTerms) string {
	s := a.fp
	dmem := int64(a.TS.Platform.DMem)
	best, bestV := "CorePreemption", int64(s.procSum)
	if v := d.bas * dmem; v > bestV {
		best, bestV = "BAS", v
	}
	for y, c := range s.charged {
		if v := c * dmem; v > bestV {
			best, bestV = "Remote["+strconv.Itoa(y)+"]", v
		}
	}
	if v := d.slotWait * dmem; v > bestV {
		best, bestV = "SlotWait", v
	}
	if v := d.blocking * dmem; v > bestV {
		best = "Blocking"
	}
	return best
}

// perfectBusUtil is the long-run bus utilization the perfect-bus
// reference is gated on. Without persistence it is Σ MD·d_mem/T; with
// persistence each task's steady per-job demand is the tighter
// min(MD, MD^r + CPRO), where CPRO covers the persistent blocks its
// same-core neighbours can evict between jobs.
func (a *Analyzer) perfectBusUtil() float64 {
	var low *row
	lowIdx := len(a.tab.tasks) - 1
	if a.Cfg.Persistence {
		// hep(lowest priority) spans every task, so the lowest row's
		// union overlaps are exactly the steady-state CPRO terms.
		low = a.tab.row(lowIdx)
		if a.tab.memo != nil {
			// Serve the per-core CPRO columns from the shared store; the
			// lowest level's lp sets are empty, so withLow adds nothing.
			for y := 0; y < a.TS.Platform.NumCores; y++ {
				a.tab.memoFillPersist(lowIdx, low, y, true, a.obs)
			}
		}
	}
	u := 0.0
	for jj, t := range a.tab.tasks {
		demand := t.MD
		if a.Cfg.Persistence {
			if aware := t.MDr + a.tab.pairPersist(lowIdx, low, jj).unionOverlap; aware < demand {
				demand = aware
			}
		}
		u += float64(taskmodel.Time(demand)*a.TS.Platform.DMem) / float64(t.Period)
	}
	return u
}

// Run executes the outer fixed-point loop of the paper: response times
// of all tasks are recomputed until globally stable, since each task's
// bound feeds the remote-interference terms of the others. It stops
// early as soon as any task provably misses its deadline.
//
// The loop is incremental: a task is re-evaluated only while marked
// dirty, and a changed R[l] re-dirties exactly the tasks whose
// recurrences may read it — tasks on other cores (the remote
// N/W_cout terms) plus lower-priority tasks of the same core (a
// conservative superset; same-core recurrences read only periods and
// demands). Because the skipped tasks would have recomputed their
// current, already-converged values, the iteration visits the same
// states — and aborts at the same point — as the full re-evaluation
// performed by AnalyzeReference.
func (a *Analyzer) Run() *Result {
	obs := a.obs
	if obs == nil {
		return a.run()
	}
	obs.Add(telemetry.CtrRuns, 1)
	var sp telemetry.Span
	if obs.Tracing() {
		sp = obs.Span("analyze "+a.Cfg.label(), "analyzer")
	}
	res := a.run()
	obs.Observe(telemetry.HistOuterRounds, int64(res.OuterIterations))
	if res.Complete {
		obs.Add(telemetry.CtrRunsCompleted, 1)
	}
	if obs.Tracing() {
		sp.EndArgs(map[string]any{
			"tasks":       len(res.Tasks),
			"schedulable": res.Schedulable,
			"rounds":      res.OuterIterations,
		})
	}
	return res
}

func (a *Analyzer) run() *Result {
	res := &Result{Schedulable: true, Complete: true}
	if a.Cfg.Arbiter.gatesBusUtil() && a.perfectBusUtil() > 1.0 {
		if a.obs != nil {
			a.obs.Add(telemetry.CtrAbortBusOverload, 1)
		}
		// The perfect-bus reference additionally requires the bus not to
		// be overloaded. The gate is a final verdict — no per-task fixed
		// point is attempted.
		res.Schedulable = false
		for _, t := range a.TS.Tasks {
			res.Tasks = append(res.Tasks, TaskResult{
				Name: t.Name, Priority: t.Priority, Core: t.Core,
				Deadline: t.Deadline, Schedulable: false, Verified: true,
			})
		}
		return res
	}
	dirty := make([]bool, len(a.TS.Tasks))
	for i := range dirty {
		dirty[i] = true
	}
	// Activate the dense response-time mirror for the duration of the
	// loop; entry points that seed R directly keep using the map.
	if cap(a.rd) < len(a.TS.Tasks) {
		a.rd = make([]taskmodel.Time, len(a.TS.Tasks))
	}
	a.rd = a.rd[:len(a.TS.Tasks)]
	for idx, t := range a.TS.Tasks {
		a.rd[idx] = a.R[t.Priority]
	}
	a.rdLive = true
	defer func() { a.rdLive = false }()
	converged := false
	for iter := 0; iter < a.Cfg.MaxOuterIterations; iter++ {
		res.OuterIterations = iter + 1
		if a.obs != nil {
			a.obs.Add(telemetry.CtrOuterRounds, 1)
		}
		changed := false
		for idx, t := range a.TS.Tasks {
			if !dirty[idx] {
				continue
			}
			dirty[idx] = false
			r, ok := a.ResponseTime(t.Priority)
			if a.obs.ConvergenceOn() {
				a.obs.Convergence.Finish(t.Name, t.Priority, ok)
			}
			if !ok {
				a.R[t.Priority] = r
				a.rd[idx] = r
				return a.fail(res, t.Priority, true)
			}
			if r != a.rd[idx] {
				a.R[t.Priority] = r
				a.rd[idx] = r
				changed = true
				a.markDependents(idx, dirty)
			}
		}
		if !changed {
			converged = true
			break
		}
	}
	if !converged {
		// The outer fixed point did not stabilise within the iteration
		// budget; claiming schedulability would be unsound, and nothing
		// was proven about any individual task.
		return a.fail(res, a.TS.LowestPriority(), false)
	}
	res.Tasks = make([]TaskResult, 0, len(a.TS.Tasks))
	for _, t := range a.TS.Tasks {
		res.Tasks = append(res.Tasks, TaskResult{
			Name: t.Name, Priority: t.Priority, Core: t.Core,
			WCRT: a.R[t.Priority], Deadline: t.Deadline,
			Schedulable: true, Verified: true,
		})
	}
	return res
}

// markDependents flags every task whose response-time recurrence may
// read R[idx]: tasks on other cores, plus same-core lower-priority
// tasks as a conservative margin.
func (a *Analyzer) markDependents(idx int, dirty []bool) {
	tl := a.TS.Tasks[idx]
	for j, t := range a.TS.Tasks {
		if j == idx {
			continue
		}
		if t.Core != tl.Core || t.Priority > tl.Priority {
			dirty[j] = true
		}
	}
}

// fail finalizes a result after the analysis aborted: either the task
// at priority failPrio provably missed its deadline (proven), or the
// iteration budget ran out (not proven). Every task is reported not
// schedulable — the abort leaves their bounds mid-iteration, so no
// schedulability claim holds — and only a proven deadline miss is
// marked Verified.
func (a *Analyzer) fail(res *Result, failPrio int, proven bool) *Result {
	if a.obs != nil {
		if proven {
			a.obs.Add(telemetry.CtrAbortDeadlineMiss, 1)
		} else {
			a.obs.Add(telemetry.CtrAbortNonConvergence, 1)
		}
	}
	res.Schedulable = false
	res.Complete = false
	res.Tasks = make([]TaskResult, 0, len(a.TS.Tasks))
	for _, t := range a.TS.Tasks {
		res.Tasks = append(res.Tasks, TaskResult{
			Name: t.Name, Priority: t.Priority, Core: t.Core,
			WCRT: a.R[t.Priority], Deadline: t.Deadline,
			Schedulable: false,
			Verified:    proven && t.Priority == failPrio,
		})
	}
	return res
}

// Analyze is the one-call entry point: build an analyzer and run the
// full fixed point.
func Analyze(ts *taskmodel.TaskSet, cfg Config) (*Result, error) {
	a, err := NewAnalyzer(ts, cfg)
	if err != nil {
		return nil, err
	}
	return a.Run(), nil
}

// AnalyzeAll analyzes one task set under several configurations,
// sharing the precomputed interference tables between configurations
// with the same CRPD approach (the cached terms do not depend on the
// arbiter, the persistence switch or the CPRO approach). Results are
// returned in cfgs order.
func AnalyzeAll(ts *taskmodel.TaskSet, cfgs []Config) ([]*Result, error) {
	return analyzeAllObs(ts, cfgs, nil, nil)
}

// analysisScratch pools the per-analysis mutable arrays — cursor
// states, the dense response-time mirror and the per-level curve
// bookkeeping — across analyzeAllObs calls (and, through them, across
// AnalyzeBatchOpts jobs). Only the delta warm path profits: with the
// backbones themselves memo-served, these arrays are the remaining
// per-request allocations. Everything handed out is fully re-initialized
// before use, so pooling cannot leak state between task sets.
type analysisScratch struct {
	fps    []fpState
	rd     []taskmodel.Time
	curves []levelCurves
}

var scratchPool = sync.Pool{New: func() any { return new(analysisScratch) }}

// takeFPS returns n cursor states with their inner slices retained but
// every entry invalidated — fpReset's rebuild path reconstructs all
// remaining state.
func (sc *analysisScratch) takeFPS(n int) []fpState {
	if cap(sc.fps) < n {
		sc.fps = make([]fpState, n)
	}
	sc.fps = sc.fps[:cap(sc.fps)]
	fps := sc.fps[:n]
	for i := range fps {
		fps[i].valid = false
	}
	return fps
}

// takeRD returns the n-entry response-time mirror; run() overwrites
// every slot before reading it.
func (sc *analysisScratch) takeRD(n int) []taskmodel.Time {
	if cap(sc.rd) < n {
		sc.rd = make([]taskmodel.Time, n)
	}
	return sc.rd[:n]
}

// takeCurves returns n cleared levelCurves entries for an m-core
// platform. The per-core header and flag arrays are retained across
// requests when their core count still matches (the common sweep case)
// — only their contents are invalidated; the backbone views themselves
// are dropped since they may alias store-shared slices. A core-count
// mismatch falls back to a wholesale zero and levelCurves() reallocates.
func (sc *analysisScratch) takeCurves(n, m int) []levelCurves {
	if cap(sc.curves) < n {
		sc.curves = make([]levelCurves, n)
	}
	sc.curves = sc.curves[:cap(sc.curves)]
	cur := sc.curves[:n]
	for i := range cur {
		lc := &cur[i]
		if len(lc.remoteBuilt) != m {
			*lc = levelCurves{}
			continue
		}
		lc.same = nil
		lc.sameBuilt, lc.samePersist = false, false
		for y := 0; y < m; y++ {
			lc.remote[y], lc.low[y] = nil, nil
			lc.remoteBuilt[y], lc.remotePersist[y] = false, false
		}
	}
	return cur
}

func analyzeAllObs(ts *taskmodel.TaskSet, cfgs []Config, obs *telemetry.Observer, memo *MemoStore) ([]*Result, error) {
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	for i, cfg := range cfgs {
		if err := cfg.ValidateFor(ts.Platform); err != nil {
			return nil, fmt.Errorf("config %d: %w", i, err)
		}
	}
	n := len(ts.Tasks)
	scratch := scratchPool.Get().(*analysisScratch)
	defer scratchPool.Put(scratch)
	tables := make(map[crpd.Approach]*Tables)
	out := make([]*Result, len(cfgs))
	// Persistence-enabled configurations run first (results still land
	// in cfgs order): the first touch of each curve then materializes
	// its backbone at CPRO depth, a superset of γ depth, so the
	// persistence-oblivious configurations that follow hit the
	// intra-Tables warm path instead of paying a second store
	// round-trip for the γ-depth backbone of the same prefix.
	order := make([]int, 0, len(cfgs))
	for i, cfg := range cfgs {
		if cfg.Persistence {
			order = append(order, i)
		}
	}
	for i, cfg := range cfgs {
		if !cfg.Persistence {
			order = append(order, i)
		}
	}
	first := true
	for _, i := range order {
		cfg := cfgs[i]
		tbl, ok := tables[cfg.CRPD]
		if !ok {
			tbl = PrecomputeTables(ts, cfg.CRPD)
			if memo != nil {
				tbl.setMemo(memo)
			}
			if first {
				// The pooled curve array serves one Tables only — the
				// backbones differ across CRPD approaches. Additional
				// tables (rare in one request) allocate their own lazily.
				tbl.curves = scratch.takeCurves(n, ts.Platform.NumCores)
				first = false
			}
			tables[cfg.CRPD] = tbl
		}
		// The set was validated above and the tables were built from it,
		// so the per-analyzer checks are redundant. The configurations run
		// sequentially, so handing every analyzer the same pooled cursor
		// arrays is safe: takeFPS invalidates all entries between configs.
		a := newAnalyzerChecked(ts, cfg, tbl)
		a.obs = obs
		a.fps = scratch.takeFPS(n)
		a.rd = scratch.takeRD(n)
		out[i] = a.Run()
	}
	return out, nil
}
