package core

import (
	"repro/internal/crpd"
	"repro/internal/persistence"
	"repro/internal/taskmodel"
)

// The reference evaluator: the direct, recompute-everything evaluation
// of Eq. (1)–(19). Every task-pair quantity (γ, the CPRO overlaps, the
// hp/hep/lp slices) is rebuilt from the task model on each use, and the
// outer loop re-evaluates every task in every round; only the
// arbiter's composition of the terms comes from the shared combinator
// (arbiter.go). It is the oracle of the differential test — the fast
// path must return bit-identical Results — and it serves the pointwise
// queries: Analyzer.BAS/BAO/BAOLow/BAT evaluate here at the analyzer's
// current estimates, and Explain decomposes a bound here at the fast
// path's converged estimates. Do not run whole analyses on it for real
// workloads — that is the point.

type refAnalyzer struct {
	ts  *taskmodel.TaskSet
	cfg Config
	r   map[int]taskmodel.Time

	gammaMemo map[refGammaKey]int64
	// raw and charged are the per-core BAO inputs and charged outputs of
	// the latest terms call.
	raw, charged []int64
}

// newRefAnalyzer returns a reference evaluator reading the response-time
// estimates r (not copied).
func newRefAnalyzer(ts *taskmodel.TaskSet, cfg Config, r map[int]taskmodel.Time) *refAnalyzer {
	m := ts.Platform.NumCores
	return &refAnalyzer{
		ts: ts, cfg: cfg, r: r,
		gammaMemo: make(map[refGammaKey]int64),
		raw:       make([]int64, m),
		charged:   make([]int64, m),
	}
}

type refGammaKey struct{ i, j, core int }

func (a *refAnalyzer) gamma(i, j, core int) int64 {
	k := refGammaKey{i, j, core}
	if g, ok := a.gammaMemo[k]; ok {
		return g
	}
	g := crpd.Gamma(a.ts, a.cfg.CRPD, i, j, core)
	a.gammaMemo[k] = g
	return g
}

func (a *refAnalyzer) bas(i, core int, t taskmodel.Time) int64 {
	ti := a.ts.ByPriority(i)
	total := ti.MD
	for _, tj := range a.ts.HP(i, core) {
		ej := ceilDiv(int64(t), int64(tj.Period))
		g := a.gamma(i, tj.Priority, core)
		if a.cfg.Persistence {
			total += persistence.PersistentDemandWindow(a.ts, a.cfg.CPRO, tj.Priority, i, core, ej, t)
		} else {
			total += ej * tj.MD
		}
		total += ej * g
	}
	return total
}

func (a *refAnalyzer) njobs(k int, tl *taskmodel.Task, t taskmodel.Time) int64 {
	g := a.gamma(k, tl.Priority, tl.Core)
	num := int64(t) + int64(a.r[tl.Priority]) - (tl.MD+g)*int64(a.ts.Platform.DMem)
	n := floorDiv(num, int64(tl.Period))
	if n < 0 {
		return 0
	}
	return n
}

func (a *refAnalyzer) wcout(k int, tl *taskmodel.Task, t taskmodel.Time, n int64) int64 {
	g := a.gamma(k, tl.Priority, tl.Core)
	dmem := int64(a.ts.Platform.DMem)
	num := int64(t) + int64(a.r[tl.Priority]) - (tl.MD+g)*dmem - n*int64(tl.Period)
	w := ceilDiv(num, dmem)
	if w < 0 {
		return 0
	}
	return min64(w, tl.MD+g)
}

func (a *refAnalyzer) contrib(k int, tl *taskmodel.Task, t taskmodel.Time) int64 {
	n := a.njobs(k, tl, t)
	g := a.gamma(k, tl.Priority, tl.Core)
	var w int64
	if a.cfg.Persistence {
		w = persistence.PersistentDemandWindow(a.ts, a.cfg.CPRO, tl.Priority, k, tl.Core, n, t) + n*g
	} else {
		w = n * (tl.MD + g)
	}
	return w + a.wcout(k, tl, t, n)
}

func (a *refAnalyzer) bao(k, y int, t taskmodel.Time) int64 {
	var total int64
	for _, tl := range a.ts.HEP(k, y) {
		total += a.contrib(k, tl, t)
	}
	return total
}

func (a *refAnalyzer) baoLow(i, y int, t taskmodel.Time) int64 {
	var total int64
	for _, tl := range a.ts.LP(i, y) {
		total += a.contrib(i, tl, t)
	}
	return total
}

func (a *refAnalyzer) plus1(i, core int) int64 {
	if len(a.ts.LP(i, core)) > 0 {
		return 1
	}
	return 0
}

// terms evaluates the priority-i task's BAT at window t through the
// arbiter combinator, leaving the per-core BAO and charges in a.raw and
// a.charged.
func (a *refAnalyzer) terms(i int, t taskmodel.Time) busTerms {
	core := a.ts.ByPriority(i).Core
	bas := a.bas(i, core, t)
	clear(a.raw)
	var low int64
	if k, ok := a.cfg.Arbiter.demandLevel(i, a.ts.LowestPriority()); ok {
		for y := range a.raw {
			if y == core {
				continue
			}
			a.raw[y] = a.bao(k, y, t)
			low += a.baoLow(k, y, t)
		}
	}
	return a.cfg.Arbiter.stall(&a.ts.Platform, core, t, bas, a.raw, low, a.plus1(i, core) > 0, a.charged)
}

func (a *refAnalyzer) bat(i int, t taskmodel.Time) int64 {
	return a.terms(i, t).bat()
}

func (a *refAnalyzer) responseTime(i int) (taskmodel.Time, bool) {
	ti := a.ts.ByPriority(i)
	dmem := a.ts.Platform.DMem
	r := ti.PD + taskmodel.Time(ti.MD)*dmem
	if cur := a.r[i]; cur > r {
		r = cur
	}
	for {
		var interference taskmodel.Time
		for _, tj := range a.ts.HP(i, ti.Core) {
			interference += taskmodel.Time(ceilDiv(int64(r), int64(tj.Period))) * tj.PD
		}
		next := ti.PD + interference + taskmodel.Time(a.bat(i, r))*dmem
		if next > ti.Deadline {
			return next, false
		}
		if next <= r {
			return r, true
		}
		r = next
	}
}

func (a *refAnalyzer) perfectBusUtil() float64 {
	u := 0.0
	for _, t := range a.ts.Tasks {
		demand := t.MD
		if a.cfg.Persistence {
			evictable := int64(t.PCB.IntersectCount(persistence.EvictingUnion(
				a.ts, a.ts.LowestPriority(), t.Priority, t.Core)))
			if aware := t.MDr + evictable; aware < demand {
				demand = aware
			}
		}
		u += float64(taskmodel.Time(demand)*a.ts.Platform.DMem) / float64(t.Period)
	}
	return u
}

func (a *refAnalyzer) fail(res *Result, failPrio int, proven bool) *Result {
	res.Schedulable = false
	res.Complete = false
	for _, t := range a.ts.Tasks {
		res.Tasks = append(res.Tasks, TaskResult{
			Name: t.Name, Priority: t.Priority, Core: t.Core,
			WCRT: a.r[t.Priority], Deadline: t.Deadline,
			Schedulable: false,
			Verified:    proven && t.Priority == failPrio,
		})
	}
	return res
}

func (a *refAnalyzer) run() *Result {
	res := &Result{Schedulable: true, Complete: true}
	if a.cfg.Arbiter.gatesBusUtil() && a.perfectBusUtil() > 1.0 {
		res.Schedulable = false
		for _, t := range a.ts.Tasks {
			res.Tasks = append(res.Tasks, TaskResult{
				Name: t.Name, Priority: t.Priority, Core: t.Core,
				Deadline: t.Deadline, Schedulable: false, Verified: true,
			})
		}
		return res
	}
	converged := false
	for iter := 0; iter < a.cfg.MaxOuterIterations; iter++ {
		res.OuterIterations = iter + 1
		changed := false
		for _, t := range a.ts.Tasks {
			r, ok := a.responseTime(t.Priority)
			if !ok {
				a.r[t.Priority] = r
				return a.fail(res, t.Priority, true)
			}
			if r != a.r[t.Priority] {
				a.r[t.Priority] = r
				changed = true
			}
		}
		if !changed {
			converged = true
			break
		}
	}
	if !converged {
		return a.fail(res, a.ts.LowestPriority(), false)
	}
	for _, t := range a.ts.Tasks {
		res.Tasks = append(res.Tasks, TaskResult{
			Name: t.Name, Priority: t.Priority, Core: t.Core,
			WCRT: a.r[t.Priority], Deadline: t.Deadline,
			Schedulable: true, Verified: true,
		})
	}
	return res
}

// AnalyzeReference runs the retained naive implementation of the full
// analysis. It exists as the oracle of the differential test and always
// returns results bit-identical to Analyze.
func AnalyzeReference(ts *taskmodel.TaskSet, cfg Config) (*Result, error) {
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.ValidateFor(ts.Platform); err != nil {
		return nil, err
	}
	if cfg.MaxOuterIterations == 0 {
		cfg.MaxOuterIterations = 64
	}
	a := newRefAnalyzer(ts, cfg, make(map[int]taskmodel.Time, len(ts.Tasks)))
	for _, t := range ts.Tasks {
		a.r[t.Priority] = t.PD + taskmodel.Time(t.MD)*ts.Platform.DMem
	}
	return a.run(), nil
}

// reference returns the reference evaluator over this analyzer's task
// set and configuration, reading its current estimates R.
func (a *Analyzer) reference() *refAnalyzer { return newRefAnalyzer(a.TS, a.Cfg, a.R) }

// BAS bounds the bus accesses generated on core x by one job of the
// priority-i task plus all higher-priority tasks of that core in a
// window of length t: Eq. (1), or B̂AS of Lemma 1 (Eq. 16) with
// persistence enabled.
func (a *Analyzer) BAS(i, core int, t taskmodel.Time) int64 { return a.reference().bas(i, core, t) }

// BAO bounds the bus accesses generated on remote core y by all tasks
// of priority k or higher in a window of length t, at the current
// estimates R: Eq. (3), or B̂AO of Lemma 2 with persistence enabled.
func (a *Analyzer) BAO(k, y int, t taskmodel.Time) int64 { return a.reference().bao(k, y, t) }

// BAOLow bounds the accesses from tasks on remote core y with priority
// lower than i (the FP bus blocking sources of Eq. 7).
func (a *Analyzer) BAOLow(i, y int, t taskmodel.Time) int64 { return a.reference().baoLow(i, y, t) }

// BAT bounds the total number of bus accesses that may delay the
// priority-i task on its core during a window of length t, under the
// configured arbiter (Eq. 7, 8 or 9; own accesses only for Perfect).
func (a *Analyzer) BAT(i int, t taskmodel.Time) int64 { return a.reference().bat(i, t) }
