package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/fixtures"
	"repro/internal/persistence"
	"repro/internal/taskmodel"
	"repro/internal/telemetry"
)

func TestExplainFig1Tau2(t *testing.T) {
	ts := fixtures.Fig1TaskSet()
	ex, err := Explain(ts, Config{Arbiter: RR, Persistence: true}, 1)
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	if ex.Task != "tau2" || ex.Core != 0 || ex.Priority != 1 {
		t.Fatalf("identity = %+v", ex)
	}
	if !ex.Schedulable {
		t.Fatal("τ2 should be schedulable in the Fig. 1 setup")
	}
	if ex.OwnMD != 8 || ex.PD != 32 {
		t.Errorf("own demand = PD %d / MD %d, want 32/8", ex.PD, ex.OwnMD)
	}
	if len(ex.SameCore) != 1 || ex.SameCore[0].Task != "tau1" {
		t.Fatalf("SameCore = %+v, want one τ1 term", ex.SameCore)
	}
	sc := ex.SameCore[0]
	if sc.AwareDemand > sc.PlainDemand {
		t.Errorf("aware demand %d exceeds plain %d", sc.AwareDemand, sc.PlainDemand)
	}
	if sc.CRPD != sc.Jobs*2 {
		t.Errorf("CRPD = %d, want jobs×γ = %d×2", sc.CRPD, sc.Jobs)
	}
	// Consistency: BAS = MD_i + Σ aware + Σ CRPD.
	want := ex.OwnMD + sc.AwareDemand + sc.CRPD
	if ex.BAS != want {
		t.Errorf("BAS = %d, want %d (decomposition must add up)", ex.BAS, want)
	}
	// One remote core with a clamped-or-not term.
	if len(ex.Remote) != 1 || ex.Remote[0].Core != 1 {
		t.Fatalf("Remote = %+v", ex.Remote)
	}
	// BAT consistency for RR: BAS + Σ remote + blocking.
	total := ex.BAS + ex.Blocking
	for _, rc := range ex.Remote {
		total += rc.Accesses
	}
	if ex.BAT != total {
		t.Errorf("BAT = %d, decomposition sums to %d", ex.BAT, total)
	}
	if ex.BusTime != taskTime(ex.BAT)*ts.Platform.DMem {
		t.Errorf("BusTime = %d, want BAT×d_mem", ex.BusTime)
	}
}

func taskTime(v int64) int64 { return v }

func TestExplainDecompositionAllArbiters(t *testing.T) {
	ts := regulatedFig1()
	for _, arb := range Arbiters() {
		for _, p := range []bool{false, true} {
			ex, err := Explain(ts, Config{Arbiter: arb, Persistence: p}, 1)
			if err != nil {
				t.Fatalf("%v: %v", arb, err)
			}
			total := ex.BAS + ex.SlotWait + ex.Blocking
			for _, rc := range ex.Remote {
				total += rc.Accesses
			}
			if ex.BAT != total {
				t.Errorf("%v persistence=%v: BAT %d != decomposition %d", arb, p, ex.BAT, total)
			}
		}
	}
	// TDMA's slot waiting is folded into BAT, not the remote terms.
	ex, err := Explain(ts, Config{Arbiter: TDMA}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Remote) != 0 {
		t.Errorf("TDMA remote terms = %+v, want none", ex.Remote)
	}
	if ex.BAT < ex.BAS {
		t.Errorf("TDMA BAT %d below BAS %d", ex.BAT, ex.BAS)
	}
}

func TestExplainDecompositionSumsToBAT(t *testing.T) {
	// Regression guard for the table refactor: for every arbiter,
	// persistence mode and CPRO approach, the rendered decomposition
	// must reconstruct the analyzer's bounds exactly —
	//   BAS = OwnMD + Σ (AwareDemand + CRPD)
	//   BAT = BAS + SlotWait + Σ Remote.Accesses + Blocking.
	sets := []*taskmodel.TaskSet{regulatedFig1()}
	sets = append(sets, randomTaskSets(t, 3, 0.4)...)
	var cfgs []Config
	for _, arb := range Arbiters() {
		cfgs = append(cfgs, Config{Arbiter: arb})
		for _, cpro := range []persistence.CPROApproach{
			persistence.Union, persistence.MultisetUnion,
			persistence.FullReload, persistence.None,
		} {
			cfgs = append(cfgs, Config{Arbiter: arb, Persistence: true, CPRO: cpro})
		}
	}
	for si, ts := range sets {
		for _, cfg := range cfgs {
			for _, task := range ts.Tasks {
				ex, err := Explain(ts, cfg, task.Priority)
				if err != nil {
					t.Fatalf("set %d %+v prio %d: %v", si, cfg, task.Priority, err)
				}
				bas := ex.OwnMD
				for _, sc := range ex.SameCore {
					bas += sc.AwareDemand + sc.CRPD
				}
				if ex.BAS != bas {
					t.Errorf("set %d %+v τ%d: BAS %d != same-core decomposition %d",
						si, cfg, task.Priority, ex.BAS, bas)
				}
				bat := ex.BAS + ex.SlotWait + ex.Blocking
				for _, rc := range ex.Remote {
					bat += rc.Accesses
				}
				if ex.BAT != bat {
					t.Errorf("set %d %+v τ%d: BAT %d != decomposition %d",
						si, cfg, task.Priority, ex.BAT, bat)
				}
				if cfg.Arbiter != TDMA && ex.SlotWait != 0 {
					t.Errorf("set %d %+v τ%d: SlotWait %d outside TDMA",
						si, cfg, task.Priority, ex.SlotWait)
				}
			}
		}
	}
}

func TestExplainUnknownPriority(t *testing.T) {
	ts := fixtures.Fig1TaskSet()
	if _, err := Explain(ts, Config{Arbiter: RR}, 42); err == nil {
		t.Fatal("unknown priority accepted")
	}
}

func TestExplainRender(t *testing.T) {
	ts := fixtures.Fig1TaskSet()
	ex, err := Explain(ts, Config{Arbiter: RR, Persistence: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := ex.Render(&b); err != nil {
		t.Fatalf("Render: %v", err)
	}
	out := b.String()
	for _, want := range []string{"task tau2", "same-core bus demand", "tau1", "remote core 1", "BAT total accesses"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestExplainPersistenceReducesAwareDemand(t *testing.T) {
	ts := fixtures.Fig1TaskSet()
	base, err := Explain(ts, Config{Arbiter: RR}, 1)
	if err != nil {
		t.Fatal(err)
	}
	aware, err := Explain(ts, Config{Arbiter: RR, Persistence: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if aware.SameCore[0].AwareDemand >= base.SameCore[0].AwareDemand {
		t.Errorf("persistence did not reduce τ1's demand: %d vs %d",
			aware.SameCore[0].AwareDemand, base.SameCore[0].AwareDemand)
	}
	if aware.BAT >= base.BAT {
		t.Errorf("persistence did not reduce BAT: %d vs %d", aware.BAT, base.BAT)
	}
}

// largestTerm names the largest interference term of an explanation in
// time units, with dominantTerm's tie order: CorePreemption, BAS, the
// remote cores in core order, SlotWait, Blocking — an earlier term wins
// a tie.
func largestTerm(ex *Explanation, dmem taskmodel.Time) string {
	best, bestV := "CorePreemption", ex.CorePreemption
	consider := func(name string, accesses int64) {
		if v := taskmodel.Time(accesses) * dmem; v > bestV {
			best, bestV = name, v
		}
	}
	consider("BAS", ex.BAS)
	for _, rc := range ex.Remote {
		consider(fmt.Sprintf("Remote[%d]", rc.Core), rc.Accesses)
	}
	consider("SlotWait", ex.SlotWait)
	consider("Blocking", ex.Blocking)
	return best
}

func TestConvergenceDominantMatchesExplain(t *testing.T) {
	// The convergence trace names its dominant term from the fast path's
	// cursor sums; Explain decomposes the bound on the reference at the
	// converged estimates. At a converged task's fixed point the last
	// trace step must name the largest term of Explain's decomposition.
	seen := map[string]int{}
	for si, ts := range randomTaskSets(t, 4, 0.3) {
		// Traces are keyed by task name, and generated names may repeat.
		for i, task := range ts.Tasks {
			task.Name = fmt.Sprintf("t%d", i)
		}
		for _, arb := range Arbiters() {
			for _, p := range []bool{false, true} {
				cfg := Config{Arbiter: arb, Persistence: p}
				obs := &telemetry.Observer{Convergence: telemetry.NewConvergenceLog()}
				res, err := AnalyzeOpts(ts, cfg, Options{Observer: obs})
				if err != nil {
					t.Fatalf("set %d %v: %v", si, cfg.label(), err)
				}
				last := map[string]string{}
				for _, tr := range obs.Convergence.Traces() {
					last[tr.Task] = tr.Steps[len(tr.Steps)-1].Dominant
				}
				for _, tr := range res.Tasks {
					if !tr.Verified || !tr.Schedulable {
						continue
					}
					ex, err := Explain(ts, cfg, tr.Priority)
					if err != nil {
						t.Fatal(err)
					}
					want := largestTerm(ex, ts.Platform.DMem)
					if got := last[tr.Name]; got != want {
						t.Errorf("set %d %v %s: trace ends on %q, Explain's largest term is %q",
							si, cfg.label(), tr.Name, got, want)
					}
					seen[want]++
				}
			}
		}
	}
	if len(seen) < 3 {
		t.Errorf("dominant terms seen = %v; the corpus no longer exercises the comparison", seen)
	}
	t.Logf("dominant terms at the fixed point: %v", seen)
}
