package core

import (
	"math/rand"
	"testing"

	"repro/internal/cacheset"
	"repro/internal/fixtures"
	"repro/internal/persistence"
	"repro/internal/taskgen"
	"repro/internal/taskmodel"
)

// twoTaskSet builds a hand-checkable single-core system with disjoint
// cache footprints (no CRPD, no CPRO).
func twoTaskSet() *taskmodel.TaskSet {
	n := 8
	plat := taskmodel.Platform{
		NumCores: 1,
		Cache:    taskmodel.CacheConfig{NumSets: n, BlockSizeBytes: 32},
		DMem:     2,
		SlotSize: 2,
	}
	t1 := &taskmodel.Task{
		Name: "a", Core: 0, Priority: 0,
		PD: 10, MD: 2, MDr: 2, Period: 100, Deadline: 100,
		ECB: cacheset.Of(n, 0, 1), UCB: cacheset.New(n), PCB: cacheset.New(n),
	}
	t2 := &taskmodel.Task{
		Name: "b", Core: 0, Priority: 1,
		PD: 20, MD: 4, MDr: 4, Period: 200, Deadline: 200,
		ECB: cacheset.Of(n, 2, 3), UCB: cacheset.New(n), PCB: cacheset.New(n),
	}
	return taskmodel.NewTaskSet(plat, []*taskmodel.Task{t1, t2})
}

func TestSingleCoreFPHandComputed(t *testing.T) {
	res, err := Analyze(twoTaskSet(), Config{Arbiter: FP})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if !res.Schedulable {
		t.Fatal("expected schedulable")
	}
	// τ1: BAT = MD1 + 1 (a τ2 access may be in service) = 3,
	// R1 = 10 + 3·2 = 16.
	if got := res.Tasks[0].WCRT; got != 16 {
		t.Errorf("R1 = %d, want 16", got)
	}
	// τ2: BAS = MD2 + ⌈R/T1⌉·MD1 = 4+2 = 6 (no +1: lowest priority),
	// R2 = 20 + ⌈R/100⌉·10 + 6·2 = 42.
	if got := res.Tasks[1].WCRT; got != 42 {
		t.Errorf("R2 = %d, want 42", got)
	}
}

func TestSingleTaskAllArbiters(t *testing.T) {
	n := 4
	plat := taskmodel.Platform{
		NumCores: 2,
		Cache:    taskmodel.CacheConfig{NumSets: n, BlockSizeBytes: 32},
		DMem:     3,
		SlotSize: 2,
	}
	solo := &taskmodel.Task{
		Name: "solo", Core: 0, Priority: 0,
		PD: 50, MD: 10, MDr: 10, Period: 1000, Deadline: 1000,
		ECB: cacheset.Of(n, 0), UCB: cacheset.New(n), PCB: cacheset.New(n),
	}
	ts := taskmodel.NewTaskSet(plat, []*taskmodel.Task{solo})
	want := map[Arbiter]taskmodel.Time{
		FP:      50 + 10*3,         // nothing to contend with
		RR:      50 + 10*3,         // remote BAO is zero
		TDMA:    50 + 10*(1+1*2)*3, // every access waits (m−1)·s slots
		Perfect: 50 + 10*3,
	}
	for arb, wantR := range want {
		res, err := Analyze(ts, Config{Arbiter: arb})
		if err != nil {
			t.Fatalf("%v: %v", arb, err)
		}
		if !res.Schedulable {
			t.Fatalf("%v: unschedulable", arb)
		}
		if got := res.Tasks[0].WCRT; got != wantR {
			t.Errorf("%v: R = %d, want %d", arb, got, wantR)
		}
	}
}

func TestUnschedulableDetected(t *testing.T) {
	ts := twoTaskSet()
	ts.Tasks[1].Deadline = 30 // below the true response time 42
	ts.Tasks[1].Period = 30
	res, err := Analyze(ts, Config{Arbiter: FP})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if res.Schedulable {
		t.Fatal("expected unschedulable")
	}
	if res.Tasks[1].Schedulable {
		t.Error("τ2 marked schedulable despite deadline miss")
	}
	if !res.Tasks[1].Verified {
		t.Error("τ2's deadline miss is proven, so it must be Verified")
	}
	// The analysis aborted before τ1's bound converged: nothing was
	// proven about it, so it must be reported neither schedulable nor
	// verified.
	if res.Tasks[0].Schedulable {
		t.Error("τ1 claimed schedulable from a mid-iteration estimate")
	}
	if res.Tasks[0].Verified {
		t.Error("τ1 marked verified despite the aborted fixed point")
	}
}

func TestAbortVerdictsNeverMisleading(t *testing.T) {
	// When Complete is false, no task may combine Schedulable with an
	// unverified bound: either semantics (the conservative Schedulable
	// flag and the explicit Verified field) must reflect the abort.
	ts := twoTaskSet()
	ts.Tasks[1].Deadline = 30
	ts.Tasks[1].Period = 30
	for _, arb := range []Arbiter{FP, RR, TDMA} {
		res, err := Analyze(ts, Config{Arbiter: arb})
		if err != nil {
			t.Fatalf("%v: %v", arb, err)
		}
		if res.Complete {
			t.Fatalf("%v: expected an aborted analysis", arb)
		}
		verified := 0
		for _, tr := range res.Tasks {
			if tr.Schedulable {
				t.Errorf("%v task %s: schedulable claim in an incomplete result", arb, tr.Name)
			}
			if tr.Verified {
				verified++
				if tr.WCRT <= tr.Deadline {
					t.Errorf("%v task %s: verified miss but WCRT %d within deadline %d",
						arb, tr.Name, tr.WCRT, tr.Deadline)
				}
			}
		}
		if verified != 1 {
			t.Errorf("%v: %d verified tasks in an abort, want exactly the missing one", arb, verified)
		}
	}
	// A successful analysis verifies everything.
	res, err := Analyze(twoTaskSet(), Config{Arbiter: FP})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range res.Tasks {
		if !tr.Schedulable || !tr.Verified {
			t.Errorf("task %s: want schedulable and verified, got %+v", tr.Name, tr)
		}
	}
	// The MaxOuterIterations safety net proves nothing about anyone.
	stressed := fixtures.Fig1TaskSet()
	capped, err := Analyze(stressed, Config{Arbiter: RR, Persistence: true, MaxOuterIterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !capped.Complete {
		for _, tr := range capped.Tasks {
			if tr.Schedulable || tr.Verified {
				t.Errorf("budget exhaustion must leave %s unverified: %+v", tr.Name, tr)
			}
		}
	}
}

func TestPerfectBusGateOnBusUtilization(t *testing.T) {
	ts := twoTaskSet()
	// Inflate memory demand so bus utilization exceeds 1:
	// MD·dmem/T = 60*2/100 > 1 for τ1 alone.
	ts.Tasks[0].MD = 60
	ts.Tasks[0].MDr = 60
	res, err := Analyze(ts, Config{Arbiter: Perfect})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if res.Schedulable {
		t.Fatal("perfect bus must reject bus utilization > 1")
	}
}

func TestAnalyzeRejectsInvalidTaskSet(t *testing.T) {
	ts := twoTaskSet()
	ts.Tasks[0].MDr = ts.Tasks[0].MD + 1
	if _, err := Analyze(ts, Config{Arbiter: FP}); err == nil {
		t.Fatal("invalid task set accepted")
	}
}

func TestRunIdempotent(t *testing.T) {
	ts := fixtures.Fig1TaskSet()
	for _, cfg := range []Config{
		{Arbiter: RR, Persistence: false},
		{Arbiter: RR, Persistence: true},
		{Arbiter: FP, Persistence: true},
		{Arbiter: TDMA, Persistence: true},
	} {
		a1, err := NewAnalyzer(ts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		r1 := a1.Run()
		a2, err := NewAnalyzer(ts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		r2 := a2.Run()
		if r1.Schedulable != r2.Schedulable {
			t.Fatalf("%+v: schedulability differs across runs", cfg)
		}
		for i := range r1.Tasks {
			if r1.Tasks[i].WCRT != r2.Tasks[i].WCRT {
				t.Fatalf("%+v: WCRT differs across runs for %s", cfg, r1.Tasks[i].Name)
			}
		}
	}
}

func TestBaselineBATMonotoneInWindow(t *testing.T) {
	// The baseline bounds (Eq. 1, 3-9) are monotone in the window
	// length. The persistence-aware variants are NOT globally monotone:
	// when a carry-out job becomes a full job, W_cout gives back up to
	// MD+γ while Ŵ only grows by the residual demand — each point is
	// individually sound, so this is an artifact of Eq. (5)'s cap, not
	// a bug; see TestPersistenceAwareBATDominatedByBaseline.
	ts := regulatedFig1()
	for _, arb := range Arbiters() {
		cfg := Config{Arbiter: arb}
		a, err := NewAnalyzer(ts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, prio := range []int{0, 1, 2} {
			prev := int64(-1)
			for w := taskmodel.Time(1); w <= 400; w += 7 {
				got := a.BAT(prio, w)
				if got < prev {
					t.Fatalf("%+v prio %d: BAT(%d) = %d < BAT(%d) = %d",
						cfg, prio, w, got, w-7, prev)
				}
				prev = got
			}
		}
	}
}

func TestPersistenceAwareBATDominatedByBaseline(t *testing.T) {
	ts := regulatedFig1()
	for _, arb := range Arbiters() {
		base, err := NewAnalyzer(ts, Config{Arbiter: arb})
		if err != nil {
			t.Fatal(err)
		}
		aware, err := NewAnalyzer(ts, Config{Arbiter: arb, Persistence: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, prio := range []int{0, 1, 2} {
			for w := taskmodel.Time(1); w <= 400; w += 7 {
				if h, b := aware.BAT(prio, w), base.BAT(prio, w); h > b {
					t.Fatalf("%v prio %d window %d: aware BAT %d > baseline %d", arb, prio, w, h, b)
				}
			}
		}
	}
}

// regulatedFig1 is the Fig. 1 fixture with regulation parameters
// added, so the Regulated arbiter can be analyzed on it (the paper's
// example carries none). The budget is small enough for the regCap
// clamp to bind inside the windows the tests probe.
func regulatedFig1() *taskmodel.TaskSet {
	ts := fixtures.Fig1TaskSet()
	ts.Platform.RegBudget, ts.Platform.RegPeriod = 2, 40
	return ts
}

// randomTaskSets yields generated task sets across utilizations for
// property tests.
func randomTaskSets(t *testing.T, count int, util float64) []*taskmodel.TaskSet {
	t.Helper()
	cfg := taskgen.DefaultConfig()
	cfg.Platform.NumCores = 2
	cfg.TasksPerCore = 4
	cfg.CoreUtilization = util
	pool, err := taskgen.PoolFromSuite(cfg.Platform.Cache)
	if err != nil {
		t.Fatal(err)
	}
	var out []*taskmodel.TaskSet
	for seed := int64(0); seed < int64(count); seed++ {
		ts, err := taskgen.Generate(cfg, pool, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ts)
	}
	return out
}

func TestPersistenceAwareDominatesBaseline(t *testing.T) {
	// Lemma 1/2 bounds are pointwise at most the baseline bounds, so
	// the persistence-aware analysis must dominate: every baseline-
	// schedulable set stays schedulable, with WCRTs no larger.
	for _, util := range []float64{0.2, 0.4, 0.6} {
		for _, ts := range randomTaskSets(t, 8, util) {
			for _, arb := range []Arbiter{FP, RR, TDMA} {
				base, err := Analyze(ts, Config{Arbiter: arb, Persistence: false})
				if err != nil {
					t.Fatal(err)
				}
				aware, err := Analyze(ts, Config{Arbiter: arb, Persistence: true})
				if err != nil {
					t.Fatal(err)
				}
				if base.Schedulable && !aware.Schedulable {
					t.Fatalf("%v u=%g: baseline schedulable but persistence-aware not", arb, util)
				}
				if base.Schedulable && aware.Schedulable {
					for i := range base.Tasks {
						if aware.Tasks[i].WCRT > base.Tasks[i].WCRT {
							t.Fatalf("%v u=%g task %s: aware WCRT %d > baseline %d",
								arb, util, base.Tasks[i].Name, aware.Tasks[i].WCRT, base.Tasks[i].WCRT)
						}
					}
				}
			}
		}
	}
}

func TestPerfectBusDominatesArbiters(t *testing.T) {
	for _, ts := range randomTaskSets(t, 10, 0.4) {
		if ts.BusUtilization() > 1 {
			continue
		}
		perfect, err := Analyze(ts, Config{Arbiter: Perfect, Persistence: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, arb := range []Arbiter{FP, RR, TDMA} {
			res, err := Analyze(ts, Config{Arbiter: arb, Persistence: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.Schedulable && !perfect.Schedulable {
				t.Fatalf("%v schedulable but perfect bus not", arb)
			}
			if res.Schedulable && perfect.Schedulable {
				for i := range res.Tasks {
					if perfect.Tasks[i].WCRT > res.Tasks[i].WCRT {
						t.Fatalf("%v task %s: perfect WCRT %d > %v WCRT %d",
							arb, res.Tasks[i].Name, perfect.Tasks[i].WCRT, arb, res.Tasks[i].WCRT)
					}
				}
			}
		}
	}
}

func TestWCRTAtLeastDemand(t *testing.T) {
	for _, ts := range randomTaskSets(t, 6, 0.3) {
		for _, arb := range []Arbiter{FP, RR, TDMA, Perfect} {
			res, err := Analyze(ts, Config{Arbiter: arb, Persistence: true})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Schedulable {
				continue
			}
			for i, tr := range res.Tasks {
				task := ts.Tasks[i]
				floor := task.PD + taskmodel.Time(task.MD)*ts.Platform.DMem
				if tr.WCRT < floor {
					t.Fatalf("%v task %s: WCRT %d below isolated demand %d", arb, tr.Name, tr.WCRT, floor)
				}
			}
		}
	}
}

func TestArbiterStrings(t *testing.T) {
	cases := map[Arbiter]string{FP: "FP", RR: "RR", TDMA: "TDMA", Perfect: "Perfect", Arbiter(9): "Arbiter(9)"}
	for arb, want := range cases {
		if got := arb.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", int(arb), got, want)
		}
	}
}

func TestMultisetCPRODominatesUnion(t *testing.T) {
	// The multiset CPRO bound is min(union, multiset): analyses using it
	// must dominate the plain union configuration.
	for _, ts := range randomTaskSets(t, 6, 0.4) {
		for _, arb := range []Arbiter{FP, RR} {
			union, err := Analyze(ts, Config{Arbiter: arb, Persistence: true, CPRO: persistence.Union})
			if err != nil {
				t.Fatal(err)
			}
			multi, err := Analyze(ts, Config{Arbiter: arb, Persistence: true, CPRO: persistence.MultisetUnion})
			if err != nil {
				t.Fatal(err)
			}
			if union.Schedulable && !multi.Schedulable {
				t.Fatalf("%v: union schedulable but multiset not", arb)
			}
			if union.Schedulable && multi.Schedulable {
				for i := range union.Tasks {
					if multi.Tasks[i].WCRT > union.Tasks[i].WCRT {
						t.Fatalf("%v task %s: multiset WCRT %d > union %d",
							arb, union.Tasks[i].Name, multi.Tasks[i].WCRT, union.Tasks[i].WCRT)
					}
				}
			}
		}
	}
}
