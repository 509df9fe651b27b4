package core

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/persistence"
	"repro/internal/taskmodel"
)

// Explainability: decompose a task's WCRT bound into the terms of
// Eq. (19) so an engineer can see where the bus time goes — which
// higher-priority task contributes how many accesses, how much CRPD
// and CPRO cost, and what each remote core injects.

// SameCoreTerm is one higher-priority task's contribution to BAS
// (Eq. 1 / Lemma 1) at the converged response time.
type SameCoreTerm struct {
	Task string
	// Jobs is E_j(R) = ⌈R/T_j⌉.
	Jobs int64
	// PlainDemand is the persistence-oblivious E_j·MD_j.
	PlainDemand int64
	// AwareDemand is min(E_j·MD_j, M̂D_j(E_j) + ρ̂_{j,i,x}(E_j)); equals
	// PlainDemand when the analysis runs without persistence.
	AwareDemand int64
	// CRPD is E_j·γ_{i,j,x}.
	CRPD int64
	// CPRO is ρ̂_{j,i,x}(E_j) (zero without persistence).
	CPRO int64
}

// RemoteCoreTerm is one remote core's aggregate BAO contribution.
type RemoteCoreTerm struct {
	Core int
	// Accesses is the BAO bound actually charged by the arbiter
	// formula (after the RR min-clamp, for example).
	Accesses int64
	// Raw is the unclamped BAO bound.
	Raw int64
}

// Explanation decomposes one task's converged WCRT bound.
type Explanation struct {
	Task     string
	Priority int
	Core     int
	// WCRT is the converged bound; Schedulable mirrors the verdict.
	WCRT        taskmodel.Time
	Schedulable bool

	// PD is the task's own execution demand; OwnMD its own accesses.
	PD    taskmodel.Time
	OwnMD int64
	// CorePreemption is Σ ⌈R/T_j⌉·PD_j, the processor-time interference.
	CorePreemption taskmodel.Time
	// SameCore breaks down BAS − MD_i.
	SameCore []SameCoreTerm
	// BAS is the full same-core access bound.
	BAS int64
	// Remote lists per-core BAO contributions (empty for Perfect/TDMA).
	Remote []RemoteCoreTerm
	// SlotWait is the TDMA slot-waiting term (m−1)·s·BAS of Eq. (9);
	// zero for the other arbiters. With it, the decomposition
	// BAS + SlotWait + Σ Remote.Accesses + Blocking equals BAT for
	// every arbiter.
	SlotWait int64
	// Blocking is the +1 term (and, for FP, the low-priority min term).
	Blocking int64
	// BAT is the total access bound; BusTime = BAT·d_mem.
	BAT     int64
	BusTime taskmodel.Time
}

// Explain runs the full analysis and decomposes the bound of the task
// with the given priority at its converged response time. The fast path
// supplies the estimates; the decomposition is evaluated by the
// reference at them, through the same arbiter combinator both
// evaluators use, so its parts add up to the BAT the analysis charged.
func Explain(ts *taskmodel.TaskSet, cfg Config, prio int) (*Explanation, error) {
	a, err := NewAnalyzer(ts, cfg)
	if err != nil {
		return nil, err
	}
	res := a.Run()
	ti := ts.ByPriority(prio)
	if ti == nil {
		return nil, fmt.Errorf("core: no task with priority %d", prio)
	}
	var tr *TaskResult
	for i := range res.Tasks {
		if res.Tasks[i].Priority == prio {
			tr = &res.Tasks[i]
		}
	}
	if tr == nil {
		return nil, fmt.Errorf("core: priority %d missing from result", prio)
	}
	ref := a.reference()
	r := a.R[prio]

	ex := &Explanation{
		Task:        ti.Name,
		Priority:    prio,
		Core:        ti.Core,
		WCRT:        r,
		Schedulable: tr.Schedulable && res.Complete,
		PD:          ti.PD,
		OwnMD:       ti.MD,
	}

	for _, tj := range ts.HP(prio, ti.Core) {
		ej := ceilDiv(int64(r), int64(tj.Period))
		g := ref.gamma(prio, tj.Priority, ti.Core)
		term := SameCoreTerm{
			Task:        tj.Name,
			Jobs:        ej,
			PlainDemand: ej * tj.MD,
			AwareDemand: ej * tj.MD,
			CRPD:        ej * g,
		}
		if cfg.Persistence {
			// Window-aware variants, matching what BAS charges at r so
			// the decomposition adds up under every CPRO approach.
			term.AwareDemand = persistence.PersistentDemandWindow(ts, cfg.CPRO, tj.Priority, prio, ti.Core, ej, r)
			term.CPRO = persistence.RhoHatWindow(ts, cfg.CPRO, tj.Priority, prio, ti.Core, ej, r)
		}
		ex.SameCore = append(ex.SameCore, term)
		ex.CorePreemption += taskmodel.Time(ej) * tj.PD
	}

	d := ref.terms(prio, r)
	if _, ok := cfg.Arbiter.demandLevel(prio, ts.LowestPriority()); ok {
		for y := range ref.charged {
			if y != ti.Core {
				ex.Remote = append(ex.Remote, RemoteCoreTerm{Core: y, Accesses: ref.charged[y], Raw: ref.raw[y]})
			}
		}
	}
	ex.BAS, ex.SlotWait, ex.Blocking = d.bas, d.slotWait, d.blocking
	ex.BAT = d.bat()
	ex.BusTime = taskmodel.Time(ex.BAT) * ts.Platform.DMem
	return ex, nil
}

// Render prints the explanation as a human-readable report.
func (e *Explanation) Render(w io.Writer) error {
	fmt.Fprintf(w, "task %s (priority %d, core %d)\n", e.Task, e.Priority, e.Core)
	verdict := "schedulable"
	if !e.Schedulable {
		verdict = "NOT schedulable (bound below is the last estimate)"
	}
	fmt.Fprintf(w, "  WCRT bound: %d  — %s\n", e.WCRT, verdict)
	fmt.Fprintf(w, "  own execution PD = %d, own accesses MD = %d\n", e.PD, e.OwnMD)
	fmt.Fprintf(w, "  processor preemption time: %d\n", e.CorePreemption)
	if len(e.SameCore) > 0 {
		fmt.Fprintln(w, "  same-core bus demand (Eq. 1 / Lemma 1):")
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "    task\tjobs\tplain\taware\tCRPD\tCPRO")
		for _, t := range e.SameCore {
			fmt.Fprintf(tw, "    %s\t%d\t%d\t%d\t%d\t%d\n",
				t.Task, t.Jobs, t.PlainDemand, t.AwareDemand, t.CRPD, t.CPRO)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "  BAS (same-core accesses incl. own): %d\n", e.BAS)
	for _, rc := range e.Remote {
		clamp := ""
		if rc.Accesses != rc.Raw {
			clamp = fmt.Sprintf(" (clamped from %d)", rc.Raw)
		}
		fmt.Fprintf(w, "  remote core %d: %d accesses%s\n", rc.Core, rc.Accesses, clamp)
	}
	if e.SlotWait > 0 {
		fmt.Fprintf(w, "  TDMA slot waiting: %d\n", e.SlotWait)
	}
	fmt.Fprintf(w, "  blocking term: %d\n", e.Blocking)
	fmt.Fprintf(w, "  BAT total accesses: %d  -> bus time %d\n", e.BAT, e.BusTime)
	return nil
}
