package core

import (
	"fmt"
	"math"

	"repro/internal/taskmodel"
)

// Arbiter selects the memory bus arbitration policy under analysis.
type Arbiter int

const (
	// FP is the work-conserving fixed-priority bus (Eq. 7): bus
	// requests inherit the priority of the issuing task.
	FP Arbiter = iota
	// RR is the work-conserving Round-Robin bus (Eq. 8) with s memory
	// access slots per core.
	RR
	// TDMA is the non-work-conserving time-division bus (Eq. 9) with a
	// cycle of NumCores×s slots.
	TDMA
	// Perfect is the idealized contention-free bus used as the upper
	// bound in Fig. 2: tasks still pay d_mem per own-core access, but
	// suffer no cross-core interference; the task set must additionally
	// keep total bus utilization at or below one.
	Perfect
	// Regulated is a MemGuard-style bandwidth-regulated bus (Agrawal et
	// al.): each core holds a budget of Q = RegBudget accesses
	// replenished every P = RegPeriod cycles, budgeted requests have
	// strict priority over out-of-budget ones, and unused bandwidth is
	// dynamically reclaimed round-robin (one access per grant). A window
	// of length t overlaps at most ⌈t/P⌉+1 replenishment periods, so a
	// remote core injects at most (⌈t/P⌉+1)·Q budgeted accesses plus, by
	// the slot-1 round robin of the reclaim class, one reclaimed access
	// per own access — min(BAO, regCap(t) + BAS) per remote core.
	Regulated
	// ParAware is the parallelism-aware per-access bound (Yun et al.):
	// with one outstanding request per core served oldest-class
	// round-robin one access at a time, each own access waits for at
	// most one in-flight request per other core — min(BAO, BAS) per
	// remote core, i.e. Eq. (8) with slot size pinned to 1.
	ParAware
)

// Arbiters returns every declared arbiter, in declaration order — the
// iteration domain of completeness tests and sweep grids.
func Arbiters() []Arbiter {
	return []Arbiter{FP, RR, TDMA, Perfect, Regulated, ParAware}
}

func (a Arbiter) String() string {
	switch a {
	case FP:
		return "FP"
	case RR:
		return "RR"
	case TDMA:
		return "TDMA"
	case Perfect:
		return "Perfect"
	case Regulated:
		return "Regulated"
	case ParAware:
		return "ParAware"
	default:
		return fmt.Sprintf("Arbiter(%d)", int(a))
	}
}

// The arbiter combinator.
//
// Every bus bound the engine knows has one shape: the task's own
// same-core accesses BAS, plus for each remote core its demand BAO_y
// capped by what the arbiter lets that core inject, plus the "+1"
// blocking term of Eq. (7)–(9) — "own accesses × per-access delay,
// capped by remote supply" in the terms of Yun et al. and Agrawal et
// al. The methods below are the only place the analysis tells arbiters
// apart. Both evaluators consume them: the reference (reference.go)
// feeds them recomputed terms, the fast path (curves.go) its cursor
// sums, and Explain and the convergence traces read the decomposition
// they return. Adding an arbiter means one case in each method here
// (plus a simulator policy and the wire names, see DESIGN.md §15).

// busTerms is one evaluation of BAT decomposed into the parts Explain
// reports: BAT = bas + remote + slotWait + blocking, where remote is
// the sum of the per-core charges the combinator wrote out.
type busTerms struct {
	bas, remote, slotWait, blocking int64
}

func (d busTerms) bat() int64 { return d.bas + d.remote + d.slotWait + d.blocking }

// demandLevel reports the analysis level at which the arbiter reads
// remote demand for a task at level own, where lowest is the
// lowest-priority level. Levels may be priority values or table
// indices — both order tasks the same way. FP reads its own level
// (Eq. 7 charges hep(i) on each remote core, and lp(i) as BAO_low for
// blocking); RR, Regulated and ParAware read the lowest level (Eq. 8
// charges every remote task; lp of the lowest level is empty, so their
// BAO_low is zero). TDMA and Perfect read no remote demand: ok is
// false.
func (arb Arbiter) demandLevel(own, lowest int) (level int, ok bool) {
	switch arb {
	case FP:
		return own, true
	case RR, Regulated, ParAware:
		return lowest, true
	default:
		return 0, false
	}
}

// capBreak returns the smallest window length above t at which the
// arbiter's own cap changes, independently of every task curve, or
// maxTime when the bound reads t only through the task terms. For the
// regulated bus, regCap steps at t = k·P+1.
func (arb Arbiter) capBreak(p *taskmodel.Platform, t taskmodel.Time) taskmodel.Time {
	if arb != Regulated {
		return maxTime
	}
	per := int64(p.RegPeriod)
	return taskmodel.Time(ceilDiv(int64(t), per)*per + 1)
}

// gatesBusUtil reports whether the verdict additionally requires the
// long-run bus utilization to stay at or below one (the perfect-bus
// reference of Fig. 2).
func (arb Arbiter) gatesBusUtil() bool { return arb == Perfect }

// regCapAt is the budgeted-access cap of the regulated bus: a window of
// length t overlaps at most ⌈t/P⌉+1 replenishment periods, each
// granting at most Q budgeted accesses per core.
func regCapAt(p *taskmodel.Platform, t taskmodel.Time) int64 {
	return (ceilDiv(int64(t), int64(p.RegPeriod)) + 1) * p.RegBudget
}

// stall composes BAT for a task on core at window t from its terms:
// bas is BAS (Eq. 1 / Lemma 1); raw[y] the unclamped BAO of core y,
// read at demandLevel (raw[core] is ignored); low the FP blocking
// demand Σ_y BAO_low; hasLP whether a lower-priority task shares the
// core (the "+1" term vanishes otherwise, see the remark below
// Eq. 12). charged[y] receives the accesses core y is charged — zero
// for the task's own core and for arbiters without remote demand.
func (arb Arbiter) stall(p *taskmodel.Platform, core int, t taskmodel.Time, bas int64, raw []int64, low int64, hasLP bool, charged []int64) busTerms {
	d := busTerms{bas: bas}
	if arb == Perfect {
		clear(charged)
		return d
	}
	if hasLP {
		d.blocking = 1
	}
	var supply int64
	switch arb {
	case FP:
		// Eq. (7): higher-priority remote demand in full; lower-priority
		// remote accesses block at most once per own access.
		supply = math.MaxInt64
		d.blocking += min64(bas, low)
	case RR:
		// Eq. (8): s remote slots per own access.
		supply = int64(p.SlotSize) * bas
	case Regulated:
		supply = regCapAt(p, t) + bas
	case ParAware:
		supply = bas
	case TDMA:
		// Eq. (9): every own access waits out the other cores' slots.
		clear(charged)
		d.slotWait = int64(p.NumCores-1) * int64(p.SlotSize) * bas
		return d
	default:
		panic(fmt.Sprintf("core: unknown arbiter %d", int(arb)))
	}
	for y := range charged {
		var v int64
		if y != core {
			v = min64(raw[y], supply)
		}
		charged[y] = v
		d.remote += v
	}
	return d
}
