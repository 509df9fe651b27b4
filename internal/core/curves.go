package core

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/persistence"
	"repro/internal/taskmodel"
	"repro/internal/telemetry"
)

// Event-driven fixed-point engine.
//
// Every interference term of Eq. (19) — the processor preemption sum,
// the same-core access bounds of Eq. (1)/Lemma 1 and the remote
// W + W_cout terms of Eq. (3)–(6)/Lemma 2 — is a right-continuous
// monotone step function of the window length t. Its value only
// changes at breakpoints: job-release multiples n·T_j of the
// interfering task, the d_mem-granular steps of the carry-out ramp,
// and (under the multiset CPRO bound) the release multiples of each
// evictor. Between breakpoints the whole recurrence right-hand side
// f(t) is constant.
//
// The engine represents each term as a breakpoint curve: the
// loop-invariant constants (termCurve, materialized lazily per
// (level, task, core) into the Tables and shared across every
// configuration with the same CRPD approach) plus a moving cursor
// holding the term's current value and the smallest t at which that
// value may change. Cursors only move forward — the fixed-point
// iterate is monotone non-decreasing — so one pass over the
// breakpoints in [seed, R] suffices. Evaluating f at a new iterate
// costs O(#crossed breakpoints) instead of O(#tasks); an iterate that
// crosses none is recognized in O(1) via the cached minimum
// next-breakpoint, in which case f(next) = f(r) = next and the
// iteration terminates immediately — the "breakpoint jump" that makes
// the recurrence converge in at most one evaluation per breakpoint
// region.
//
// Soundness of the skip: a cursor's next-breakpoint is always a lower
// bound on the true next change (it may fire early and recompute an
// unchanged value, never late), so a skipped re-evaluation provably
// returns the cached value. The iterate sequence is therefore exactly
// the naive chain r, f(r), f²(r), … of reference.go — including the
// deadline-abort value — which is what keeps the differential test
// bit-identical. See DESIGN.md ("Breakpoint-jumping fixed point").

const maxTime = taskmodel.Time(math.MaxInt64)

// termCurve is one interference curve's loop-invariant backbone entry:
// the interfering task's scalar parameters and its pair-table values
// at the curve's analysis level, copied by value. Everything the step
// function needs except the current iterate t and (for remote terms)
// the remote response-time estimate R_l, which the cursor captures at
// reset — task identity (index, priority) lives on the cursor too, so
// a backbone slice is a pure function of its content key and can be
// shared copy-free across analyses through the MemoStore. Fields not
// covered by the backbone's key are left zero: pd on remote backbones
// (no remote term of Eq. (3)–(6) reads it) and the CPRO fields
// (pcb/unionOverlap/evictors) on γ-depth backbones (read only with
// persistence enabled, which requests CPRO depth). d_mem and the slot
// size are read from the analyzer at evaluation time.
type termCurve struct {
	period taskmodel.Time
	pd     taskmodel.Time
	md     int64
	mdr    int64
	// gamma is γ_{i,j,core(j)} at the backbone's level.
	gamma int64
	// pcb caches |PCB_j| for the FullReload CPRO bound; unionOverlap
	// and evictors are the Eq. (14) CPRO terms. CPRO depth only.
	pcb          int64
	unionOverlap int64
	evictors     []persistence.EvictorTerm
}

// levelCurves materializes one analysis level's interference curves,
// mirroring the row's hp/hep/lp slices (same tasks, same order — the
// summation order of the reference's bas/bao/baoLow, kept identical
// so the engine reproduces its arithmetic exactly). Like the pair
// tables the build is lazy — per level, per core, per column: TDMA and Perfect
// never pay for remote curves, and persistence-oblivious
// configurations never pay for the CPRO fills. The slices are views
// into backbones that may be shared through the MemoStore and must
// not be mutated; per-level state here is only the bookkeeping flags.
type levelCurves struct {
	// same covers hp(i) on the task's own core: the processor
	// preemption term of Eq. (19) and the BAS term of Eq. (1)/Lemma 1.
	same []termCurve
	// remote[y]/low[y] cover hep(i)∩Γ_y and lp(i)∩Γ_y: the BAO and
	// BAO_low terms of Eq. (3)–(7), subsliced from one contiguous
	// per-core backbone at the level's priority cutoff.
	remote [][]termCurve
	low    [][]termCurve

	sameBuilt     bool
	samePersist   bool
	remoteBuilt   []bool
	remotePersist []bool
}

func (tb *Tables) levelCurves(ii int) *levelCurves {
	if tb.curves == nil {
		tb.curves = make([]levelCurves, len(tb.tasks))
	}
	lc := &tb.curves[ii]
	if lc.remoteBuilt == nil {
		m := tb.ts.Platform.NumCores
		hdr := make([][]termCurve, 2*m)
		lc.remote, lc.low = hdr[:m:m], hdr[m:]
		flags := make([]bool, 2*m)
		lc.remoteBuilt, lc.remotePersist = flags[:m:m], flags[m:]
	}
	return lc
}

// buildSameBackbone materializes level ii's same-core backbone at the
// requested depth: one termCurve per hp task, in hp order. The shared
// body of the local build and the memoized compute, so store-served
// and per-analysis backbones are bit-identical; counted as a genuine
// cold build (CtrCurveBuilds).
func (tb *Tables) buildSameBackbone(ii int, persist bool, obs *telemetry.Observer) []termCurve {
	if obs != nil {
		obs.Add(telemetry.CtrCurveBuilds, 1)
		if obs.Tracing() {
			defer obs.Span("curves level "+strconv.Itoa(ii)+" same", "curves").End()
		}
	}
	r := tb.row(ii)
	tb.ensurePairs(ii, r)
	core := tb.tasks[ii].Core
	if tb.memo != nil {
		tb.memoFillGamma(ii, r, core, obs)
		if persist {
			tb.memoFillPersist(ii, r, core, false, obs)
		}
	}
	terms := make([]termCurve, len(r.hp))
	for k, ref := range r.hp {
		p := tb.pair(ii, r, ref.idx)
		if persist {
			p = tb.pairPersist(ii, r, ref.idx)
		}
		tc := &terms[k]
		tc.period, tc.pd = ref.t.Period, ref.t.PD
		tc.md, tc.mdr = ref.t.MD, ref.t.MDr
		tc.gamma = p.gamma
		if persist {
			tc.pcb = tb.pcb[ref.idx]
			tc.unionOverlap = p.unionOverlap
			tc.evictors = p.evictors
		}
	}
	return terms
}

// buildRemoteBackbone materializes core y's backbone at level ii:
// hep(ii)∩Γ_y followed by lp(ii)∩Γ_y, contiguous in byCore order. pd
// stays zero — no remote term reads it, and the backbone's content key
// (remoteDig) deliberately omits it so PD edits keep remote backbones.
func (tb *Tables) buildRemoteBackbone(ii, y int, persist bool, obs *telemetry.Observer) []termCurve {
	if obs != nil {
		obs.Add(telemetry.CtrCurveBuilds, 1)
		if obs.Tracing() {
			defer obs.Span("curves level "+strconv.Itoa(ii)+" core "+strconv.Itoa(y), "curves").End()
		}
	}
	r := tb.row(ii)
	tb.ensurePairs(ii, r)
	if tb.memo != nil {
		tb.memoFillGamma(ii, r, y, obs)
		if persist {
			tb.memoFillPersist(ii, r, y, true, obs)
		}
	}
	terms := make([]termCurve, 0, len(tb.byCore[y]))
	fill := func(refs []taskRef) {
		for _, ref := range refs {
			p := tb.pair(ii, r, ref.idx)
			if persist {
				p = tb.pairPersist(ii, r, ref.idx)
			}
			tc := termCurve{
				period: ref.t.Period,
				md:     ref.t.MD, mdr: ref.t.MDr,
				gamma: p.gamma,
			}
			if persist {
				tc.pcb = tb.pcb[ref.idx]
				tc.unionOverlap = p.unionOverlap
				tc.evictors = p.evictors
			}
			terms = append(terms, tc)
		}
	}
	fill(r.hep[y])
	fill(r.lp[y])
	return terms
}

// curveSame returns level ii's same-core curves, materialized on first
// use — from the shared store when one is attached (keyed by content,
// so any analysis whose hp prefix matches reuses the backbone
// copy-free), locally otherwise. A curve already materialized at
// sufficient depth is a warm intra-Tables hit (CtrCurveHits); a persist
// request against a γ-depth curve re-materializes at CPRO depth under
// its own key, and cursors still holding the γ-depth slice stay valid —
// published backbones are immutable.
func (tb *Tables) curveSame(ii int, persist bool, obs *telemetry.Observer) []termCurve {
	lc := tb.levelCurves(ii)
	if lc.sameBuilt && (!persist || lc.samePersist) {
		if obs != nil {
			obs.Add(telemetry.CtrCurveHits, 1)
		}
		return lc.same
	}
	core := tb.tasks[ii].Core
	// k−1 = |hp|: priorities are unique, so the own-core hep prefix
	// contains exactly the hp tasks plus the level itself.
	if k := tb.hepCount(ii, core); tb.memo != nil && k > 1 {
		key := tb.curveKey(core, k, sameCurveFlavor(persist))
		lc.same = tb.memo.getOrComputeCurve(key, obs, func() []termCurve {
			return tb.buildSameBackbone(ii, persist, obs)
		})
	} else {
		lc.same = tb.buildSameBackbone(ii, persist, obs)
	}
	lc.sameBuilt = true
	lc.samePersist = persist
	return lc.same
}

// curveRemote returns level ii's hep and lp curves on core y,
// materialized on first use like curveSame; both views subslice one
// contiguous backbone at the level's priority cutoff.
func (tb *Tables) curveRemote(ii, y int, persist bool, obs *telemetry.Observer) (remote, low []termCurve) {
	lc := tb.levelCurves(ii)
	if lc.remoteBuilt[y] && (!persist || lc.remotePersist[y]) {
		if obs != nil {
			obs.Add(telemetry.CtrCurveHits, 1)
		}
		return lc.remote[y], lc.low[y]
	}
	k := tb.hepCount(ii, y)
	var terms []termCurve
	if tb.memo != nil && len(tb.byCore[y]) > 0 {
		key := tb.curveKey(y, k, remoteCurveFlavor(tb.gammaFlavor(ii, y), persist))
		terms = tb.memo.getOrComputeCurve(key, obs, func() []termCurve {
			return tb.buildRemoteBackbone(ii, y, persist, obs)
		})
	} else {
		terms = tb.buildRemoteBackbone(ii, y, persist, obs)
	}
	lc.remote[y] = terms[:k:k]
	lc.low[y] = terms[k:]
	lc.remoteBuilt[y] = true
	lc.remotePersist[y] = persist
	return lc.remote[y], lc.low[y]
}

// sameCursor tracks one same-core task's pair of step functions: the
// processor preemption term ⌈t/T_j⌉·PD_j and the BAS access term.
// Both share the release breakpoints of τ_j, so one cursor serves
// both.
type sameCursor struct {
	tc      *termCurve
	procVal taskmodel.Time
	basVal  int64
	// next is the smallest t at which either value may change.
	next taskmodel.Time
}

// remoteCursor tracks one remote task's W + W_cout step function at
// the cursor's analysis level.
type remoteCursor struct {
	tc *termCurve
	// c is R_l − (MD_l+γ)·d_mem, the response-time-dependent offset of
	// Eq. (6), fixed for the duration of one inner fixed point.
	c    int64
	val  int64
	next taskmodel.Time
	// core indexes the per-core BAO sum the value feeds; low selects the
	// BAO_low total (FP blocking) instead.
	core int32
	low  bool
	// idx/prio identify the interfering task for fpRemote — kept on the
	// cursor because shared backbones carry no task identity.
	idx  int32
	prio int32
}

// fpState is one analyzed task's cursor state, kept per level for the
// analyzer's lifetime. Because the outer loop is monotone — each
// re-analysis of a task resumes from its own previous fixed point, and
// remote estimates only grow — the cursors stay valid across
// ResponseTime calls: a re-analysis triggered by a changed remote
// estimate re-evaluates only the remote terms whose R_l actually moved
// (the markDependents invariant made concrete). All slices are reused,
// so the inner fixed point allocates nothing once the analyzer is warm
// (pinned by the allocs regression test).
type fpState struct {
	same   []sameCursor
	remote []remoteCursor
	baoSum []int64
	// charged receives the per-core remote charges of the latest fpBAT
	// call (the combinator's output), read by dominantTerm.
	charged []int64
	procSum taskmodel.Time
	basSum  int64
	// lowSum is Σ_y BAO_low, the FP blocking demand; only its total is
	// ever charged.
	lowSum int64
	// minNext is the smallest next-breakpoint over all cursors: below
	// it, every term — and hence f — is provably constant.
	minNext taskmodel.Time
	// at is the iterate the cursor values are currently valid at; a
	// reset whose seed equals at reuses them wholesale.
	at    taskmodel.Time
	valid bool
}

// persistentDemandCurve is persistence.PersistentDemandWindow (Eq. 10
// + Eq. 14, clamped by the oblivious bound) evaluated from curve
// constants: the same arithmetic, term for term, so the fast path and
// the reference produce bit-identical values.
func (a *Analyzer) persistentDemandCurve(tc *termCurve, n int64, t taskmodel.Time) int64 {
	if n <= 0 {
		return 0
	}
	plain := n * tc.md
	mdhat := n*tc.mdr + tc.pcb
	if plain < mdhat {
		mdhat = plain
	}
	aware := mdhat + a.rhoCurve(tc, n, t)
	if aware < plain {
		return aware
	}
	return plain
}

// rhoCurve is persistence.RhoHatWindow (Eq. 14 and its variants) from
// curve constants.
func (a *Analyzer) rhoCurve(tc *termCurve, n int64, t taskmodel.Time) int64 {
	if n <= 1 {
		return 0
	}
	switch a.Cfg.CPRO {
	case persistence.Union:
		return (n - 1) * tc.unionOverlap
	case persistence.MultisetUnion:
		union := (n - 1) * tc.unionOverlap
		var multi int64
		for _, ev := range tc.evictors {
			// Jobs of the evictor in the window, +1 for a carry-in job.
			jobs := int64(t)/int64(ev.Period) + 2
			if jobs > n-1 {
				jobs = n - 1
			}
			multi += jobs * ev.Overlap
		}
		return min64(multi, union)
	case persistence.FullReload:
		return (n - 1) * tc.pcb
	case persistence.None:
		return 0
	default:
		panic(fmt.Sprintf("core: unknown CPRO approach %d", int(a.Cfg.CPRO)))
	}
}

// evictorBreak returns the smallest evictor-release multiple above t,
// the only t-dependence of the multiset CPRO bound. Other CPRO
// approaches depend on t solely through the job count n, whose steps
// the callers account for separately.
func (a *Analyzer) evictorBreak(tc *termCurve, t, next taskmodel.Time) taskmodel.Time {
	if !a.Cfg.Persistence || a.Cfg.CPRO != persistence.MultisetUnion {
		return next
	}
	for _, ev := range tc.evictors {
		if bp := (int64(t)/int64(ev.Period) + 1) * int64(ev.Period); bp < next {
			next = bp
		}
	}
	return next
}

// sameEval evaluates one same-core curve at t: the processor term, the
// BAS term (matching the reference's bas exactly) and the next
// breakpoint.
func (a *Analyzer) sameEval(tc *termCurve, t taskmodel.Time) (procVal taskmodel.Time, basVal int64, next taskmodel.Time) {
	e := ceilDiv(int64(t), int64(tc.period))
	procVal = taskmodel.Time(e) * tc.pd
	if a.Cfg.Persistence {
		basVal = a.persistentDemandCurve(tc, e, t) + e*tc.gamma
	} else {
		basVal = e*tc.md + e*tc.gamma
	}
	// ⌈t/T⌉ holds its value up to and including e·T; it steps at
	// e·T + 1 (times are integral).
	next = e*int64(tc.period) + 1
	next = a.evictorBreak(tc, t, next)
	if next <= t {
		next = t + 1 // defensive: cursors must always move forward
	}
	return procVal, basVal, next
}

// remoteEval evaluates one remote curve at t, matching the reference's
// contrib exactly: the n(t) job count of Eq. (6), the W demand term and
// the carry-out ramp W_cout of Eq. (5), plus the next breakpoint (job
// release, d_mem ramp step, or evictor release).
func (a *Analyzer) remoteEval(tc *termCurve, c int64, t taskmodel.Time) (val int64, next taskmodel.Time) {
	dmem := int64(a.TS.Platform.DMem)
	period := int64(tc.period)
	num := int64(t) + c
	n := floorDiv(num, period)
	if n < 0 {
		n = 0
	}
	var w int64
	if a.Cfg.Persistence {
		w = a.persistentDemandCurve(tc, n, t) + n*tc.gamma
	} else {
		w = n * (tc.md + tc.gamma)
	}
	wcCap := tc.md + tc.gamma
	rem := num - n*period
	wcRaw := ceilDiv(rem, dmem)
	wc := wcRaw
	if wc < 0 {
		wc = 0
	} else if wc > wcCap {
		wc = wcCap
	}
	val = w + wc

	// Next job-release step of the (clamped) n.
	next = taskmodel.Time((n+1)*period - c)
	// Next carry-out ramp step, unless the ramp is saturated: the
	// ceiling over rem advances at rem = wcRaw·d_mem + 1, or first
	// turns positive at rem = 1.
	if wcRaw < wcCap {
		remNext := int64(1)
		if wcRaw > 0 {
			remNext = wcRaw*dmem + 1
		}
		if bp := t + taskmodel.Time(remNext-rem); bp < next {
			next = bp
		}
	}
	next = a.evictorBreak(tc, t, next)
	if next <= t {
		next = t + 1
	}
	return val, next
}

// fpRemote reads the current remote estimate feeding one remote
// cursor: the dense mirror while Run is live, the public map otherwise.
func (a *Analyzer) fpRemote(cur *remoteCursor) taskmodel.Time {
	if a.rdLive {
		return a.rd[cur.idx]
	}
	return a.R[int(cur.prio)]
}

// fpReset prepares the cursors for the priority-level row ii at the
// starting iterate r, setting a.fp to the level's persistent state.
// Remote curves are read at the level the arbiter's demandLevel names
// (its own level for FP, the lowest one for RR, Regulated and
// ParAware); TDMA and Perfect need none.
//
// When the level was analyzed before and the seed equals the iterate
// its cursors stopped at — the steady state of the outer loop, whose
// seeds resume from the task's own previous fixed point — the cursors
// are reused: only remote terms whose R_l offset moved are
// re-evaluated. Their values are pure functions of (c, t), so the
// refreshed state is identical to a full rebuild.
func (a *Analyzer) fpReset(ii int, core int, r taskmodel.Time) {
	if a.fps == nil {
		a.fps = make([]fpState, len(a.tab.tasks))
	}
	s := &a.fps[ii]
	a.fp = s
	dmem := int64(a.TS.Platform.DMem)
	if s.valid && s.at == r {
		var refreshed int64
		changed := false
		for k := range s.remote {
			cur := &s.remote[k]
			tc := cur.tc
			c := int64(a.fpRemote(cur)) - (tc.md+tc.gamma)*dmem
			if c == cur.c {
				continue
			}
			val, next := a.remoteEval(tc, c, r)
			if cur.low {
				s.lowSum += val - cur.val
			} else {
				s.baoSum[cur.core] += val - cur.val
			}
			cur.c, cur.val, cur.next = c, val, next
			refreshed++
			changed = true
		}
		if a.obs != nil {
			a.obs.Add(telemetry.CtrCursorResumes, 1)
			a.obs.Add(telemetry.CtrCursorRemoteRefreshes, refreshed)
		}
		if changed {
			minNext := maxTime
			for k := range s.same {
				if s.same[k].next < minNext {
					minNext = s.same[k].next
				}
			}
			for k := range s.remote {
				if s.remote[k].next < minNext {
					minNext = s.remote[k].next
				}
			}
			s.minNext = minNext
			a.clampArbiterBreak(s, r)
		}
		return
	}

	if a.obs != nil {
		a.obs.Add(telemetry.CtrCursorRebuilds, 1)
	}
	persist := a.Cfg.Persistence
	s.procSum, s.basSum = 0, 0
	s.minNext = maxTime
	s.at = r
	s.valid = true

	same := a.tab.curveSame(ii, persist, a.obs)
	if cap(s.same) < len(same) {
		s.same = make([]sameCursor, 0, len(same))
	}
	s.same = s.same[:0]
	for k := range same {
		tc := &same[k]
		procVal, basVal, next := a.sameEval(tc, r)
		s.procSum += procVal
		s.basSum += basVal
		if next < s.minNext {
			s.minNext = next
		}
		s.same = append(s.same, sameCursor{tc: tc, procVal: procVal, basVal: basVal, next: next})
	}

	m := a.TS.Platform.NumCores
	if cap(s.baoSum) < m {
		s.baoSum = make([]int64, m)
		s.charged = make([]int64, m)
	}
	s.baoSum = s.baoSum[:m]
	s.charged = s.charged[:m]
	clear(s.baoSum)
	s.lowSum = 0
	s.remote = s.remote[:0]
	a.clampArbiterBreak(s, r)
	// Table levels are priority-ascending, so the last is the lowest.
	level, ok := a.Cfg.Arbiter.demandLevel(ii, len(a.tab.tasks)-1)
	if !ok {
		return
	}
	if cap(s.remote) < len(a.tab.tasks) {
		s.remote = make([]remoteCursor, 0, len(a.tab.tasks))
	}

	// idxs aligns with the backbone terms: hep(level)∩Γ_y is a prefix of
	// byCore[y] and lp(level)∩Γ_y the matching suffix, so the tables'
	// per-core index column supplies the task identity a shared backbone
	// cannot carry.
	addRemote := func(terms []termCurve, idxs []int32, y int, low bool) {
		for k := range terms {
			tc := &terms[k]
			jj := idxs[k]
			cur := remoteCursor{tc: tc, core: int32(y), low: low,
				idx: jj, prio: int32(a.tab.tasks[jj].Priority)}
			cur.c = int64(a.fpRemote(&cur)) - (tc.md+tc.gamma)*dmem
			val, next := a.remoteEval(tc, cur.c, r)
			cur.val, cur.next = val, next
			if low {
				s.lowSum += val
			} else {
				s.baoSum[y] += val
			}
			if next < s.minNext {
				s.minNext = next
			}
			s.remote = append(s.remote, cur)
		}
	}
	for y := 0; y < m; y++ {
		if y == core {
			continue
		}
		// The lp curves are empty at the lowest level, so only FP gets
		// BAO_low cursors.
		remote, low := a.tab.curveRemote(level, y, persist, a.obs)
		idxs := a.tab.coreIdx[y]
		addRemote(remote, idxs[:len(remote)], y, false)
		addRemote(low, idxs[len(remote):], y, true)
	}
}

// clampArbiterBreak folds the arbiter's own breakpoint (capBreak: the
// regulated bus's budget cap steps at t = k·P+1 independently of every
// task curve) into the cursor minimum, so the breakpoint jump does not
// skip across one — the jump's premise is that f is constant on
// (r, next], and f also reads the cap. The clamp may fire early
// (recomputing an unchanged f), never late, preserving the naive
// iterate chain.
func (a *Analyzer) clampArbiterBreak(s *fpState, t taskmodel.Time) {
	if bp := a.Cfg.Arbiter.capBreak(&a.TS.Platform, t); bp < s.minNext {
		s.minNext = bp
	}
}

// fpAdvance moves every cursor whose breakpoint was crossed forward to
// t, updating the running sums in place. Cursors not yet at their
// breakpoint keep their value — that is the entire saving.
func (a *Analyzer) fpAdvance(t taskmodel.Time) {
	s := a.fp
	s.at = t
	if t < s.minNext {
		return
	}
	var snaps int64
	minNext := maxTime
	for k := range s.same {
		cur := &s.same[k]
		if cur.next <= t {
			procVal, basVal, next := a.sameEval(cur.tc, t)
			s.procSum += procVal - cur.procVal
			s.basSum += basVal - cur.basVal
			cur.procVal, cur.basVal, cur.next = procVal, basVal, next
			snaps++
		}
		if cur.next < minNext {
			minNext = cur.next
		}
	}
	for k := range s.remote {
		cur := &s.remote[k]
		if cur.next <= t {
			val, next := a.remoteEval(cur.tc, cur.c, t)
			if cur.low {
				s.lowSum += val - cur.val
			} else {
				s.baoSum[cur.core] += val - cur.val
			}
			cur.val, cur.next = val, next
			snaps++
		}
		if cur.next < minNext {
			minNext = cur.next
		}
	}
	s.minNext = minNext
	a.clampArbiterBreak(s, t)
	if a.obs != nil {
		a.obs.Add(telemetry.CtrBreakpointSnaps, snaps)
	}
}

// fpBAT feeds the cursor sums to the arbiter combinator: BAS is the
// task's own MD plus the same-core sum, the per-core BAO sums are the
// raw remote demand and the BAO_low total the FP blocking demand. s.at
// is the iterate the sums are valid at — responseTime keeps it equal to
// the current iterate r at every call — so a window-dependent cap
// (Regulated) is evaluated at exactly the t the reference uses.
func (a *Analyzer) fpBAT(md int64, core int, hasLP bool) busTerms {
	s := a.fp
	return a.Cfg.Arbiter.stall(&a.TS.Platform, core, s.at, md+s.basSum, s.baoSum, s.lowSum, hasLP, s.charged)
}
