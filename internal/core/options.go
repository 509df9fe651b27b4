package core

import (
	"repro/internal/taskmodel"
	"repro/internal/telemetry"
)

// Options carries cross-cutting knobs orthogonal to the analysis
// variant selected by Config. The zero value reproduces the plain
// entry points exactly.
type Options struct {
	// Observer receives analyzer telemetry: counters and histograms
	// for the fixed-point hot path, per-task analysis spans, and
	// convergence traces (see internal/telemetry). nil — the default —
	// keeps the hot path uninstrumented; the inner loop stays
	// allocation-free (pinned by TestResponseTimeZeroAlloc).
	Observer *telemetry.Observer
	// Memo, when non-nil, is a shared content-addressed store
	// (memo.go) working at two grains: the interference tables fill
	// their columns from it, and the breakpoint-curve backbones built
	// from those columns are shared through it too — so near-duplicate
	// task sets analyzed against the same store recompute only what
	// their differences invalidate, down to reusing whole materialized
	// curves copy-free. The store is safe for concurrent use across
	// analyses. nil — the default — computes everything locally,
	// exactly as before.
	Memo *MemoStore
}

// SetObserver attaches (or, with nil, detaches) a telemetry observer.
// Not safe to call while Run is executing.
func (a *Analyzer) SetObserver(obs *telemetry.Observer) { a.obs = obs }

// AnalyzeOpts is Analyze with options.
func AnalyzeOpts(ts *taskmodel.TaskSet, cfg Config, opts Options) (*Result, error) {
	// Checked here as well so a bad config reports NewAnalyzer's error,
	// without analyzeAllObs's "config 0:" prefix.
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.ValidateFor(ts.Platform); err != nil {
		return nil, err
	}
	out, err := analyzeAllObs(ts, []Config{cfg}, opts.Observer, opts.Memo)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// AnalyzeAllOpts is AnalyzeAll with options.
func AnalyzeAllOpts(ts *taskmodel.TaskSet, cfgs []Config, opts Options) ([]*Result, error) {
	return analyzeAllObs(ts, cfgs, opts.Observer, opts.Memo)
}

// label is the variant name used in spans and logs, matching the
// series names of internal/experiments ("FP", "RR-CP", ...).
func (c Config) label() string {
	s := c.Arbiter.String()
	if c.Persistence {
		s += "-CP"
	}
	return s
}
