package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// metricDef declares one reported metric. The two lists below are the
// benchmark's schema: BENCHMARK.json at the repository root must declare
// exactly the same names, units and directions (checked by
// TestBenchmarkJSONMatchesSchema), and every run emits every metric of
// its kind — end-to-end without tracing, per-layer with it.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics a user of the system sees. They are defined
// for every workload; what "one operation" is differs per workload and
// is documented in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"p99_ms", "ms", "lower"},
}

// perLayer are the traced run's metrics. Times are only used for layers
// every workload exercises (the replay and the suite extraction); the
// layers a workload does not touch report shares, ratios and counts of
// zero, never a zero time.
var perLayer = []metricDef{
	// Replay of the workload's own requests, one span per layer call.
	{"wire.envelope_us", "us", "lower"},
	{"taskmodel.read_json_us", "us", "lower"},
	{"taskmodel.validate_us", "us", "lower"},
	{"taskmodel.body_bytes", "bytes", "lower"},
	{"core.canonical_key_us", "us", "lower"},
	{"core.tables_us", "us", "lower"},
	{"core.run_us", "us", "lower"},
	{"trace.replay_us", "us", "lower"},
	{"trace.unattributed_share", "share", "lower"},
	{"trace.overhead_share", "share", "lower"},
	// Exact engine work counts over the fixed replay sequence.
	{"core.runs", "count", "lower"},
	{"core.task_analyses", "count", "lower"},
	{"core.outer_rounds", "count", "lower"},
	{"core.inner_iterations", "count", "lower"},
	{"core.breakpoint_jumps", "count", "lower"},
	{"core.cursor_rebuilds", "count", "lower"},
	{"core.curve_builds", "count", "lower"},
	{"core.curve_hits", "count", "higher"},
	{"core.aborts", "count", "lower"},
	{"core.schedulable_share", "share", "higher"},
	// Cold suite extraction in fresh processes.
	{"taskgen.pool_extract_ms", "ms", "lower"},
	// buscond's /metrics deltas over the timed window.
	{"server.cache_hit_ratio", "ratio", "higher"},
	{"server.cache_evictions", "count", "lower"},
	{"server.coalesced", "count", "higher"},
	{"server.shed", "count", "lower"},
	{"server.timeouts", "count", "lower"},
	{"server.delta_base_misses", "count", "lower"},
	{"server.stage_queue_share", "share", "lower"},
	{"server.stage_cache_share", "share", "lower"},
	{"server.stage_coalesce_share", "share", "lower"},
	{"server.stage_analyze_share", "share", "lower"},
	{"server.stage_marshal_share", "share", "lower"},
	{"server.unnamed_share", "share", "lower"},
	{"server.client_overhead_share", "share", "lower"},
	{"core.memo_hit_ratio", "ratio", "higher"},
	{"core.curve_memo_hit_ratio", "ratio", "higher"},
	{"core.memo_evictions", "count", "lower"},
	{"client.delta_retries", "count", "lower"},
	// The sweep's phases, split at the Options.Analyze hook.
	{"experiments.generate_share", "share", "lower"},
	{"experiments.analyze_share", "share", "lower"},
	{"experiments.fold_share", "share", "lower"},
	{"checkpoint.blocked_share", "share", "lower"},
	{"checkpoint.file_bytes", "bytes", "lower"},
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validateDefs checks metric names and units against the benchmark
// contract: names start with a letter or digit, are at most 64 of
// [A-Za-z0-9_.-] and unique across both lists; units are at most 16 of
// [A-Za-z0-9_/%.-]; the direction is "lower" or "higher".
func validateDefs(lists ...[]metricDef) error {
	seen := map[string]bool{}
	for _, list := range lists {
		for _, d := range list {
			if !nameRE.MatchString(d.Name) {
				return fmt.Errorf("metric name %q: want 1-64 of [A-Za-z0-9_.-] starting with a letter or digit", d.Name)
			}
			if seen[d.Name] {
				return fmt.Errorf("metric name %q used twice", d.Name)
			}
			seen[d.Name] = true
			if !unitRE.MatchString(d.Unit) {
				return fmt.Errorf("metric %s: unit %q: want 1-16 of [A-Za-z0-9_/%%.-]", d.Name, d.Unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				return fmt.Errorf("metric %s: better %q: want lower or higher", d.Name, d.Better)
			}
		}
	}
	return nil
}

// metricValue is one emitted metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the benchmark's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildMetrics selects the defs' values from a workload's measurements.
// A missing or non-finite value is an error: the result line must carry
// every declared metric as a JSON number.
func buildMetrics(defs []metricDef, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite (%v)", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of the
// raw samples: the smallest sample with at least p·n samples at or
// below it. No interpolation, so the value is always an observed one.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the middle sample, the mean of the two middle ones for an
// even count. Latency percentiles use percentile, which never
// interpolates.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is num/den, 0 when den is 0 (a layer the workload never used).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
