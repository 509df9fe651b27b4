package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// buscondBin is built once by TestMain for the tiny end-to-end runs.
var buscondBin string

func TestMain(m *testing.M) {
	// The cold-extraction measurement re-executes the running binary —
	// the test binary, under go test.
	if len(os.Args) > 1 && os.Args[1] == "pool-cold" {
		os.Exit(runPoolCold(os.Stdout, os.Stderr))
	}
	dir, err := os.MkdirTemp("", "perfbench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	buscondBin = filepath.Join(dir, "buscond")
	if out, err := exec.Command("go", "build", "-o", buscondBin, "repro/cmd/buscond").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building buscond: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6} // 1..10 shuffled
	for _, c := range []struct{ p, want float64 }{
		{0.01, 1}, {0.10, 1}, {0.11, 2}, {0.50, 5}, {0.51, 6}, {0.90, 9}, {0.99, 10}, {1, 10},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{42}, 0.99); got != 42 {
		t.Errorf("single sample p99 = %v, want 42", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples must be NaN, not a number that looks measured")
	}
	// 1000 samples: p99 is the 990th smallest, with ten samples beyond it.
	var big []float64
	for i := 1000; i >= 1; i-- {
		big = append(big, float64(i))
	}
	if got := percentile(big, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(1..4) = %v, want 2.5", got)
	}
}

func TestValidateDefs(t *testing.T) {
	if err := validateDefs(endToEnd, perLayer); err != nil {
		t.Fatalf("declared metrics: %v", err)
	}
	for _, c := range []struct {
		defs []metricDef
		want string
	}{
		{[]metricDef{{"_x", "s", "lower"}}, "metric name"},
		{[]metricDef{{"x y", "s", "lower"}}, "metric name"},
		{[]metricDef{{strings.Repeat("a", 65), "s", "lower"}}, "metric name"},
		{[]metricDef{{"a", "s", "lower"}, {"a", "ms", "lower"}}, "used twice"},
		{[]metricDef{{"a", "µs", "lower"}}, "unit"},
		{[]metricDef{{"a", "", "lower"}}, "unit"},
		{[]metricDef{{"a", strings.Repeat("s", 17), "lower"}}, "unit"},
		{[]metricDef{{"a", "s", "faster"}}, "better"},
	} {
		err := validateDefs(c.defs)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("validateDefs(%v) = %v, want an error about %q", c.defs, err, c.want)
		}
	}
	// The same name may not appear in both lists either.
	if err := validateDefs([]metricDef{{"a", "s", "lower"}}, []metricDef{{"a", "s", "lower"}}); err == nil {
		t.Error("a name shared by both lists must be rejected")
	}
	if _, err := buildMetrics([]metricDef{{"a", "s", "lower"}}, map[string]float64{}); err == nil {
		t.Error("an unmeasured metric must be an error")
	}
	if _, err := buildMetrics([]metricDef{{"a", "s", "lower"}}, map[string]float64{"a": math.NaN()}); err == nil {
		t.Error("a NaN metric must be an error")
	}
}

// benchmarkJSON is the repository-root declaration the driver reads.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestBenchmarkJSONMatchesSchema(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end metrics, the benchmark emits %d", len(bj.EndToEnd), len(endToEnd))
	}
	var setupBound, maxOther float64
	for i, m := range bj.EndToEnd {
		if d := endToEnd[i]; d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better {
			t.Errorf("end_to_end[%d] = %s %s %s, benchmark emits %s %s %s", i, m.Name, m.Unit, m.Better, d.Name, d.Unit, d.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		} else if m.Bound > maxOther {
			maxOther = m.Bound
		}
	}
	if setupBound <= maxOther {
		t.Errorf("setup_s bound %v must be the largest (others up to %v)", setupBound, maxOther)
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the benchmark emits %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		if m != perLayer[i] {
			t.Errorf("per_layer[%d] = %+v, benchmark emits %+v", i, m, perLayer[i])
		}
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("declared workload %q has no runner", w.Name)
		}
	}
}

// tinyScale keeps the end-to-end test to seconds.
var tinyScale = scale{repeatBases: 3, editBases: 3, setupRuns: 1, replay: 4, replayPasses: 1, setsPerPoint: 1, refChecks: 2}

// TestTinyRuns runs every workload at a tiny scale, untraced and
// traced, and checks the result line: correct, nothing failed, and
// every declared metric present with its unit.
func TestTinyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end runs")
	}
	for _, w := range sortedKeys(workloads) {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"-workload", w, "-seed", "3", "-seconds", "1", "-trace", trace,
					"-buscond", buscondBin, "-workdir", t.TempDir()}
				if code := run(context.Background(), args, tinyScale, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res resultLine
				dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&res); err != nil {
					t.Fatalf("last line is not a result: %v\n%s", err, stdout.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result %+v\n%s", res, stderr.String())
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics emitted, %d declared", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					if !ok {
						t.Errorf("metric %s missing", d.Name)
						continue
					}
					if m.Unit != d.Unit {
						t.Errorf("metric %s has unit %q, want %q", d.Name, m.Unit, d.Unit)
					}
					if trace == "0" && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, m.Value)
					}
					if trace == "1" && (d.Unit == "us" || d.Unit == "ms" || d.Unit == "s") && m.Value <= 0 {
						t.Errorf("per-layer time %s = %v: every workload must measure it", d.Name, m.Value)
					}
				}
				// Every metric is also printed by name with its unit.
				for _, d := range defs {
					if !strings.Contains(stdout.String(), d.Name) {
						t.Errorf("report does not print %s", d.Name)
					}
				}
			})
		}
	}
}

// TestInjectedMismatchIsAFailure corrupts served responses in each way
// the check must catch and counts the failures.
func TestInjectedMismatchIsAFailure(t *testing.T) {
	bases, err := makeBases(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bases {
		if b.want, err = expect(b.ts, b.cfgs); err != nil {
			t.Fatal(err)
		}
	}
	envelope := func(key string, results []byte) []byte {
		data, err := json.Marshal(map[string]any{"key": key, "cached": true, "results": json.RawMessage(results)})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	b := bases[1]
	v := b.nudgePD - 3
	fresh, err := expect(b.edited(v), b.cfgs)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), fresh.results...)
	// Bump the last digit of the first WCRT: still valid JSON, one bound off.
	end := bytes.Index(corrupt, []byte(`"WCRT":`)) + len(`"WCRT":`)
	for corrupt[end] >= '0' && corrupt[end] <= '9' {
		end++
	}
	corrupt[end-1] = '0' + (corrupt[end-1]-'0'+1)%10
	good := []served{
		{class: classDup, base: 0, status: http.StatusOK, resp: envelope(bases[0].want.key, bases[0].want.results)},
		{class: classFresh, base: 1, value: v, status: http.StatusOK, resp: envelope(fresh.key, fresh.results)},
		{class: classDelta, base: 1, value: v, status: http.StatusOK, retried: true, resp: envelope(fresh.key, fresh.results)},
	}
	if n := checkServed(good, bases, 2, &bytes.Buffer{}); n != 0 {
		t.Fatalf("%d failures among correct responses", n)
	}
	bad := []served{
		{class: classFresh, base: 1, value: v, status: http.StatusOK, resp: envelope(fresh.key, corrupt)},
		{class: classDelta, base: 1, value: v, status: http.StatusOK, resp: envelope(bases[1].want.key, fresh.results)},
		{class: classDup, base: 0, status: http.StatusOK, resp: envelope(bases[0].want.key, bases[1].want.results)},
		{class: classDup, base: 0, status: http.StatusTooManyRequests, resp: []byte(`{"error":"shed"}`)},
		{class: classDup, base: 0, status: 0},
		{class: classDup, base: 0, status: http.StatusOK, resp: []byte(`{"key":`)},
	}
	var report bytes.Buffer
	if n := checkServed(append(good, bad...), bases, 2, &report); n != int64(len(bad)) {
		t.Fatalf("check counted %d failures, want %d\n%s", n, len(bad), report.String())
	}

	// The sweep's reference check counts a corrupted engine result.
	req := core.BatchRequest{TS: b.ts, Cfgs: b.cfgs, Label: "probe"}
	res, err := core.AnalyzeAll(b.ts, b.cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if n := checkReference([]capturedReq{{req: req, res: res}}, 1, &bytes.Buffer{}); n != 0 {
		t.Fatalf("reference check failed a correct result %d times", n)
	}
	wrong := make([]*core.Result, len(res))
	for i, r := range res {
		c := *r
		c.Tasks = append([]core.TaskResult(nil), r.Tasks...)
		wrong[i] = &c
	}
	wrong[1].Tasks[0].WCRT++
	if n := checkReference([]capturedReq{{req: req, res: wrong}}, 1, &bytes.Buffer{}); n != 1 {
		t.Fatalf("reference check counted %d failures for a corrupted WCRT, want 1", n)
	}
}

func TestFreshBodySplice(t *testing.T) {
	bases, err := makeBases(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bases {
		v := b.nudgePD - 7
		want, err := analyzeBody(b.edited(v), b.cfgs)
		if err != nil {
			t.Fatal(err)
		}
		if got := b.freshBody(v); !bytes.Equal(got, want) {
			t.Fatalf("spliced fresh body differs from re-encoding the edited task set")
		}
	}
}

func TestWindowStatsUsesCleanSlices(t *testing.T) {
	var slices []slice
	var samples []served
	for k := 0; k < 12; k++ {
		sl := slice{start: time.Duration(k) * time.Second, end: time.Duration(k+1) * time.Second}
		n := 10
		switch k {
		case 3: // a burst of completions in one clean slice
			n = 100
		case 7, 8: // the hypervisor took the vCPUs away
			sl.steal, n = 0.3, 1
		}
		slices = append(slices, sl)
		for i := 0; i < n; i++ {
			samples = append(samples, served{status: http.StatusOK, done: sl.start + time.Millisecond})
		}
	}
	samples = append(samples,
		served{status: http.StatusInternalServerError, done: time.Second},
		served{status: http.StatusOK, done: 12 * time.Second}) // after the last slice
	rate, in, used := windowStats(samples, slices)
	if rate != 10 || len(used) != 10 {
		t.Errorf("rate %v over %d slices, want 10 over the 10 clean ones", rate, len(used))
	}
	if want := 9*10 + 100 + 1; len(in) != want {
		t.Errorf("%d requests in the clean slices, want %d", len(in), want)
	}
	// Fewer than minCleanParts clean slices: every slice counts.
	for i := range slices[minCleanParts-1:] {
		slices[minCleanParts-1+i].steal = 0.2
	}
	if _, _, used := windowStats(samples, slices); len(used) != len(slices) {
		t.Errorf("with %d clean slices %d of %d were used", minCleanParts-1, len(used), len(slices))
	}
	if !cleanEnough(30, 30, 30) || !cleanEnough(30, 22.5, 30) || cleanEnough(29, 29, 30) ||
		cleanEnough(35, 20, 30) || !cleanEnough(37.5, 0, 30) {
		t.Error("cleanEnough: the window must close at its length once 3/4 is clean, and at 1.25 times its length regardless")
	}
}

func TestCompareRefusesDifferentContexts(t *testing.T) {
	dir := t.TempDir()
	ctxA := runContext{GoVersion: "go1.24.0", GOMAXPROCS: 2, NumCPU: 2, Commit: "a", Seed: 1, Workload: "serve_edit", Seconds: 20}
	ctxB := ctxA
	ctxB.Commit, ctxB.Seed = "b", 2
	write := func(name string, c runContext, v float64) string {
		path := filepath.Join(dir, name)
		if err := appendRecord(path, record{Context: c, Correct: true, Attempted: 1, Values: map[string]float64{"p50_ms": v}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	old, nw := write("old.jsonl", ctxA, 2), write("new.jsonl", ctxB, 3)
	var out bytes.Buffer
	if err := runCompare([]string{old, nw}, &out); err != nil {
		t.Fatalf("same context, other commit and seed: %v", err)
	}
	if !strings.Contains(out.String(), "+50.00%") {
		t.Errorf("compare output lacks the change:\n%s", out.String())
	}
	ctxC := ctxA
	ctxC.GOMAXPROCS = 1
	if err := runCompare([]string{old, write("other.jsonl", ctxC, 3)}, &out); err == nil || !strings.Contains(err.Error(), "refusing") {
		t.Errorf("compare across GOMAXPROCS: err = %v, want a refusal", err)
	}
}
