package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/crpd"
	"repro/internal/taskmodel"
	"repro/internal/telemetry"
)

// The traced run replays a fixed, seeded sequence of the workload's own
// requests through the public function of each layer a served request
// passes — envelope decode, taskmodel.ReadJSON, Validate, CanonicalKey,
// PrecomputeTables, NewAnalyzerWithTables+Run — recording one span per
// call. Spans come from this file only; none sits inside the program.
// They are kept in memory keyed by request ID and written out when the
// replay ends.

// Layer span names, in call order.
const (
	spanEnvelope = "wire.envelope"
	spanReadJSON = "taskmodel.read_json"
	spanValidate = "taskmodel.validate"
	spanKey      = "core.canonical_key"
	spanTables   = "core.tables"
	spanRun      = "core.run"
	spanRequest  = "request"
)

var layerSpans = []string{spanEnvelope, spanReadJSON, spanValidate, spanKey, spanTables, spanRun}

// replayReq is one request of the replay sequence: a full /v1/analyze
// body, or a delta body with the base it edits.
type replayReq struct {
	id    string
	body  []byte
	delta []byte
	base  *base
	want  *expected // direct answer to check the replay against; nil: compute
}

// span is one recorded layer call. Times are offsets from the start of
// the replay pass.
type span struct {
	ID     string        `json:"id"`
	Name   string        `json:"name"`
	Parent string        `json:"parent,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

type recorder struct {
	t0    time.Time
	spans []span
}

func (r *recorder) add(id, name string, start time.Time) time.Time {
	now := time.Now()
	if r != nil {
		parent := spanRequest
		if name == spanRequest {
			parent = ""
		}
		r.spans = append(r.spans, span{ID: id, Name: name, Parent: parent, Start: start.Sub(r.t0), End: now.Sub(r.t0)})
	}
	return now
}

// wireEnvelope mirrors the request bodies' JSON schema.
type wireEnvelope struct {
	TaskSet json.RawMessage `json:"taskset"`
	Configs []struct {
		Arbiter     string `json:"arbiter"`
		Persistence bool   `json:"persistence"`
	} `json:"configs"`
}

type wireDelta struct {
	BaseKey string `json:"base_key"`
	Edits   []struct {
		Priority int    `json:"priority"`
		Field    string `json:"field"`
		Value    int64  `json:"value"`
	} `json:"edits"`
}

var arbiterByWire = func() map[string]core.Arbiter {
	m := map[string]core.Arbiter{}
	for _, a := range core.Arbiters() {
		m[strings.ToLower(a.String())] = a
	}
	return m
}()

// replayOne runs one request through every layer. rec and obs are nil
// on untraced passes.
func replayOne(q *replayReq, rec *recorder, obs *telemetry.Observer) ([]*core.Result, *taskmodel.TaskSet, []core.Config, error) {
	start := time.Now()
	t := start
	var ts *taskmodel.TaskSet
	var cfgs []core.Config
	if q.body != nil {
		var env wireEnvelope
		if err := json.Unmarshal(q.body, &env); err != nil {
			return nil, nil, nil, err
		}
		for _, c := range env.Configs {
			arb, ok := arbiterByWire[c.Arbiter]
			if !ok {
				return nil, nil, nil, fmt.Errorf("unknown arbiter %q", c.Arbiter)
			}
			cfgs = append(cfgs, core.DefaultConfig(arb, c.Persistence))
		}
		t = rec.add(q.id, spanEnvelope, t)
		var err error
		if ts, err = taskmodel.ReadJSON(bytes.NewReader(env.TaskSet)); err != nil {
			return nil, nil, nil, err
		}
		t = rec.add(q.id, spanReadJSON, t)
	} else {
		var d wireDelta
		if err := json.Unmarshal(q.delta, &d); err != nil {
			return nil, nil, nil, err
		}
		if len(d.Edits) != 1 || d.Edits[0].Field != "pd" || d.Edits[0].Priority != q.base.nudgePrio {
			return nil, nil, nil, fmt.Errorf("unexpected delta edit %+v", d.Edits)
		}
		t = rec.add(q.id, spanEnvelope, t)
		// Applying the edit is glue, not a layer of its own: it lands in
		// trace.unattributed_share.
		ts, cfgs = q.base.edited(d.Edits[0].Value), q.base.cfgs
		t = time.Now()
	}
	if err := ts.Validate(); err != nil {
		return nil, nil, nil, err
	}
	t = rec.add(q.id, spanValidate, t)
	_ = core.CanonicalKey(ts, cfgs)
	t = rec.add(q.id, spanKey, t)
	tbl := core.PrecomputeTables(ts, crpd.ECBUnion)
	t = rec.add(q.id, spanTables, t)
	res := make([]*core.Result, len(cfgs))
	// Persistence-aware configurations first, as core.AnalyzeAll orders
	// them, so both share the same table fill order.
	for _, persist := range []bool{true, false} {
		for i, cfg := range cfgs {
			if cfg.Persistence != persist {
				continue
			}
			if cfg.CRPD != crpd.ECBUnion {
				return nil, nil, nil, fmt.Errorf("replay covers the default CRPD approach only")
			}
			a, err := core.NewAnalyzerWithTables(ts, cfg, tbl)
			if err != nil {
				return nil, nil, nil, err
			}
			a.SetObserver(obs)
			res[i] = a.Run()
		}
	}
	rec.add(q.id, spanRun, t)
	rec.add(q.id, spanRequest, start)
	return res, ts, cfgs, nil
}

// replayStats are the traced run's layer figures.
type replayStats struct {
	layerUS      map[string]float64 // mean span length per request that made the call
	replayUS     float64            // mean request total
	unattributed float64            // share of request totals no layer span covers
	overhead     float64            // 1 - traced rate / untraced rate
	bodyBytes    float64            // mean full-body size
	counters     map[string]int64   // engine work over the first traced pass
	schedShare   float64
	failed       int64 // replayed results that differ from the direct answer
}

// replay makes `passes` untraced and `passes` traced passes over the
// sequence, alternating, and derives the per-layer figures from the
// traced ones. The spans of the first traced pass are written to
// spanPath.
func replay(reqs []*replayReq, passes int, spanPath string, report io.Writer) (replayStats, error) {
	st := replayStats{layerUS: map[string]float64{}}
	var tracedRates, plainRates []float64
	var spans []span
	obs := telemetry.New()
	var results [][]*core.Result
	var sched, total float64
	for p := 0; p < 2*passes; p++ {
		traced := p%2 == 1
		var rec *recorder
		var o *telemetry.Observer
		if traced {
			rec = &recorder{t0: time.Now()}
			if p == 1 {
				o = obs
			}
		}
		start := time.Now()
		for _, q := range reqs {
			res, _, _, err := replayOne(q, rec, o)
			if err != nil {
				return st, fmt.Errorf("replaying %s: %w", q.id, err)
			}
			if p == 1 {
				results = append(results, res)
				for _, r := range res {
					total++
					if r.Schedulable {
						sched++
					}
				}
			}
		}
		rate := float64(len(reqs)) / time.Since(start).Seconds()
		if traced {
			tracedRates = append(tracedRates, rate)
			spans = append(spans, rec.spans...)
			if p == 1 {
				if err := writeSpans(spanPath, rec.spans); err != nil {
					return st, err
				}
			}
		} else {
			plainRates = append(plainRates, rate)
		}
	}
	st.overhead = 1 - median(tracedRates)/median(plainRates)
	st.schedShare = ratio(sched, total)

	// Layer means: sum of each layer's spans over the requests that made
	// the call; unattributed = request time no layer span covers.
	sum := map[string]float64{}
	calls := map[string]float64{}
	for _, s := range spans {
		sum[s.Name] += float64(s.End-s.Start) / 1e3
		calls[s.Name]++
	}
	var layers float64
	for _, name := range layerSpans {
		st.layerUS[name] = ratio(sum[name], calls[name])
		layers += sum[name]
	}
	st.replayUS = ratio(sum[spanRequest], calls[spanRequest])
	st.unattributed = 1 - ratio(layers, sum[spanRequest])
	var bodies, bodyBytes float64
	for _, q := range reqs {
		if q.body != nil {
			bodies++
			bodyBytes += float64(len(q.body))
		}
	}
	st.bodyBytes = ratio(bodyBytes, bodies)
	st.counters = obs.Metrics.Counters()

	// The replayed results must equal the direct engine answer too.
	for i, q := range reqs {
		want := q.want
		if want == nil {
			// Decode the request the same way the replay did; a fresh
			// replay of the same request is the cheapest way to get the
			// task set and configs back.
			_, ts, cfgs, err := replayOne(q, nil, nil)
			if err != nil {
				return st, err
			}
			w, err := expect(ts, cfgs)
			if err != nil {
				return st, err
			}
			want = &w
		}
		got, err := json.Marshal(results[i])
		if err != nil {
			return st, err
		}
		if !bytes.Equal(got, want.results) {
			st.failed++
			fmt.Fprintf(report, "perfbench: check: replayed %s differs from core.AnalyzeAll\n", q.id)
		}
	}
	return st, nil
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range spans {
		if err := writeJSONLine(w, s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeJSONLine(w io.Writer, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// reportReplay records the replay's per-layer metrics.
func reportReplay(rep *reporter, st replayStats, n, passes int) {
	note := fmt.Sprintf("mean over %d requests × %d traced passes", n, passes)
	rep.set("wire.envelope_us", st.layerUS[spanEnvelope], "us", note)
	rep.set("taskmodel.read_json_us", st.layerUS[spanReadJSON], "us", "mean over full-body requests; includes ReadJSON's own validation")
	rep.set("taskmodel.validate_us", st.layerUS[spanValidate], "us", note)
	rep.set("taskmodel.body_bytes", st.bodyBytes, "bytes", "mean full-body request size")
	rep.set("core.canonical_key_us", st.layerUS[spanKey], "us", note)
	rep.set("core.tables_us", st.layerUS[spanTables], "us", note)
	rep.set("core.run_us", st.layerUS[spanRun], "us", "NewAnalyzerWithTables+Run, all configs of a request")
	rep.set("trace.replay_us", st.replayUS, "us", note)
	rep.set("trace.unattributed_share", st.unattributed, "share", "request time outside every layer span")
	rep.set("trace.overhead_share", st.overhead, "share", fmt.Sprintf("1 - traced/untraced replay rate, medians of %d passes each", passes))
	c := st.counters
	exact := fmt.Sprintf("exact, over the %d-request replay sequence", n)
	rep.set("core.runs", float64(c["analyzer.runs"]), "count", exact)
	rep.set("core.task_analyses", float64(c["analyzer.task_analyses"]), "count", exact)
	rep.set("core.outer_rounds", float64(c["analyzer.outer_rounds"]), "count", exact)
	rep.set("core.inner_iterations", float64(c["fp.inner_iterations"]), "count", exact)
	rep.set("core.breakpoint_jumps", float64(c["fp.breakpoint_jumps"]), "count", exact)
	rep.set("core.cursor_rebuilds", float64(c["fp.cursor_rebuilds"]), "count", exact)
	rep.set("core.curve_builds", float64(c["curves.builds"]), "count", exact)
	rep.set("core.curve_hits", float64(c["curves.hits"]), "count", exact)
	rep.set("core.aborts", float64(c["abort.deadline_miss"]+c["abort.nonconvergence"]+c["abort.bus_overload"]), "count", exact)
	rep.set("core.schedulable_share", st.schedShare, "share", "schedulable results ÷ results in the replay")
}
