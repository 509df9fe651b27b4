package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/taskgen"
	"repro/internal/taskmodel"
)

// The serve workloads revolve around a pool of base task sets on the
// default platform (4 cores × 8 tasks). Base i carries the configs
// {arb, arb-CP} with arb rotating over FP, RR and TDMA, and its per-core
// utilization is spread evenly over 0.1–0.4 — the knee of Fig. 2 — so
// some analyses converge and some abort.

var baseArbiters = []core.Arbiter{core.FP, core.RR, core.TDMA}

// base is one base task set with its pre-encoded request bodies.
type base struct {
	ts   *taskmodel.TaskSet
	cfgs []core.Config
	body []byte // verbatim /v1/analyze body (the dup class)

	// Edits set the PD of the task with the largest PD (nudgePrio) to
	// nudgePD-n for the n-th edit of this base, so every edit yields a
	// task set no earlier request carried. Lowering one demand keeps the
	// set valid under every taskmodel constraint.
	nudgePrio int
	nudgePD   int64
	edits     atomic.Int64

	// freshPre+value+freshSuf is the full-body edit: the base body with
	// the nudged task's PD spliced in, so no request re-encodes JSON.
	freshPre, freshSuf []byte
	// deltaPre+value+deltaSuf is the same edit as /v1/analyze/delta
	// against the base's key; set once the key is known.
	deltaPre []byte

	// want is the direct engine answer for the base itself.
	want expected
}

var deltaSuf = []byte("}]}")

// mix64 is the splitmix64 finalizer; it derives independent RNG seeds
// from (seed, index) pairs.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func subSeed(seed int64, i int) int64 { return int64(mix64(mix64(uint64(seed)) + uint64(i))) }

// makeBases generates n base task sets from the seed.
func makeBases(seed int64, n int) ([]*base, error) {
	gen := taskgen.DefaultConfig()
	pool, err := taskgen.PoolFromSuite(gen.Platform.Cache)
	if err != nil {
		return nil, err
	}
	perArb := (n + len(baseArbiters) - 1) / len(baseArbiters)
	bases := make([]*base, n)
	for i := range bases {
		arb := baseArbiters[i%len(baseArbiters)]
		step := i / len(baseArbiters)
		cfg := gen
		cfg.CoreUtilization = 0.1
		if perArb > 1 {
			cfg.CoreUtilization += 0.3 * float64(step) / float64(perArb-1)
		}
		ts, err := taskgen.Generate(cfg, pool, rand.New(rand.NewSource(subSeed(seed, i))))
		if err != nil {
			return nil, fmt.Errorf("base %d: %w", i, err)
		}
		b, err := newBase(ts, arb)
		if err != nil {
			return nil, fmt.Errorf("base %d: %w", i, err)
		}
		bases[i] = b
	}
	return bases, nil
}

// sentinelPD marks the spliced PD in the fresh template; no generated
// task has a demand anywhere near it.
const sentinelPD = 987654321098765

func newBase(ts *taskmodel.TaskSet, arb core.Arbiter) (*base, error) {
	b := &base{
		ts:   ts,
		cfgs: []core.Config{core.DefaultConfig(arb, false), core.DefaultConfig(arb, true)},
	}
	for _, t := range ts.Tasks {
		if t.PD > b.nudgePD {
			b.nudgePD, b.nudgePrio = t.PD, t.Priority
		}
	}
	var err error
	if b.body, err = analyzeBody(ts, b.cfgs); err != nil {
		return nil, err
	}
	tmpl, err := analyzeBody(b.edited(sentinelPD), b.cfgs)
	if err != nil {
		return nil, err
	}
	mark := []byte(strconv.FormatInt(sentinelPD, 10))
	if bytes.Count(tmpl, mark) != 1 {
		return nil, fmt.Errorf("fresh template: PD sentinel not unique")
	}
	at := bytes.Index(tmpl, mark)
	b.freshPre, b.freshSuf = tmpl[:at], tmpl[at+len(mark):]
	return b, nil
}

// analyzeBody is the /v1/analyze body a toolchain posts: the task set
// exactly as the CLIs write it, plus the configs (arbiter and
// persistence; the CRPD and CPRO defaults are left implicit).
func analyzeBody(ts *taskmodel.TaskSet, cfgs []core.Config) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString(`{"taskset": `)
	if err := ts.WriteJSON(&buf); err != nil {
		return nil, err
	}
	buf.WriteString(`, "configs": [`)
	for i, c := range cfgs {
		if i > 0 {
			buf.WriteString(", ")
		}
		fmt.Fprintf(&buf, `{"arbiter": %q`, strings.ToLower(c.Arbiter.String()))
		if c.Persistence {
			buf.WriteString(`, "persistence": true`)
		}
		buf.WriteString("}")
	}
	buf.WriteString("]}")
	return buf.Bytes(), nil
}

// setKey records the base's canonical key and prepares the delta
// template against it.
func (b *base) setKey(key string) {
	k, _ := json.Marshal(key)
	b.deltaPre = []byte(fmt.Sprintf(`{"base_key":%s,"edits":[{"priority":%d,"field":"pd","value":`, k, b.nudgePrio))
}

// nextEdit reserves the next unused PD value of this base.
func (b *base) nextEdit() (int64, error) {
	v := b.nudgePD - b.edits.Add(1)
	if v < 1 {
		return 0, fmt.Errorf("base exhausted its %d distinct edits", b.nudgePD-1)
	}
	return v, nil
}

// freshBody splices an edit value into the pre-encoded template.
func (b *base) freshBody(v int64) []byte {
	out := make([]byte, 0, len(b.freshPre)+len(b.freshSuf)+20)
	out = append(out, b.freshPre...)
	out = strconv.AppendInt(out, v, 10)
	return append(out, b.freshSuf...)
}

func (b *base) deltaBody(v int64) []byte {
	out := make([]byte, 0, len(b.deltaPre)+len(deltaSuf)+20)
	out = append(out, b.deltaPre...)
	out = strconv.AppendInt(out, v, 10)
	return append(out, deltaSuf...)
}

// edited is the base with the nudged task's PD set to v, built by
// direct struct mutation — the oracle the served edits are checked
// against.
func (b *base) edited(v int64) *taskmodel.TaskSet {
	tasks := make([]*taskmodel.Task, len(b.ts.Tasks))
	for i, t := range b.ts.Tasks {
		c := *t
		if c.Priority == b.nudgePrio {
			c.PD = v
		}
		tasks[i] = &c
	}
	return taskmodel.NewTaskSet(b.ts.Platform, tasks)
}

// expected is a direct engine answer: the canonical key and the
// marshaled results a response must carry byte for byte.
type expected struct {
	key     string
	results []byte
}

func expect(ts *taskmodel.TaskSet, cfgs []core.Config) (expected, error) {
	res, err := core.AnalyzeAll(ts, cfgs)
	if err != nil {
		return expected{}, err
	}
	raw, err := json.Marshal(res)
	if err != nil {
		return expected{}, err
	}
	return expected{key: core.CanonicalKey(ts, cfgs), results: raw}, nil
}
