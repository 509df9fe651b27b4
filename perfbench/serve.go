package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Request classes of the serve workloads.
const (
	classDup   = iota // verbatim re-POST of a warmed base
	classFresh        // full body with one PD edited (never seen before)
	classDelta        // the same kind of edit via /v1/analyze/delta
	numClasses
)

var classNames = [numClasses]string{"dup", "fresh", "delta"}

// served is one client-side request outcome of the timed window.
type served struct {
	class   uint8
	base    int32
	value   int64 // edited PD (fresh, delta)
	retried bool  // delta 404 answered by re-POSTing the base once
	status  int   // 0: transport error
	lat     time.Duration
	done    time.Duration // completion, as an offset into the window
	resp    []byte
}

// client issues requests over one keep-alive transport.
type client struct {
	hc  *http.Client
	url string
}

func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

func (c *client) post(path string, body []byte) (int, []byte, error) {
	resp, err := c.hc.Post(c.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, data, nil
}

// warm POSTs every base once, outside the timed window: dup requests
// then measure cache hits, not first misses, and the delta class learns
// its base keys.
func warm(c *client, bases []*base) error {
	for i, b := range bases {
		status, data, err := c.post("/v1/analyze", b.body)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("warming base %d: status %d, %v: %s", i, status, err, truncate(data))
		}
		var env struct {
			Key string `json:"key"`
		}
		if err := json.Unmarshal(data, &env); err != nil {
			return fmt.Errorf("warming base %d: %w", i, err)
		}
		if env.Key != b.want.key {
			return fmt.Errorf("warming base %d: served key %s, direct CanonicalKey %s", i, env.Key, b.want.key)
		}
		b.setKey(env.Key)
	}
	return nil
}

func truncate(b []byte) string {
	if len(b) > 200 {
		return string(b[:200]) + "…"
	}
	return string(b)
}

// nextClass is the class of a client's i-th request: serve_repeat sends
// only dups; serve_edit alternates fresh and delta, so each class is
// exactly half of a client's requests.
func nextClass(edit bool, i int) uint8 {
	switch {
	case !edit:
		return classDup
	case i%2 == 0:
		return classFresh
	default:
		return classDelta
	}
}

// issue sends one request and records its outcome. A delta
// whose base the server no longer holds (404) is answered as the API
// contract says: re-POST the base, then retry the delta once.
func issue(c *client, bases []*base, class uint8, bi int) served {
	b := bases[bi]
	s := served{class: class, base: int32(bi)}
	start := time.Now()
	var path string
	var body []byte
	switch class {
	case classDup:
		path, body = "/v1/analyze", b.body
	default:
		v, err := b.nextEdit()
		if err != nil {
			s.lat = time.Since(start)
			return s
		}
		s.value = v
		if class == classFresh {
			path, body = "/v1/analyze", b.freshBody(v)
		} else {
			path, body = "/v1/analyze/delta", b.deltaBody(v)
		}
	}
	status, data, err := c.post(path, body)
	if err == nil && class == classDelta && status == http.StatusNotFound {
		s.retried = true
		if st, _, perr := c.post("/v1/analyze", b.body); perr == nil && st == http.StatusOK {
			status, data, err = c.post(path, body)
		}
	}
	s.lat = time.Since(start)
	if err == nil {
		s.status, s.resp = status, data
	}
	return s
}

// slice is one part of the timed window, with the host's steal share
// during it.
type slice struct {
	start, end time.Duration
	steal      float64
}

func (s slice) clean() bool { return s.steal <= maxSteal }

// throughputSlices is how many slices the nominal window is cut into.
const throughputSlices = 10

// runWindow drives the closed loop: each client sends its next request
// as soon as the previous one answered. The window is cut into slices of
// window/throughputSlices and closes when cleanEnough says so.
func runWindow(ctx context.Context, c *client, bases []*base, edit bool, clients int, seed int64, window time.Duration) ([]served, []slice, error) {
	prev, err := readCPU()
	if err != nil {
		return nil, nil, err
	}
	per := make([][]served, clients)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(subSeed(seed, 1000+w)))
			for i := 0; ctx.Err() == nil; i++ {
				s := issue(c, bases, nextClass(edit, i+w), rng.Intn(len(bases)))
				s.done = time.Since(start)
				per[w] = append(per[w], s)
			}
		}(w)
	}
	sliceDur := window / throughputSlices
	var slices []slice
	var clean time.Duration
	for k := 1; ctx.Err() == nil; k++ {
		end := time.Duration(k) * sliceDur
		time.Sleep(time.Until(start.Add(end)))
		now, rerr := readCPU()
		if rerr != nil {
			err = rerr
			break
		}
		sl := slice{start: end - sliceDur, end: end, steal: now.stealSince(prev)}
		prev = now
		slices = append(slices, sl)
		if sl.clean() {
			clean += sliceDur
		}
		if cleanEnough(end.Seconds(), clean.Seconds(), window.Seconds()) {
			break
		}
	}
	cancel()
	wg.Wait()
	var all []served
	for _, s := range per {
		all = append(all, s...)
	}
	return all, slices, err
}

// windowStats picks the slices the end-to-end figures come from — the
// clean ones when there are minCleanParts of them, else all — and
// returns the throughput, the median over those slices of 200 responses
// per second, and the requests that completed in them.
func windowStats(samples []served, slices []slice) (rate float64, in []served, used []slice) {
	for _, sl := range slices {
		if sl.clean() {
			used = append(used, sl)
		}
	}
	if len(used) < minCleanParts {
		used = slices
	}
	rates := make([]float64, len(used))
	for _, s := range samples {
		for i, sl := range used {
			if s.done >= sl.start && s.done < sl.end {
				in = append(in, s)
				if s.status == http.StatusOK {
					rates[i]++
				}
				break
			}
		}
	}
	for i, sl := range used {
		rates[i] /= (sl.end - sl.start).Seconds()
	}
	return median(rates), in, used
}

// checkServed compares every served response with a direct engine
// answer for the same (edited) task set: the key must equal
// core.CanonicalKey and the results must be byte-identical to the
// marshaled core.AnalyzeAll. It returns the number of failed requests —
// non-200s, transport errors and mismatches alike — and describes the
// first few.
func checkServed(samples []served, bases []*base, workers int, report io.Writer) int64 {
	var failed atomic.Int64
	var shown atomic.Int32
	complain := func(format string, args ...any) {
		failed.Add(1)
		if shown.Add(1) <= 5 {
			fmt.Fprintf(report, "perfbench: check: "+format+"\n", args...)
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(samples) {
					return
				}
				s := &samples[i]
				if s.status != http.StatusOK {
					complain("%s request to base %d: status %d: %s", classNames[s.class], s.base, s.status, truncate(s.resp))
					continue
				}
				var got struct {
					Key     string          `json:"key"`
					Results json.RawMessage `json:"results"`
				}
				if err := json.Unmarshal(s.resp, &got); err != nil {
					complain("%s request to base %d: undecodable response: %v", classNames[s.class], s.base, err)
					continue
				}
				b := bases[s.base]
				want := b.want
				if s.class != classDup {
					var err error
					if want, err = expect(b.edited(s.value), b.cfgs); err != nil {
						complain("%s request to base %d: direct analysis failed: %v", classNames[s.class], s.base, err)
						continue
					}
				}
				if got.Key != want.key {
					complain("%s request to base %d (pd %d): key %s, want %s", classNames[s.class], s.base, s.value, got.Key, want.key)
				} else if !bytes.Equal(got.Results, want.results) {
					complain("%s request to base %d (pd %d): results differ from core.AnalyzeAll", classNames[s.class], s.base, s.value)
				}
			}
		}()
	}
	wg.Wait()
	return failed.Load()
}

func runServeRepeat(ctx context.Context, rc runConfig, rep *reporter) (int64, int64, error) {
	return runServe(ctx, rc, rep, false)
}

func runServeEdit(ctx context.Context, rc runConfig, rep *reporter) (int64, int64, error) {
	return runServe(ctx, rc, rep, true)
}

// runServe measures one serve workload: buscond set-up, a closed loop
// of at most nproc clients over the timed window, the server's /metrics
// deltas, and — after the daemon stopped — the correctness check and,
// when tracing, the layer replay.
func runServe(ctx context.Context, rc runConfig, rep *reporter, edit bool) (attempted, failed int64, err error) {
	clients := runtime.NumCPU()
	hc := newHTTPClient(2 * clients)
	defer hc.CloseIdleConnections()

	// Everything the window needs is built before the daemon starts:
	// bases, pre-encoded bodies and their direct engine answers.
	nBases := rc.scale.repeatBases
	if edit {
		nBases = rc.scale.editBases
	}
	bases, err := makeBases(rc.seed, nBases)
	if err != nil {
		return 0, 0, err
	}
	for i, b := range bases {
		if b.want, err = expect(b.ts, b.cfgs); err != nil {
			return 0, 0, fmt.Errorf("base %d: %w", i, err)
		}
	}

	var setups []float64
	var d *daemon
	for i := 0; i < rc.scale.setupRuns; i++ {
		dd, took, err := launchDaemon(rc.buscond, hc)
		if err != nil {
			return 0, 0, err
		}
		setups = append(setups, took.Seconds())
		if i < rc.scale.setupRuns-1 {
			hc.CloseIdleConnections()
			if err := dd.stop(); err != nil {
				return 0, 0, err
			}
			continue
		}
		d = dd
	}
	running := true
	defer func() {
		if running {
			_ = d.stop()
		}
	}()
	rep.set("setup_s", median(setups), "s", fmt.Sprintf("buscond launch until /healthz answers, median of %d launches", len(setups)))

	c := &client{hc: hc, url: d.url}
	if err := warm(c, bases); err != nil {
		return 0, 0, err
	}
	primary := uint8(classDup)
	if edit {
		primary = classFresh
	}
	before, err := scrape(hc, d.url)
	if err != nil {
		return 0, 0, err
	}
	samples, slices, err := runWindow(ctx, c, bases, edit, clients, rc.seed, rc.window)
	if err != nil {
		return 0, 0, err
	}
	after, err := scrape(hc, d.url)
	if err != nil {
		return 0, 0, err
	}
	rss, err := peakRSSMB(d.cmd.Process.Pid)
	if err != nil {
		return 0, 0, err
	}
	hc.CloseIdleConnections()
	running = false
	if err := d.stop(); err != nil {
		return 0, 0, err
	}
	if ctx.Err() != nil {
		return 0, 0, ctx.Err()
	}
	if len(samples) == 0 {
		return 0, 0, errNoAttempts
	}

	failed = checkServed(samples, bases, runtime.GOMAXPROCS(0), os.Stderr)
	attempted = int64(len(samples))
	rate, inUsed, used := windowStats(samples, slices)
	var steal float64
	for _, sl := range slices {
		steal += sl.steal / float64(len(slices))
	}
	rep.set("host.steal_share", steal, "share", fmt.Sprintf("mean over %d slices of %.1fs; figures from %d of them", len(slices), (slices[0].end-slices[0].start).Seconds(), len(used)))
	rep.set("throughput_per_s", rate, "1/s",
		fmt.Sprintf("successful requests per second, median of %d slices, %d closed-loop clients", len(used), clients))
	var lat [numClasses][]float64
	for _, s := range inUsed {
		if s.status == http.StatusOK {
			lat[s.class] = append(lat[s.class], float64(s.lat)/1e6)
		}
	}
	var clientSum, okN, retries float64
	for _, s := range samples {
		if s.retried {
			retries++
		}
		if s.status == http.StatusOK {
			clientSum += float64(s.lat) / 1e6
			okN++
		}
	}
	pn := len(lat[primary])
	if pn == 0 {
		return 0, 0, errNoAttempts
	}
	rep.set("p50_ms", percentile(lat[primary], 0.50), "ms", fmt.Sprintf("%s requests, n=%d", classNames[primary], pn))
	rep.set("p99_ms", percentile(lat[primary], 0.99), "ms", fmt.Sprintf("%s requests, n=%d", classNames[primary], pn))
	rep.set("peak_rss_mb", rss, "MB", "buscond VmHWM")
	for cl, xs := range lat {
		if len(xs) == 0 {
			continue
		}
		n := fmt.Sprintf("n=%d", len(xs))
		rep.set(classNames[cl]+"_p50_ms", percentile(xs, 0.50), "ms", n)
		rep.set(classNames[cl]+"_p99_ms", percentile(xs, 0.99), "ms", n)
	}

	// Server-side figures: exact deltas of /metrics sums and counts.
	ctr := func(name string) float64 { return after.counter(before, name) }
	reqSum, reqN := after.hist(before, "server.request_us")
	rep.set("server.request_us.mean", ratio(reqSum, reqN), "us", fmt.Sprintf("n=%.0f", reqN))
	var named float64
	for _, stage := range []string{"queue", "cache", "coalesce", "analyze", "marshal"} {
		sum, n := after.hist(before, "server.stage_"+stage+"_us")
		named += sum
		rep.set("server.stage_"+stage+"_us.mean", ratio(sum, n), "us", fmt.Sprintf("n=%.0f", n))
		rep.set("server.stage_"+stage+"_share", ratio(sum, reqSum), "share", "stage sum ÷ request sum")
	}
	rep.set("server.unnamed_share", 1-ratio(named, reqSum), "share", "1 - Σ stage sums ÷ request sum")
	clientMeanUS := 1e3 * clientSum / okN
	rep.set("server.client_overhead_us", clientMeanUS-ratio(reqSum, reqN), "us", "client mean - server request mean")
	rep.set("server.client_overhead_share", 1-ratio(ratio(reqSum, reqN), clientMeanUS), "share", "1 - server request mean ÷ client mean")
	hits, misses := ctr("server.cache_hits"), ctr("server.cache_misses")
	rep.set("server.cache_hit_ratio", ratio(hits, hits+misses), "ratio", fmt.Sprintf("of %.0f lookups", hits+misses))
	rep.set("server.cache_evictions", ctr("server.cache_evictions"), "count", "")
	rep.set("server.coalesced", ctr("server.coalesced"), "count", "")
	rep.set("server.shed", ctr("server.shed"), "count", "")
	rep.set("server.timeouts", ctr("server.timeouts"), "count", "")
	rep.set("server.delta_base_misses", ctr("server.delta_base_misses"), "count", "")
	mh, mw, mm := ctr("core.memo_hits"), ctr("core.memo_waits"), ctr("core.memo_misses")
	rep.set("core.memo_hit_ratio", ratio(mh, mh+mw+mm), "ratio", fmt.Sprintf("of %.0f column lookups", mh+mw+mm))
	ch, cw, cm := ctr("core.curve_memo_hits"), ctr("core.curve_memo_waits"), ctr("core.curve_memo_misses")
	rep.set("core.curve_memo_hit_ratio", ratio(ch, ch+cw+cm), "ratio", fmt.Sprintf("of %.0f curve lookups", ch+cw+cm))
	rep.set("core.memo_evictions", ctr("core.memo_evictions"), "count", "")
	rep.set("client.delta_retries", retries, "count", "delta 404s answered by re-POSTing the base")

	if !rc.trace {
		return attempted, failed, nil
	}
	reqs := serveReplay(bases, edit, rc.seed, rc.scale.replay)
	st, err := replay(reqs, rc.scale.replayPasses, spanPath(rc), os.Stderr)
	if err != nil {
		return 0, 0, err
	}
	reportReplay(rep, st, len(reqs), rc.scale.replayPasses)
	if err := reportColdPool(rep, rc.scale.setupRuns); err != nil {
		return 0, 0, err
	}
	notExercised(rep, "experiments.generate_share", "experiments.analyze_share", "experiments.fold_share",
		"checkpoint.blocked_share", "checkpoint.file_bytes")
	return attempted, failed + st.failed, nil
}

// serveReplay is the fixed replay sequence of a serve workload: n
// requests drawn with the seed, dup bodies for serve_repeat, alternating
// fresh and delta edits for serve_edit.
func serveReplay(bases []*base, edit bool, seed int64, n int) []*replayReq {
	rng := rand.New(rand.NewSource(subSeed(seed, 7)))
	reqs := make([]*replayReq, n)
	for i := range reqs {
		b := bases[rng.Intn(len(bases))]
		v := b.nudgePD - 1 - int64(i)
		q := &replayReq{id: fmt.Sprintf("r%03d", i), base: b}
		switch {
		case !edit:
			q.id += "-dup"
			q.body, q.want = b.body, &b.want
		case i%2 == 0:
			q.id += "-fresh"
			q.body = b.freshBody(v)
		default:
			q.id += "-delta"
			q.delta = b.deltaBody(v)
		}
		reqs[i] = q
	}
	return reqs
}

func spanPath(rc runConfig) string {
	return filepath.Join(rc.workdir, "spans", fmt.Sprintf("%s-seed%d.jsonl", rc.workload, rc.seed))
}

// notExercised reports the per-layer figures of layers the workload
// never reaches. They are shares, ratios, counts or sizes — never times
// — and read 0.
func notExercised(rep *reporter, names ...string) {
	for _, n := range names {
		for _, d := range perLayer {
			if d.Name == n {
				rep.set(n, 0, d.Unit, "not exercised by this workload")
			}
		}
	}
}
