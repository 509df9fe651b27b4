package server

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/fixtures"
	"repro/internal/telemetry"
)

func TestCacheLRUEviction(t *testing.T) {
	obs := telemetry.New()
	now := time.Unix(1000, 0)
	c := newStore(2, 0, func() time.Time { return now }, obs)

	c.fill("a", json.RawMessage(`"A"`), nil, nil)
	c.fill("b", json.RawMessage(`"B"`), nil, nil)
	if _, ok := c.get("a"); !ok { // touch a: b becomes LRU
		t.Fatal("a missing")
	}
	c.fill("c", json.RawMessage(`"C"`), nil, nil) // evicts b
	if _, ok := c.get("b"); ok {
		t.Error("b should have been evicted as least recently used")
	}
	if _, ok := c.get("a"); !ok {
		t.Error("a (recently used) was evicted")
	}
	if _, ok := c.get("c"); !ok {
		t.Error("c missing")
	}
	if got := obs.Metrics.Get(telemetry.CtrServerCacheEvictions); got != 1 {
		t.Errorf("server.cache_evictions = %d, want 1", got)
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
}

func TestCacheTTLExpiry(t *testing.T) {
	obs := telemetry.New()
	now := time.Unix(1000, 0)
	c := newStore(8, time.Minute, func() time.Time { return now }, obs)

	c.fill("k", json.RawMessage(`"V"`), fixtures.Fig1TaskSet(), nil)
	if _, ok := c.get("k"); !ok {
		t.Fatal("fresh entry missing")
	}
	now = now.Add(59 * time.Second)
	if _, ok := c.get("k"); !ok {
		t.Error("entry expired before its TTL")
	}
	now = now.Add(2 * time.Second)
	if _, _, ok := c.base("k"); ok {
		t.Error("expired entry still resolvable as a delta base")
	}
	if _, ok := c.get("k"); ok {
		t.Error("entry survived past its TTL")
	}
	if got := obs.Metrics.Get(telemetry.CtrServerCacheExpiries); got != 1 {
		t.Errorf("server.cache_expiries = %d, want 1 for the expiry", got)
	}
	if got := obs.Metrics.Get(telemetry.CtrServerCacheEvictions); got != 0 {
		t.Errorf("server.cache_evictions = %d, want 0: a TTL expiry is not capacity pressure", got)
	}
	if c.len() != 0 {
		t.Errorf("len = %d after expiry, want 0", c.len())
	}

	// A re-fill after expiry refreshes the deadline.
	c.fill("k", json.RawMessage(`"V2"`), nil, nil)
	now = now.Add(30 * time.Second)
	if raw, ok := c.get("k"); !ok || string(raw) != `"V2"` {
		t.Errorf("refreshed entry = %q ok=%v", raw, ok)
	}
}

// TestCacheTTLBoundary pins the expiry contract: an entry is live
// strictly before its expiry instant and dead at exactly t = expires.
// The previous comparison (After) served entries at the boundary
// instant — observable with coarse clocks and with TTLs aligned to
// scheduler ticks.
func TestCacheTTLBoundary(t *testing.T) {
	obs := telemetry.New()
	now := time.Unix(1000, 0)
	c := newStore(8, time.Minute, func() time.Time { return now }, obs)

	c.fill("k", json.RawMessage(`"V"`), nil, nil)
	now = now.Add(time.Minute - time.Nanosecond)
	if _, ok := c.get("k"); !ok {
		t.Error("entry dead one tick before its expiry instant")
	}
	now = now.Add(time.Nanosecond) // exactly t = expires
	if _, ok := c.get("k"); ok {
		t.Error("entry served at exactly its expiry instant; contract is t >= expires => expired")
	}
	if got := obs.Metrics.Get(telemetry.CtrServerCacheExpiries); got != 1 {
		t.Errorf("server.cache_expiries = %d, want 1", got)
	}
}

// TestCachePutSweepsExpiredTail pins the idle-memory fix: entries that
// expired without ever being looked up again are removed by the next
// fill, not pinned until capacity pressure reaches them.
func TestCachePutSweepsExpiredTail(t *testing.T) {
	obs := telemetry.New()
	now := time.Unix(1000, 0)
	c := newStore(64, time.Minute, func() time.Time { return now }, obs)

	for i := 0; i < 5; i++ {
		c.fill(fmt.Sprintf("old%d", i), json.RawMessage(`0`), nil, nil)
	}
	now = now.Add(2 * time.Minute) // all five are now dead, none looked up
	c.fill("fresh", json.RawMessage(`1`), nil, nil)
	if got := c.len(); got != 1 {
		t.Errorf("len = %d after a fill past the TTL, want 1 (dead tail swept)", got)
	}
	if got := obs.Metrics.Get(telemetry.CtrServerCacheExpiries); got != 5 {
		t.Errorf("server.cache_expiries = %d, want 5 swept entries", got)
	}
	if got := obs.Metrics.Get(telemetry.CtrServerCacheEvictions); got != 0 {
		t.Errorf("server.cache_evictions = %d, want 0: the sweep is not capacity pressure", got)
	}
	if _, ok := c.get("fresh"); !ok {
		t.Error("fresh entry lost by the sweep")
	}
}

func TestCacheUpdateMovesToFront(t *testing.T) {
	c := newStore(2, 0, time.Now, nil)
	c.fill("a", json.RawMessage(`1`), nil, nil)
	c.fill("b", json.RawMessage(`2`), nil, nil)
	c.fill("a", json.RawMessage(`3`), nil, nil) // update, not insert
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2 (update must not grow the store)", c.len())
	}
	c.fill("c", json.RawMessage(`4`), nil, nil) // evicts b, the LRU
	if _, ok := c.get("b"); ok {
		t.Error("b survived; update did not refresh a's recency")
	}
	if raw, _ := c.get("a"); string(raw) != `3` {
		t.Errorf("a = %s, want the updated value 3", raw)
	}
}

// TestCacheDisabled: capacity 0 keeps no resolved entry — neither a
// fill nor a computed result — while identical requests still share
// one leader.
func TestCacheDisabled(t *testing.T) {
	c := newStore(0, 0, time.Now, nil)
	c.fill("a", json.RawMessage(`1`), fixtures.Fig1TaskSet(), nil)
	if _, ok := c.get("a"); ok {
		t.Error("disabled store returned a filled value")
	}
	entered, release := make(chan struct{}), make(chan struct{})
	type res struct {
		raw json.RawMessage
		ans answer
		err error
	}
	leader := make(chan res, 1)
	go func() {
		raw, ans, err := c.do(context.Background(), nil, "b", fixtures.Fig1TaskSet(), nil, func() (json.RawMessage, error) {
			close(entered)
			<-release
			return json.RawMessage(`2`), nil
		})
		leader <- res{raw, ans, err}
	}()
	<-entered
	follower := make(chan res, 1)
	go func() {
		raw, ans, err := c.do(context.Background(), nil, "b", nil, nil, func() (json.RawMessage, error) {
			t.Error("follower on a disabled store ran its own computation")
			return nil, nil
		})
		follower <- res{raw, ans, err}
	}()
	awaitFollowers(t, c, "b", 1)
	close(release)
	if got := <-leader; got.err != nil || got.ans != answerFresh || string(got.raw) != `2` {
		t.Errorf("leader on a disabled store: %+v", got)
	}
	if got := <-follower; got.err != nil || got.ans != answerCoalesced || string(got.raw) != `2` {
		t.Errorf("follower on a disabled store: %+v, want the leader's bytes, coalesced", got)
	}
	if _, ok := c.get("b"); ok {
		t.Error("disabled store kept a computed result")
	}
	if _, _, ok := c.base("b"); ok {
		t.Error("disabled store resolved a delta base")
	}
	if c.len() != 0 || len(c.byKey) != 0 {
		t.Errorf("disabled store holds %d resolved / %d total entries, want 0", c.len(), len(c.byKey))
	}
}

func TestCacheManyKeysBounded(t *testing.T) {
	c := newStore(16, 0, time.Now, nil)
	for i := 0; i < 1000; i++ {
		c.fill(fmt.Sprintf("k%d", i), json.RawMessage(`0`), nil, nil)
	}
	if c.len() != 16 {
		t.Errorf("len = %d, want the 16-entry bound", c.len())
	}
	if _, ok := c.get("k999"); !ok {
		t.Error("most recent key missing")
	}
	if _, ok := c.get("k0"); ok {
		t.Error("oldest key survived")
	}
}

// TestBaseLookupBounded: delta bases share the store's bound, and a
// base lookup refreshes recency the way a cache hit does.
func TestBaseLookupBounded(t *testing.T) {
	c := newStore(4, 0, time.Now, nil)
	ts := fixtures.Fig1TaskSet()
	for i := 0; i < 10; i++ {
		c.fill(fmt.Sprintf("k%d", i), json.RawMessage(`0`), ts, nil)
	}
	if got := c.len(); got != 4 {
		t.Errorf("store holds %d entries, want the 4-entry bound", got)
	}
	if _, _, ok := c.base("k9"); !ok {
		t.Error("most recent base evicted")
	}
	if _, _, ok := c.base("k0"); ok {
		t.Error("oldest base survived beyond the bound")
	}
	// Recency: touching k6 must protect it over k7.
	if _, _, ok := c.base("k6"); !ok {
		t.Fatal("k6 missing")
	}
	c.fill("k10", json.RawMessage(`0`), ts, nil)
	if _, _, ok := c.base("k6"); !ok {
		t.Error("recently touched base evicted before a colder one")
	}
	if _, _, ok := c.base("k7"); ok {
		t.Error("cold base survived while a warmer one was evicted")
	}
}

// TestHitAttachesInputs: an entry filled without inputs (a peer's
// relayed delta result) is no delta base until a request that hits it
// attaches its decoded inputs; a later hit keeps the first inputs.
func TestHitAttachesInputs(t *testing.T) {
	obs := telemetry.New()
	c := newStore(4, 0, time.Now, obs)
	c.fill("k", json.RawMessage(`"R"`), nil, nil)
	if _, _, ok := c.base("k"); ok {
		t.Fatal("an entry without inputs resolved as a delta base")
	}
	first, second := fixtures.Fig1TaskSet(), fixtures.Fig1TaskSet()
	noCompute := func() (json.RawMessage, error) {
		t.Error("a hit ran the computation")
		return nil, nil
	}
	raw, ans, err := c.do(context.Background(), nil, "k", first, nil, noCompute)
	if err != nil || ans != answerHit || string(raw) != `"R"` {
		t.Fatalf("hit: raw=%s answer=%d err=%v", raw, ans, err)
	}
	if _, _, err := c.do(context.Background(), nil, "k", second, nil, noCompute); err != nil {
		t.Fatal(err)
	}
	if ts, _, ok := c.base("k"); !ok || ts != first {
		t.Errorf("base after two hits = %p ok=%v, want the first request's inputs %p", ts, ok, first)
	}
	if hits := obs.Metrics.Get(telemetry.CtrServerCacheHits); hits != 2 {
		t.Errorf("server.cache_hits = %d, want 2", hits)
	}
}

// awaitFollowers returns once n followers are provably parked on key's
// in-flight entry: the waiter count increments, under the store mutex,
// before a follower blocks on done.
func awaitFollowers(t *testing.T, s *store, key string, n int) {
	t.Helper()
	for {
		s.mu.Lock()
		e, ok := s.byKey[key]
		waiters := 0
		if ok {
			waiters = e.waiters
		}
		s.mu.Unlock()
		if !ok {
			t.Fatal("in-flight entry vanished while the leader was parked")
		}
		if waiters == n {
			return
		}
		runtime.Gosched()
	}
}

// TestFlightLeaderPanicReleasesFollowers pins the singleflight failure
// contract: a leader whose computation panics must hand every waiting
// follower an error instead of leaving them blocked on a never-closed
// channel, must re-panic so its own failure stays loud, and must leave
// the key vacant so the next caller can lead a fresh computation.
func TestFlightLeaderPanicReleasesFollowers(t *testing.T) {
	g := newStore(8, 0, time.Now, nil)
	entered := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		defer func() {
			if recover() == nil {
				t.Error("leader panic did not propagate out of do")
			}
		}()
		_, _, _ = g.do(context.Background(), nil, "k", nil, nil, func() (json.RawMessage, error) {
			close(entered)
			<-release
			panic("injected")
		})
	}()
	<-entered // the entry is registered and the leader parked in compute

	type res struct {
		ans answer
		err error
	}
	followerDone := make(chan res, 1)
	go func() {
		_, ans, err := g.do(context.Background(), nil, "k", nil, nil, func() (json.RawMessage, error) {
			t.Error("follower ran its own computation while the leader was in flight")
			return nil, nil
		})
		followerDone <- res{ans, err}
	}()
	awaitFollowers(t, g, "k", 1)
	close(release)
	<-leaderDone

	got := <-followerDone
	if got.err == nil {
		t.Fatal("follower received a nil error from a panicked leader")
	}
	if !strings.Contains(got.err.Error(), "panicked") {
		t.Errorf("follower error %q does not identify the panic", got.err)
	}
	if got.ans != answerCoalesced {
		t.Error("follower result not marked coalesced")
	}
	g.mu.Lock()
	if len(g.byKey) != 0 {
		t.Errorf("store holds %d entries after the panic, want 0", len(g.byKey))
	}
	g.mu.Unlock()

	// The key must not be poisoned: the next caller becomes a fresh
	// leader and its result flows normally.
	raw, ans, err := g.do(context.Background(), nil, "k", nil, nil, func() (json.RawMessage, error) {
		return json.RawMessage(`"fresh"`), nil
	})
	if err != nil || ans != answerFresh || string(raw) != `"fresh"` {
		t.Errorf("post-panic call: raw=%s answer=%d err=%v; want a fresh uncoalesced success", raw, ans, err)
	}
	if raw, ok := g.get("k"); !ok || string(raw) != `"fresh"` {
		t.Errorf("post-panic result not resolved: %s ok=%v", raw, ok)
	}
}
