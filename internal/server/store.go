package server

import (
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/taskmodel"
	"repro/internal/telemetry"
)

// store is the server's one record of requests, keyed by canonical
// request key. An entry is in one of two states:
//
//   - In flight: the first request for a key (the leader) computes it;
//     every identical request arriving meanwhile (a follower) waits on
//     the entry's done channel or on its own context, and shares the
//     leader's exact outcome — singleflight. The leader computes on its
//     own context, so no follower's disconnect can poison the result.
//   - Resolved: the entry holds the marshaled result bytes, the decoded
//     inputs that delta requests resolve against (DESIGN.md §12), and
//     an optional TTL expiry. A lookup that finds it is a cache hit.
//
// Storing the serialized bytes (rather than the Result values) keeps
// cached responses byte-identical to the first computation. Resolved
// entries form a bounded LRU; in-flight entries live in the map only,
// so capacity pressure never splits a coalescing group. A leader that
// fails (shed, timed out, engine failure) or panics removes its entry,
// so a failed request is never answerable or resolvable as a base.
// With capacity 0 nothing resolves: requests still coalesce, but
// nothing is cached and every base lookup misses.
//
// TTL semantics are half-open: an entry is live strictly before its
// expiry instant and expired at t >= expires. Expired entries are
// treated as absent — dropped by the lookup that finds one, and swept
// from the LRU tail on every fill so an idle daemon does not pin dead
// bytes behind fresh traffic. Expiries count on server.cache_expiries;
// server.cache_evictions is reserved for capacity pressure, so the two
// signals (store too small vs results aged out) stay distinguishable.
type store struct {
	mu    sync.Mutex
	max   int
	ttl   time.Duration
	now   func() time.Time
	obs   *telemetry.Observer
	ll    *list.List // resolved entries; front = most recently used
	byKey map[string]*entry
}

// entry is one request. Every field is guarded by the store mutex.
type entry struct {
	key  string
	done chan struct{} // closed once the leader settles; nil when filled from a peer
	ele  *list.Element // position in the LRU; nil while in flight
	// waiters counts followers that joined while in flight. Tests use
	// it to sequence follower registration.
	waiters int

	raw     json.RawMessage
	err     error // the leader's failure, for its followers
	ts      *taskmodel.TaskSet
	cfgs    []core.Config
	expires time.Time // zero when the store has no TTL
}

// answer is how the store answered one request.
type answer uint8

const (
	answerFresh     answer = iota // this request led the computation (or gave up following)
	answerHit                     // a resolved entry answered it
	answerCoalesced               // it shared an in-flight leader's outcome
)

// newStore builds a store holding up to max resolved entries; max 0
// keeps none. ttl 0 disables expiry.
func newStore(max int, ttl time.Duration, now func() time.Time, obs *telemetry.Observer) *store {
	return &store{
		max: max, ttl: ttl, now: now, obs: obs,
		ll: list.New(), byKey: make(map[string]*entry),
	}
}

// do answers the request for key: from a resolved entry, by waiting
// for the in-flight leader, or by leading compute itself. It counts
// exactly one of server.cache_hits or server.cache_misses, charges its
// lookups and the result fill to the cache stage and a follower's wait
// to the coalesce stage. ts and cfgs are the request's decoded inputs,
// kept on the resolved entry for delta requests. A follower whose ctx
// ends before the leader settles received nothing: it counts as a
// timeout, not a coalesce, and its error unwraps to ctx.Err(). A
// panicking leader removes its entry, hands its followers an error and
// re-panics.
func (s *store) do(ctx context.Context, st *telemetry.StageTimer, key string, ts *taskmodel.TaskSet, cfgs []core.Config, compute func() (json.RawMessage, error)) (json.RawMessage, answer, error) {
	t0 := st.Now()
	s.mu.Lock()
	e := s.lookupLocked(key)
	if e != nil && e.ele != nil {
		// An entry filled from a peer's relayed delta has no inputs yet;
		// this request's inputs make it resolvable as a base.
		if e.ts == nil {
			e.ts, e.cfgs = ts, cfgs
		}
		raw := e.raw
		s.mu.Unlock()
		st.AddSince(telemetry.StageCache, t0)
		s.obs.Add(telemetry.CtrServerCacheHits, 1)
		return raw, answerHit, nil
	}
	leader := e == nil
	if leader {
		e = &entry{key: key, done: make(chan struct{})}
		s.byKey[key] = e
	} else {
		e.waiters++
	}
	s.mu.Unlock()
	st.AddSince(telemetry.StageCache, t0)
	s.obs.Add(telemetry.CtrServerCacheMisses, 1)
	if !leader {
		tw := st.Now()
		select {
		case <-e.done:
		case <-ctx.Done():
			s.obs.Add(telemetry.CtrServerTimeouts, 1)
			return nil, answerFresh, fmt.Errorf("server: timed out waiting for coalesced result: %w", ctx.Err())
		}
		st.AddSince(telemetry.StageCoalesce, tw)
		s.obs.Add(telemetry.CtrServerCoalesced, 1)
		s.mu.Lock()
		raw, err := e.raw, e.err
		s.mu.Unlock()
		return raw, answerCoalesced, err
	}

	// The unwind always settles the entry — including when compute
	// panics. Skipping it there would poison the key (no future request
	// could lead) and leave every follower blocked forever.
	settled := false
	defer func() {
		if !settled {
			r := recover()
			s.settle(e, nil, fmt.Errorf("server: coalesced computation panicked: %v", r), nil, nil)
			if r != nil {
				panic(r)
			}
		}
	}()
	raw, err := compute()
	tc := st.Now()
	s.settle(e, raw, err, ts, cfgs)
	settled = true
	st.AddSince(telemetry.StageCache, tc)
	return raw, answerFresh, err
}

// settle publishes the leader's outcome to its followers and, on
// success, resolves the entry; a failed entry leaves the store.
func (s *store) settle(e *entry, raw json.RawMessage, err error, ts *taskmodel.TaskSet, cfgs []core.Config) {
	s.mu.Lock()
	if err == nil && s.max > 0 {
		s.resolveLocked(e, raw, ts, cfgs)
	} else {
		e.raw = raw
		delete(s.byKey, e.key)
	}
	e.err = err
	s.mu.Unlock()
	close(e.done)
}

// fill stores a result computed elsewhere (a peer's relayed response)
// under key, with its decoded inputs when the caller has them. An
// in-flight key is left to its leader.
func (s *store) fill(key string, raw json.RawMessage, ts *taskmodel.TaskSet, cfgs []core.Config) {
	if s.max == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.lookupLocked(key)
	if e == nil {
		e = &entry{key: key}
		s.byKey[key] = e
	} else if e.ele == nil {
		return
	}
	s.resolveLocked(e, raw, ts, cfgs)
}

// get returns key's resolved result bytes without counting a hit.
func (s *store) get(key string) (json.RawMessage, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.lookupLocked(key); e != nil && e.ele != nil {
		return e.raw, true
	}
	return nil, false
}

// base returns the decoded inputs of key's resolved entry — the base a
// delta request edits.
func (s *store) base(key string) (*taskmodel.TaskSet, []core.Config, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.lookupLocked(key); e != nil && e.ele != nil && e.ts != nil {
		return e.ts, e.cfgs, true
	}
	return nil, nil, false
}

// len is the number of resolved entries.
func (s *store) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len()
}

// lookupLocked returns key's entry, refreshing a resolved entry's
// recency; an expired one is dropped and reported absent.
func (s *store) lookupLocked(key string) *entry {
	e, ok := s.byKey[key]
	if !ok || e.ele == nil {
		return e
	}
	if s.ttl > 0 && !s.now().Before(e.expires) {
		s.removeLocked(e)
		s.obs.Add(telemetry.CtrServerCacheExpiries, 1)
		return nil
	}
	s.ll.MoveToFront(e.ele)
	return e
}

// resolveLocked stores raw on e as the most recently used entry, keeps
// the first inputs it is given, then trims the store: expired entries
// from the cold end first, then capacity overflow.
func (s *store) resolveLocked(e *entry, raw json.RawMessage, ts *taskmodel.TaskSet, cfgs []core.Config) {
	e.raw = raw
	if e.ts == nil {
		e.ts, e.cfgs = ts, cfgs
	}
	var now time.Time
	if s.ttl > 0 {
		now = s.now()
		e.expires = now.Add(s.ttl)
	}
	if e.ele == nil {
		e.ele = s.ll.PushFront(e)
	} else {
		s.ll.MoveToFront(e.ele)
	}
	// The expired sweep stops at the first live tail entry: anything
	// further in was touched more recently, and the uniform TTL makes a
	// stale-but-live tail a fine place to stop.
	if s.ttl > 0 {
		for tail := s.ll.Back(); tail != nil && !now.Before(tail.Value.(*entry).expires); tail = s.ll.Back() {
			s.removeLocked(tail.Value.(*entry))
			s.obs.Add(telemetry.CtrServerCacheExpiries, 1)
		}
	}
	for s.ll.Len() > s.max {
		s.removeLocked(s.ll.Back().Value.(*entry))
		s.obs.Add(telemetry.CtrServerCacheEvictions, 1)
	}
}

func (s *store) removeLocked(e *entry) {
	s.ll.Remove(e.ele)
	e.ele = nil
	delete(s.byKey, e.key)
}
