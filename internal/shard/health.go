package shard

import (
	"context"
	"sync"
	"time"
)

// DefaultProbeInterval is the health-check period, and the wait between a
// down peer's trial requests, when the caller leaves it unset.
const DefaultProbeInterval = time.Second

// DefaultProbeThreshold is how many consecutive failures take a peer down
// when the caller leaves it unset. One failure is too twitchy (a single
// dropped probe under load would shed the node); two in a row means the
// node missed a full interval.
const DefaultProbeThreshold = 2

// minProbeTimeout floors the per-round probe deadline: a tight probe
// interval is for fast failure *detection* and must not silently demand
// that healthy backends answer healthz equally fast (a GC pause or
// offline-build contention would flap them).
const minProbeTimeout = time.Second

// Health is the serving tier's one answer to "should this peer get
// traffic?". Routing admission, scatter order, failover, hedging, the
// gateway's readiness, its stats document and the artifact fetcher's
// peer skips all read the same per-peer state, fed by health probes and
// by request and fetch outcomes:
//
//	up    — traffic flows; threshold consecutive failures take it down.
//	down  — traffic is skipped, except one trial request per interval:
//	        an admit takes the trial when none was taken in the last
//	        interval, and restarts the clock; a failed trial restarts
//	        it too.
//	any success (probe, request or fetch) brings a peer back up.
//
// The first admit after going down is a trial, so a peer that recovers
// between probes is not refused for a whole interval by stale state.
// On the v1.1 stats wire, up is alive with breaker "closed", down is
// "open", and down with a trial out is "half-open". Peers start up: a
// router's inline failover covers the window before the first probe.
type Health struct {
	nodes     []string
	interval  time.Duration
	threshold int
	now       func() time.Time // clock hook for tests

	mu    sync.Mutex
	peers map[string]*peerHealth
	skips int64 // admits refused to down peers

	probed chan struct{} // closed after the first full probe round
	stop   context.CancelFunc
	done   chan struct{}
}

// peerHealth is one peer's record, guarded by Health.mu.
type peerHealth struct {
	down       bool
	trial      bool      // a down peer's trial request is out
	fails      int       // consecutive failures
	since      time.Time // when the last trial wait began (zero: never)
	downEvents int64     // up→down transitions
	instance   string    // self-reported id, learned from probes
}

// newHealth tracks a fixed peer set (0 interval/threshold = defaults).
func newHealth(nodes []string, interval time.Duration, threshold int) *Health {
	if interval <= 0 {
		interval = DefaultProbeInterval
	}
	if threshold <= 0 {
		threshold = DefaultProbeThreshold
	}
	h := &Health{
		nodes:     append([]string(nil), nodes...),
		interval:  interval,
		threshold: threshold,
		now:       time.Now,
		peers:     make(map[string]*peerHealth, len(nodes)),
		probed:    make(chan struct{}),
	}
	for _, n := range nodes {
		h.peers[n] = &peerHealth{}
	}
	return h
}

// admit reports whether a request may go to node: always while it is up;
// while it is down, only as the one trial of the current interval.
func (h *Health) admit(node string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	p := h.peers[node]
	if !p.down {
		return true
	}
	if now := h.now(); now.Sub(p.since) >= h.interval {
		p.since, p.trial = now, true
		return true
	}
	h.skips++
	return false
}

// succeed records a successful probe, request or fetch: the peer is up.
// A non-empty instance updates the peer's self-reported id.
func (h *Health) succeed(node, instance string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	p := h.peers[node]
	p.down, p.trial, p.fails = false, false, 0
	if instance != "" {
		p.instance = instance
	}
}

// fail records a failed probe, request or fetch. The threshold-th
// consecutive failure takes an up peer down; a failure while a trial is
// out fails the trial and restarts the wait for the next one.
func (h *Health) fail(node string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	p := h.peers[node]
	p.fails++
	switch {
	case !p.down && p.fails >= h.threshold:
		p.down = true
		p.downEvents++
	case p.trial:
		p.since, p.trial = h.now(), false
	}
}

// Alive reports whether node is up.
func (h *Health) Alive(node string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	p, ok := h.peers[node]
	return ok && !p.down
}

// upFirst reorders owners so up peers come first, keeping ring priority
// order within each class, and reports how many lead the list. The router
// scatters over the up prefix only (a known-down backend must not cost
// every batch an inline failover), while failover still walks the whole
// list: a down owner tried last is how it gets its one trial request per
// interval before the next probe re-admits it. Every peer's state is read
// once under one lock, so the result is always a permutation of owners,
// however the state moves concurrently.
func (h *Health) upFirst(owners []string) (ordered []string, up int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	ordered = make([]string, 0, len(owners))
	var down []string
	for _, o := range owners {
		if h.peers[o].down {
			down = append(down, o)
		} else {
			ordered = append(ordered, o)
		}
	}
	up = len(ordered)
	return append(ordered, down...), up
}

// AliveCount returns how many peers are up.
func (h *Health) AliveCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for _, p := range h.peers {
		if !p.down {
			n++
		}
	}
	return n
}

// Ready is the gateway's readiness: the first probe round has landed
// (before it, "up" is only the optimistic default) and a peer is up.
func (h *Health) Ready() bool {
	select {
	case <-h.probed:
		return h.AliveCount() > 0
	default:
		return false
	}
}

// peerStatus is one peer's health snapshot.
type peerStatus struct {
	node, instance string
	alive          bool
	breaker        string // "closed", "open" or "half-open"
	downEvents     int64
}

// snapshot returns every peer's status in node order, plus the total
// skip count.
func (h *Health) snapshot() ([]peerStatus, int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]peerStatus, len(h.nodes))
	for i, n := range h.nodes {
		p := h.peers[n]
		st := peerStatus{node: n, instance: p.instance, alive: !p.down, breaker: "closed", downEvents: p.downEvents}
		if p.down {
			st.breaker = "open"
			if p.trial {
				st.breaker = "half-open"
			}
		}
		out[i] = st
	}
	return out, h.skips
}

// start launches the probe loop: one round immediately, then one per
// interval, until ctx is canceled or close is called. probe returns the
// peer's instance id; a peer that answers but reports itself unready
// (e.g. 503 while warming) fails the probe, since routing to it would
// only queue requests behind its offline build.
func (h *Health) start(ctx context.Context, probe func(ctx context.Context, node string) (string, error)) {
	ctx, h.stop = context.WithCancel(ctx)
	h.done = make(chan struct{})
	go func() {
		defer close(h.done)
		ticker := time.NewTicker(h.interval)
		defer ticker.Stop()
		h.probeAll(ctx, probe)
		close(h.probed)
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				h.probeAll(ctx, probe)
			}
		}
	}()
}

// close stops the probe loop and waits for it to exit.
func (h *Health) close() {
	if h.stop != nil {
		h.stop()
		<-h.done
	}
}

// WaitProbed blocks until the first full probe round has completed (or
// ctx is done), so callers can start with real health state instead of
// the optimistic default.
func (h *Health) WaitProbed(ctx context.Context) error {
	select {
	case <-h.probed:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// probeAll probes every peer concurrently; one slow backend must not
// delay marking another down. A round slower than the interval delays
// the next tick rather than overlapping it.
func (h *Health) probeAll(ctx context.Context, probe func(ctx context.Context, node string) (string, error)) {
	round, cancel := context.WithTimeout(ctx, max(h.interval, minProbeTimeout))
	defer cancel()
	var wg sync.WaitGroup
	for _, n := range h.nodes {
		wg.Add(1)
		go func(n string) {
			defer wg.Done()
			instance, err := probe(round, n)
			switch {
			case err == nil:
				h.succeed(n, instance)
			case ctx.Err() == nil:
				// A probe cut short by shutdown says nothing about the peer.
				h.fail(n)
			}
		}(n)
	}
	wg.Wait()
}
