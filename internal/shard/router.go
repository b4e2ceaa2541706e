package shard

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"twophase/internal/admission"
	"twophase/internal/api"
	"twophase/internal/core"
)

// Hedging defaults: the latency window size and how many samples must
// accumulate before hedging arms (an unwarmed percentile would hedge on
// noise).
const (
	DefaultHedgeWindow     = 256
	DefaultHedgeMinSamples = 20
)

// DefaultReplicas is the owner-set size per (task, seed) key when
// RouterOptions leaves it unset: a primary plus one failover replica.
const DefaultReplicas = 2

// statsTimeout bounds how long a gateway stats scrape waits on each
// backend's /v1/stats. Stats are cheap counters server-side; a backend
// that cannot answer within this is wedged and reported without a
// stats document rather than stalling the scrape.
const statsTimeout = 5 * time.Second

// RouterOptions configures a Router.
type RouterOptions struct {
	// Backends are the backend base URLs (e.g. "http://10.0.0.3:8080").
	// Required, and fixed for the router's lifetime.
	Backends []string
	// Replicas is the owner-set size per key (0 = DefaultReplicas,
	// clamped to the backend count). Failover never leaves the owner set:
	// a key's worlds are only ever built on its replicas.
	Replicas int
	// VNodes is the virtual-node count per backend on the ring
	// (0 = DefaultVNodes).
	VNodes int
	// Seed is the routing seed for requests that do not override one. It
	// must match the backends' -seed so the gateway routes a defaulted
	// request to the world the backend will actually serve.
	Seed uint64
	// ProbeInterval / ProbeThreshold tune the per-backend health state
	// (0 = package defaults): the probe period and the wait between a
	// down backend's trial requests, and the consecutive probe or
	// request failures that take a backend down.
	ProbeInterval  time.Duration
	ProbeThreshold int
	// HTTPClient is shared by all backend clients (nil =
	// http.DefaultClient). It must not impose a global timeout shorter
	// than a cold offline build.
	HTTPClient *http.Client
	// HedgePercentile arms hedged sub-requests: a select sub-request
	// still in flight past the fleet's recent p-th latency percentile is
	// raced against the next replica owner, first success wins. Safe
	// because replicas are bit-identical for the same request (the
	// determinism suite proves it). 0 disables hedging.
	HedgePercentile float64
	// HedgeMinSamples is how many latency samples must accumulate before
	// hedging arms (0 = DefaultHedgeMinSamples).
	HedgeMinSamples int
	// AttemptTimeout bounds each individual forwarded HTTP attempt,
	// distinct from the request's own deadline: a hung backend costs one
	// attempt timeout and a failover, not the whole deadline_ms. 0 leaves
	// attempts bounded only by the caller's context.
	AttemptTimeout time.Duration
}

// backendCounters is one backend's routing ledger (atomics).
type backendCounters struct {
	requests int64
	failures int64
}

// Router routes v1 selection traffic across a fixed backend fleet: each
// (task, seed) world hashes to a stable replica owner set on a
// consistent-hash ring, batch requests scatter across the world's live
// owners and gather back in request order, and a sub-request that hits a
// dead or failing backend fails over to the next replica. Router
// implements api.API, so the gateway serves the exact v1 contract of a
// single backend — clients cannot tell the difference (except for the
// per-target "backend" field reporting who served them).
type Router struct {
	ring    *Ring
	health  *Health
	clients map[string]*api.Client
	opts    RouterOptions

	counters  map[string]*backendCounters
	failovers int64 // atomic
	hedges    int64 // atomic: hedged sub-requests fired
	hedgeWins int64 // atomic: hedges whose response was the one used
	latency   *admission.Window
}

// NewRouter builds a router over a fixed backend set. Start begins health
// probing; until then every backend is optimistically alive.
func NewRouter(opts RouterOptions) (*Router, error) {
	if opts.Replicas <= 0 {
		opts.Replicas = DefaultReplicas
	}
	if opts.Replicas > len(opts.Backends) {
		opts.Replicas = len(opts.Backends)
	}
	ring, err := NewRing(opts.Backends, opts.VNodes)
	if err != nil {
		return nil, err
	}
	if opts.HedgeMinSamples <= 0 {
		opts.HedgeMinSamples = DefaultHedgeMinSamples
	}
	r := &Router{
		ring:     ring,
		health:   newHealth(opts.Backends, opts.ProbeInterval, opts.ProbeThreshold),
		clients:  make(map[string]*api.Client, len(opts.Backends)),
		counters: make(map[string]*backendCounters, len(opts.Backends)),
		opts:     opts,
		latency:  admission.NewWindow(DefaultHedgeWindow),
	}
	for _, b := range opts.Backends {
		c := api.NewClient(b, opts.HTTPClient)
		if opts.AttemptTimeout > 0 {
			c = c.WithAttemptTimeout(opts.AttemptTimeout)
		}
		r.clients[b] = c
		r.counters[b] = &backendCounters{}
	}
	return r, nil
}

// Start launches health probing until ctx is canceled or Close is called.
// Probes feed the same per-backend state as request outcomes: a backend
// that died between requests goes down without costing live traffic the
// discovery, and a healthy probe re-admits a backend after a fault
// schedule drains.
func (r *Router) Start(ctx context.Context) {
	r.health.start(ctx, func(ctx context.Context, node string) (string, error) {
		h, err := r.clients[node].Healthz(ctx)
		if err != nil {
			return "", err
		}
		return h.Instance, nil
	})
}

// Close stops health probing.
func (r *Router) Close() { r.health.close() }

// Health exposes the per-backend health state (for readiness gates and
// tests).
func (r *Router) Health() *Health { return r.health }

// Owners returns the replica owner set for one world, in ring priority
// order — the routing decision as a pure function, for tests and ops.
func (r *Router) Owners(task string, seed uint64) []string {
	return r.ring.Owners(RouteKey(task, seed), r.opts.Replicas)
}

// routeSeed resolves the seed a request routes by.
func (r *Router) routeSeed(req *api.SelectRequest) uint64 {
	if req.Seed != nil {
		return *req.Seed
	}
	return r.opts.Seed
}

// retryable reports whether a backend failure may succeed on another
// replica. The contract's own predicate decides for typed errors
// (unavailable, rate-limited, overloaded are transient; contract
// rejections and cancellations fail identically everywhere); an untyped
// failure — a connection error, a 5xx — is node-local and worth a
// failover.
func retryable(err error) bool {
	return api.Retryable(err) || api.Code(err) == api.CodeInternal
}

// shed reports whether err is a backend's typed load shedding: a live
// process answering "not now" with a Retry-After hint.
func shed(err error) bool {
	return errors.Is(err, api.ErrOverloaded) || errors.Is(err, api.ErrRateLimited)
}

// record folds one forwarded attempt's outcome into the backend's
// health and routing counters, and reports whether the caller may fail
// over. Only retryable failures fail over: a deterministic rejection
// fails identically everywhere, and an error observed after the caller's
// context died (its own cancellation, or a hedge race loser canceled by
// the winner) says nothing about the backend. Shedding fails over but
// does not count against the backend's health: a briefly overloaded
// fleet must not read as down, which would also fail gateway readiness
// and pull more traffic onto the backends that are left.
func (r *Router) record(ctx context.Context, node string, err error) (failover bool) {
	if err == nil {
		r.health.succeed(node, "")
		return false
	}
	if !retryable(err) || ctx.Err() != nil {
		return false
	}
	atomic.AddInt64(&r.counters[node].failures, 1)
	if !shed(err) {
		r.health.fail(node)
	}
	return true
}

// forward sends one sub-request down a candidate list, failing over on
// retryable errors. It returns the first success — the serving backend's
// node URL plus its self-reported instance id — or the terminal error.
func (r *Router) forward(ctx context.Context, candidates []string, send func(ctx context.Context, c *api.Client) error) (node, instance string, err error) {
	var lastErr error
	tried := 0
	for _, node := range candidates {
		if !r.health.admit(node) {
			continue
		}
		if tried++; tried > 1 {
			atomic.AddInt64(&r.failovers, 1)
		}
		atomic.AddInt64(&r.counters[node].requests, 1)
		var instance string
		err := send(api.WithInstanceCapture(ctx, &instance), r.clients[node])
		if !r.record(ctx, node, err) {
			if err != nil {
				return "", "", err
			}
			return node, instance, nil
		}
		lastErr = err
	}
	return "", "", exhausted(len(candidates), tried, lastErr)
}

// exhausted is the typed refusal for a candidate list that produced no
// answer: every admitted backend failed retryably, or none was admitted
// at all because every one is down and inside its trial wait. Either way
// it is retryable — the next trial or probe re-admits a recovered
// backend.
func exhausted(candidates, tried int, lastErr error) error {
	if tried == 0 {
		return fmt.Errorf("%w: all %d candidate backends are down", api.ErrUnavailable, candidates)
	}
	return fmt.Errorf("%w: all %d candidate backends failed, last: %v", api.ErrUnavailable, tried, lastErr)
}

// attempt is one backend's answer to a select sub-request.
type attempt struct {
	node, instance string
	resp           *api.SelectResponse
	err            error
	failover       bool // record's verdict: err may succeed on another replica
}

// attemptOne sends a select sub-request to one backend, recording its
// routing counters, its latency on success, and its health.
func (r *Router) attemptOne(ctx context.Context, node string, sub *api.SelectRequest) attempt {
	atomic.AddInt64(&r.counters[node].requests, 1)
	var instance string
	start := time.Now()
	resp, err := r.clients[node].Select(api.WithInstanceCapture(ctx, &instance), sub)
	if failover := r.record(ctx, node, err); err != nil {
		return attempt{node: node, err: err, failover: failover}
	}
	r.latency.Observe(time.Since(start))
	return attempt{node: node, instance: instance, resp: resp}
}

// hedgeDelay reports the armed hedging trigger: the fleet's recent p-th
// latency percentile, once enough samples accumulated. ok is false while
// hedging is disabled or unwarmed.
func (r *Router) hedgeDelay() (time.Duration, bool) {
	if r.opts.HedgePercentile <= 0 || r.latency.Len() < r.opts.HedgeMinSamples {
		return 0, false
	}
	return r.latency.Percentile(r.opts.HedgePercentile)
}

// hedgedPair races primary against a secondary: when the primary is
// still in flight past `delay`, next picks the secondary (admitting it
// only now, so a down backend's trial is never spent on a hedge that does
// not fire) and both race. The first success wins and the loser's request
// is canceled, so the caller always gets exactly one report — replicas
// are bit-identical for the same request, which is what makes racing
// them safe.
func (r *Router) hedgedPair(ctx context.Context, primary string, delay time.Duration, sub *api.SelectRequest, next func() string) attempt {
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan attempt, 2) // buffered: the loser must never block
	go func() { ch <- r.attemptOne(hctx, primary, sub) }()
	timer := time.NewTimer(delay)
	defer timer.Stop()

	var first attempt
	var secondary string // set once the hedge fires
	select {
	case first = <-ch:
	case <-timer.C:
		if secondary = next(); secondary != "" {
			atomic.AddInt64(&r.hedges, 1)
			go func() { ch <- r.attemptOne(hctx, secondary, sub) }()
		}
		first = <-ch
	}
	if first.err == nil {
		if first.node == secondary {
			atomic.AddInt64(&r.hedgeWins, 1)
		}
		return first
	}
	if secondary != "" {
		// The first finisher failed; the race's other leg may still win.
		if second := <-ch; second.err == nil {
			if second.node == secondary {
				atomic.AddInt64(&r.hedgeWins, 1)
			}
			return second
		}
	}
	return first
}

// forwardSelect drives one select sub-request down a candidate list:
// failover on retryable errors, plus hedged pairs when the latency
// window arms them. Hedge traffic is not a failover — the failover
// counter keeps meaning "a backend failed and another answered".
// Candidates are admitted one at a time, as the request reaches them, so
// a down backend's one trial per interval always carries a request.
func (r *Router) forwardSelect(ctx context.Context, candidates []string, sub *api.SelectRequest) attempt {
	var lastErr error
	tried := 0
	// next admits the first candidate after the last one consumed.
	i := -1
	next := func() string {
		for i++; i < len(candidates); i++ {
			if r.health.admit(candidates[i]) {
				tried++
				return candidates[i]
			}
		}
		return ""
	}
	for node := next(); node != ""; node = next() {
		if tried > 1 {
			atomic.AddInt64(&r.failovers, 1)
		}
		var res attempt
		if delay, ok := r.hedgeDelay(); ok && i+1 < len(candidates) {
			res = r.hedgedPair(ctx, node, delay, sub, next)
		} else {
			res = r.attemptOne(ctx, node, sub)
		}
		if res.err == nil {
			return res
		}
		if !res.failover {
			// A deterministic rejection or the caller's own cancellation
			// is not a backend failure.
			return attempt{err: res.err}
		}
		lastErr = res.err
	}
	return attempt{err: exhausted(len(candidates), tried, lastErr)}
}

// subResult is one scattered sub-request's outcome.
type subResult struct {
	indices  []int // original target indices, in sub-request order
	resp     *api.SelectResponse
	node     string // serving backend URL (unique by ring construction)
	instance string // its self-reported instance id (may be empty)
	err      error
}

// Select implements api.API: it scatters the request's targets across the
// world's live replica owners, forwards each slice concurrently through
// the backend clients (with failover), and gathers the per-target results
// back in request order. A single-target request keeps its RPC semantics:
// its failure is the request's failure with the backend's status.
func (r *Router) Select(ctx context.Context, req *api.SelectRequest) (*api.SelectResponse, error) {
	if req == nil {
		return nil, fmt.Errorf("%w: nil request", api.ErrBadRequest)
	}
	// The contract's one validation gate, same as the dispatcher and the
	// HTTP handler: a malformed request dies here, not on a backend.
	if err := req.Validate(); err != nil {
		return nil, err
	}
	seed := r.routeSeed(req)
	owners, alive := r.health.upFirst(r.Owners(req.Task, seed))

	// Scatter: slice the batch across the world's live owners. Every
	// owner holds (or will build) the same world, so spreading a batch
	// over the replica set parallelizes the online phase across machines
	// without costing any extra offline builds. Target order inside each
	// slice, and slice-to-owner assignment, are deterministic. With every
	// owner down the batch stays whole, so one slice takes whichever
	// owner's trial is due.
	fanout := min(max(alive, 1), len(req.Targets))
	groups := make([]subResult, fanout)
	for i := range req.Targets {
		g := &groups[i%fanout]
		g.indices = append(g.indices, i)
	}

	start := time.Now()
	var wg sync.WaitGroup
	for gi := range groups {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			g := &groups[gi]
			sub := *req
			sub.Targets = make([]string, len(g.indices))
			for j, idx := range g.indices {
				sub.Targets[j] = req.Targets[idx]
			}
			// Failover order: this slice's assigned owner first, then the
			// rest of the owner set in priority order.
			candidates := append([]string{owners[gi]}, deleteAt(owners, gi)...)
			res := r.forwardSelect(ctx, candidates, &sub)
			g.node, g.instance, g.resp, g.err = res.node, res.instance, res.resp, res.err
		}(gi)
	}
	wg.Wait()

	// Gather, preserving request order and per-target error codes.
	out := &api.SelectResponse{
		APIVersion: api.Version,
		Task:       req.Task,
		Seed:       seed,
		Results:    make([]api.TargetResult, len(req.Targets)),
	}
	builds := make(map[string]int, fanout) // per distinct backend, not per slice
	for gi := range groups {
		g := &groups[gi]
		// Never trust a remote process's response shape: a skewed or
		// broken backend answering 200 with the wrong result count must
		// degrade to a per-target error, not an index panic.
		if g.err == nil && (g.resp == nil || len(g.resp.Results) != len(g.indices)) {
			got := 0
			if g.resp != nil {
				got = len(g.resp.Results)
			}
			g.err = fmt.Errorf("backend %q returned %d results for %d targets", g.node, got, len(g.indices))
		}
		if g.err != nil {
			if len(req.Targets) == 1 {
				// RPC semantics pass through the gateway untouched.
				return nil, g.err
			}
			msg, code := g.err.Error(), api.Code(g.err)
			for _, idx := range g.indices {
				out.Results[idx] = api.TargetResult{Target: req.Targets[idx], Error: msg, ErrorCode: code}
				out.Failed++
			}
			continue
		}
		if out.Strategy == "" {
			out.Strategy = g.resp.Strategy
		}
		for j, idx := range g.indices {
			tr := g.resp.Results[j]
			if tr.Backend == "" {
				// Prefer the self-reported instance id; fall back to the
				// node URL so the serving backend is always identifiable.
				if tr.Backend = g.instance; tr.Backend == "" {
					tr.Backend = g.node
				}
			}
			out.Results[idx] = tr
			if tr.Error != "" {
				out.Failed++
			}
			if tr.Truncated {
				out.Truncated++
			}
		}
		out.TotalEpochs += g.resp.TotalEpochs
		// Dedupe the lifetime counter by node URL — unique by ring
		// construction, unlike instance ids a fleet may misconfigure to
		// collide (e.g. every backend defaulting to "[::]:8080").
		builds[g.node] = g.resp.OfflineBuilds
	}
	if out.Strategy == "" {
		// Every slice failed; render the strategy the backends would have.
		if strat, err := core.ParseStrategy(req.Strategy); err == nil {
			out.Strategy = string(strat)
		} else {
			out.Strategy = req.Strategy
		}
	}
	for _, b := range builds {
		out.OfflineBuilds += b
	}
	out.WallMillis = time.Since(start).Milliseconds()
	return out, nil
}

// deleteAt returns a copy of s without the element at i.
func deleteAt(s []string, i int) []string {
	out := make([]string, 0, len(s)-1)
	out = append(out, s[:i]...)
	return append(out, s[i+1:]...)
}

// Targets implements api.API by forwarding to the task's owner set with
// failover: the catalog is deterministic in (task, seed), so any owner
// answers identically.
func (r *Router) Targets(ctx context.Context, task string) (*api.TargetsResponse, error) {
	if task == "" {
		return nil, fmt.Errorf("%w: missing task", api.ErrBadRequest)
	}
	var resp *api.TargetsResponse
	owners, _ := r.health.upFirst(r.Owners(task, r.opts.Seed))
	_, _, err := r.forward(ctx, owners, func(ctx context.Context, c *api.Client) error {
		var err error
		resp, err = c.Targets(ctx, task)
		return err
	})
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// Stats implements api.API: fleet-wide sums at the top level plus the
// gateway's ring shape, routing counters and per-backend detail.
func (r *Router) Stats(ctx context.Context) (*api.Stats, error) {
	snap, skips := r.health.snapshot()
	g := &api.GatewayStats{
		Backends:     len(r.opts.Backends),
		VNodes:       r.ring.VNodes(),
		Replicas:     r.opts.Replicas,
		Failovers:    atomic.LoadInt64(&r.failovers),
		BreakerSkips: skips,
		Hedges:       atomic.LoadInt64(&r.hedges),
		HedgeWins:    atomic.LoadInt64(&r.hedgeWins),
		BackendStats: make([]api.BackendStats, len(snap)),
	}
	out := &api.Stats{APIVersion: api.Version, Gateway: g}

	// Fetch backend stats concurrently and under a deadline; a dead or
	// wedged backend contributes its routing counters but no stats
	// document — a monitoring scrape must never hang on one slow node.
	ctx, cancel := context.WithTimeout(ctx, statsTimeout)
	defer cancel()
	var wg sync.WaitGroup
	for i, ps := range snap {
		bs := &g.BackendStats[i]
		bs.URL = ps.node
		bs.Instance = ps.instance
		bs.Alive = ps.alive
		bs.DownEvents = ps.downEvents
		bs.Breaker = ps.breaker
		bs.Requests = atomic.LoadInt64(&r.counters[ps.node].requests)
		bs.Failures = atomic.LoadInt64(&r.counters[ps.node].failures)
		if ps.alive {
			g.Alive++
			wg.Add(1)
			go func(node string, bs *api.BackendStats) {
				defer wg.Done()
				if st, err := r.clients[node].Stats(ctx); err == nil {
					bs.Stats = st
				}
			}(ps.node, bs)
		}
	}
	wg.Wait()
	for i := range g.BackendStats {
		st := g.BackendStats[i].Stats
		if st == nil {
			continue
		}
		out.OfflineBuilds += st.OfflineBuilds
		out.TotalEpochs += st.TotalEpochs
		out.TrainEpochs += st.TrainEpochs
		out.Cache.Capacity += st.Cache.Capacity
		out.Cache.Resident += st.Cache.Resident
		out.Cache.InUse += st.Cache.InUse
		out.Cache.Hits += st.Cache.Hits
		out.Cache.Misses += st.Cache.Misses
		out.Cache.Evictions += st.Cache.Evictions
		out.Cache.Builds += st.Cache.Builds
		out.Cache.BuildFailures += st.Cache.BuildFailures
		out.Cache.BuildMillis += st.Cache.BuildMillis
		if st.PersistDegraded && !out.PersistDegraded {
			out.PersistDegraded = true
			out.PersistError = st.PersistError
		}
		out.Panics += st.Panics
		out.DegradedWorlds += st.DegradedWorlds
		out.DegradedServes += st.DegradedServes
		if st.Artifacts != nil {
			if out.Artifacts == nil {
				out.Artifacts = &api.ArtifactStats{}
			}
			out.Artifacts.Hits += st.Artifacts.Hits
			out.Artifacts.Fetches += st.Artifacts.Fetches
			out.Artifacts.FetchFailures += st.Artifacts.FetchFailures
			out.Artifacts.FallbackBuilds += st.Artifacts.FallbackBuilds
		}
	}
	return out, nil
}
