package shard

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"twophase/internal/api"
)

// testClock is a manual clock wired into Health's clock hook.
type testClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *testClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// artifactStub is a backend's artifact endpoint: a typed miss for every
// document, or a retryable failure while broken. It counts requests.
type artifactStub struct {
	broken atomic.Bool
	hits   atomic.Int64
}

func (s *artifactStub) OpenArtifact(kind, name string) ([]byte, uint64, error) {
	s.hits.Add(1)
	if s.broken.Load() {
		return nil, 0, fmt.Errorf("%w: disk on fire", api.ErrUnavailable)
	}
	return nil, 0, fmt.Errorf("%w: %s/%s", api.ErrUnknownArtifact, kind, name)
}

// healthInterval is the probe period and trial wait under test. The probe
// ticker never fires within a test; the manual clock drives the trials.
const healthInterval = time.Hour

// healthEnv is one scenario's world: two stub backends owning the nlp/42
// world, a router and an artifact fetcher over them, and the one Health
// both feed, on a manual clock.
type healthEnv struct {
	t     *testing.T
	clk   *testClock
	r     *Router
	fetch func(ctx context.Context, kind, name string) ([]byte, error)
	a, b  string // the world's owners, in ring priority order
	stubs map[string]*stubBackend
	arts  map[string]*artifactStub
}

func newHealthEnv(t *testing.T, threshold int) *healthEnv {
	t.Helper()
	e := &healthEnv{
		t:     t,
		clk:   &testClock{now: time.Unix(1000, 0)},
		stubs: map[string]*stubBackend{},
		arts:  map[string]*artifactStub{},
	}
	var urls []string
	for i := 0; i < 2; i++ {
		b := &stubBackend{instance: fmt.Sprintf("inst-%d", i), epochsPerTarget: 2, builds: 1}
		art := &artifactStub{}
		b.srv = httptest.NewServer(api.NewHandlerWith(b, api.HandlerOptions{Instance: b.instance, Artifacts: art}))
		t.Cleanup(b.srv.Close)
		e.stubs[b.srv.URL], e.arts[b.srv.URL] = b, art
		urls = append(urls, b.srv.URL)
	}
	r, err := NewRouter(RouterOptions{
		Backends: urls, Replicas: 2, Seed: 42,
		ProbeInterval: healthInterval, ProbeThreshold: threshold,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.health.now = e.clk.Now
	if r.Health().Ready() {
		t.Fatal("gateway ready before the first probe round")
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	r.Start(ctx)
	t.Cleanup(r.Close)
	if err := r.Health().WaitProbed(ctx); err != nil {
		t.Fatal(err)
	}
	e.r = r
	owners := r.Owners("nlp", 42)
	e.a, e.b = owners[0], owners[1]
	// The fetcher shares the router's Health: one state per peer, whichever
	// path observed the outcome. Self is outside the ring, so both owners
	// are fetch candidates.
	e.fetch = newArtifactFetcher(r.ring, "http://self.invalid", 2, nil, r.health)
	return e
}

// stats reads the v1.1 wire document and checks the agreement invariant
// every snapshot must hold: alive and breaker never disagree, the alive
// count matches, and gateway readiness follows alive.
func (e *healthEnv) stats() *api.GatewayStats {
	e.t.Helper()
	st, err := e.r.Stats(context.Background())
	if err != nil {
		e.t.Fatal(err)
	}
	g := st.Gateway
	alive := 0
	for _, bs := range g.BackendStats {
		if bs.Alive != (bs.Breaker == "closed") {
			e.t.Fatalf("%s: alive=%v but breaker=%q", bs.URL, bs.Alive, bs.Breaker)
		}
		if bs.Alive {
			alive++
		}
	}
	if alive != g.Alive {
		e.t.Fatalf("alive count %d, %d backends report alive", g.Alive, alive)
	}
	if ready := e.r.Health().Ready(); ready != (alive > 0) {
		e.t.Fatalf("ready=%v with %d backends alive", ready, alive)
	}
	return g
}

// backend returns node's per-backend stats entry.
func (e *healthEnv) backend(node string) api.BackendStats {
	e.t.Helper()
	for _, bs := range e.stats().BackendStats {
		if bs.URL == node {
			return bs
		}
	}
	e.t.Fatalf("no stats for %s", node)
	return api.BackendStats{}
}

// selectOne sends a single-target select for the nlp/42 world.
func (e *healthEnv) selectOne() (*api.SelectResponse, error) {
	return e.r.Select(context.Background(), &api.SelectRequest{Task: "nlp", Targets: []string{"t0"}})
}

// healthStep is one event of a scenario plus the breaker state owner a
// must show afterwards.
type healthStep struct {
	what string
	do   func(e *healthEnv)
	want string
}

func failA(want string) healthStep {
	return healthStep{"fail a", func(e *healthEnv) { e.r.health.fail(e.a) }, want}
}

func succeedA(want string) healthStep {
	return healthStep{"succeed a", func(e *healthEnv) { e.r.health.succeed(e.a, "") }, want}
}

// admitA asserts whether a request may go to owner a now.
func admitA(admit bool, want string) healthStep {
	return healthStep{fmt.Sprintf("admit a (want %v)", admit), func(e *healthEnv) {
		if got := e.r.health.admit(e.a); got != admit {
			e.t.Fatalf("admit = %v, want %v", got, admit)
		}
	}, want}
}

func wait(d time.Duration, want string) healthStep {
	return healthStep{"wait " + d.String(), func(e *healthEnv) { e.clk.advance(d) }, want}
}

// probe runs one probe round in which the listed nodes fail.
func probe(failing func(e *healthEnv) []string, want string) healthStep {
	return healthStep{"probe round", func(e *healthEnv) {
		down := map[string]bool{}
		for _, n := range failing(e) {
			down[n] = true
		}
		e.r.health.probeAll(context.Background(), func(_ context.Context, node string) (string, error) {
			if down[node] {
				return "", errors.New("connection refused")
			}
			return e.stubs[node].instance, nil
		})
	}, want}
}

func none(*healthEnv) []string     { return nil }
func onlyA(e *healthEnv) []string  { return []string{e.a} }
func onlyB(e *healthEnv) []string  { return []string{e.b} }
func bothAB(e *healthEnv) []string { return []string{e.a, e.b} }

// breakSelects makes the nodes' selects fail with a decoded 503 (their
// healthz still answers); a nil error heals them.
func breakSelects(nodes func(e *healthEnv) []string, err error) healthStep {
	return healthStep{"set select failures", func(e *healthEnv) {
		for _, n := range nodes(e) {
			e.stubs[n].fail.Store(failSlot{err})
		}
	}, ""}
}

var (
	errInjected   = fmt.Errorf("%w: injected", api.ErrUnavailable)
	errOverloaded = fmt.Errorf("%w: queue full", api.ErrOverloaded)
	errLimited    = fmt.Errorf("%w: bucket empty", api.ErrRateLimited)
)

// selectServedBy asserts a select succeeds on the named owner ("a" or
// "b") and that owner a saw aSelects selects along the way.
func selectServedBy(owner string, aSelects int64, want string) healthStep {
	return healthStep{"select via " + owner, func(e *healthEnv) {
		node := e.a
		if owner == "b" {
			node = e.b
		}
		before := atomic.LoadInt64(&e.stubs[e.a].selects)
		resp, err := e.selectOne()
		if err != nil {
			e.t.Fatalf("select: %v", err)
		}
		if got := resp.Results[0].Backend; got != e.stubs[node].instance {
			e.t.Fatalf("served by %q, want owner %s", got, owner)
		}
		if got := atomic.LoadInt64(&e.stubs[e.a].selects) - before; got != aSelects {
			e.t.Fatalf("owner a saw %d selects, want %d", got, aSelects)
		}
	}, want}
}

// selectRefused asserts the select fails typed and retryable; reached
// says whether any backend saw it.
func selectRefused(reached bool, want string) healthStep {
	return healthStep{"select refused", func(e *healthEnv) {
		before := atomic.LoadInt64(&e.stubs[e.a].selects) + atomic.LoadInt64(&e.stubs[e.b].selects)
		_, err := e.selectOne()
		if !errors.Is(err, api.ErrUnavailable) || !api.Retryable(err) {
			e.t.Fatalf("refusal = %v, want typed retryable unavailable", err)
		}
		after := atomic.LoadInt64(&e.stubs[e.a].selects) + atomic.LoadInt64(&e.stubs[e.b].selects)
		if (after > before) != reached {
			e.t.Fatalf("backends saw %d selects, want reached=%v", after-before, reached)
		}
	}, want}
}

// fetchMiss asserts an artifact fetch ends in b's typed miss and reports
// how many requests owner a's artifact endpoint saw.
func fetchMiss(aHits int64, want string) healthStep {
	return healthStep{"fetch", func(e *healthEnv) {
		before := e.arts[e.a].hits.Load()
		_, err := e.fetch(context.Background(), "matrices", "nlp-seed42")
		if !errors.Is(err, api.ErrUnknownArtifact) {
			e.t.Fatalf("fetch = %v, want b's unknown_artifact miss", err)
		}
		if got := e.arts[e.a].hits.Load() - before; got != aHits {
			e.t.Fatalf("owner a's artifact endpoint saw %d requests, want %d", got, aHits)
		}
	}, want}
}

// hammer feeds both owners' state from several goroutines at once —
// outcomes, admits, scatter orders and stats snapshots racing — the shape
// of a live gateway, for the race detector. Every scatter order must
// still hold each owner exactly once.
func hammer() healthStep {
	return healthStep{"concurrent use", func(e *healthEnv) {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 100; i++ {
					node := []string{e.a, e.b}[(g+i)%2]
					switch i % 5 {
					case 0:
						e.r.health.fail(node)
					case 1:
						e.r.health.admit(node)
					case 2:
						e.r.health.succeed(node, "")
					case 3:
						ordered, up := e.r.health.upFirst([]string{e.a, e.b})
						if len(ordered) != 2 || ordered[0] == ordered[1] || up > 2 {
							e.t.Errorf("upFirst = %q, %d up: not a permutation of both owners", ordered, up)
						}
					default:
						e.r.health.snapshot()
					}
				}
			}(g)
		}
		wg.Wait()
	}, ""}
}

// peers asserts both owners' breaker states at once; the alive count on
// the wire must match the owners that are up.
func peers(a, b string) healthStep {
	return healthStep{"peers " + a + "/" + b, func(e *healthEnv) {
		if got := e.backend(e.b).Breaker; got != b {
			e.t.Fatalf("owner b breaker %q, want %q", got, b)
		}
		up := 0
		for _, st := range []string{a, b} {
			if st == "closed" {
				up++
			}
		}
		if got := e.stats().Alive; got != up {
			e.t.Fatalf("alive = %d, want %d", got, up)
		}
	}, a}
}

// instanceA asserts owner a's self-reported id, learned from probes.
func instanceA() healthStep {
	return healthStep{"instance a", func(e *healthEnv) {
		if got, want := e.backend(e.a).Instance, e.stubs[e.a].instance; got != want {
			e.t.Fatalf("instance = %q, want %q", got, want)
		}
	}, ""}
}

// closeLoop stops the probe loop; it must return promptly.
func closeLoop() healthStep {
	return healthStep{"close probe loop", func(e *healthEnv) {
		done := make(chan struct{})
		go func() { e.r.Close(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			e.t.Fatal("Close hung")
		}
	}, ""}
}

func breakArtifactsA() healthStep {
	return healthStep{"break a's artifacts", func(e *healthEnv) { e.arts[e.a].broken.Store(true) }, ""}
}

// TestPeerHealth drives the one per-peer health state through each of its
// transitions, from raw outcomes, probe rounds, routed selects and
// artifact fetches, checking owner a's breaker after every step and the
// alive/breaker/readiness agreement on the stats wire throughout.
func TestPeerHealth(t *testing.T) {
	const half = healthInterval / 2
	cases := []struct {
		name       string
		threshold  int
		steps      []healthStep
		downEvents int64 // owner a's down_events at the end
		skips      int64 // breaker_skips at the end
	}{
		{
			name: "threshold-trip", threshold: 3,
			steps: []healthStep{
				failA("closed"), failA("closed"), failA("open"),
				failA("open"), // further failures are not a second event
				admitA(true, "half-open"), succeedA("closed"),
				failA("closed"), failA("closed"), failA("open"),
			},
			downEvents: 2,
		},
		{
			name: "success-resets-streak", threshold: 3,
			steps: []healthStep{
				failA("closed"), failA("closed"),
				succeedA("closed"),
				failA("closed"), failA("closed"), // not consecutive: still up
				failA("open"),
			},
			downEvents: 1,
		},
		{
			name: "probe-failures-trip-after-threshold", threshold: 2,
			steps: []healthStep{
				probe(none, "closed"), instanceA(),
				probe(onlyA, "closed"), probe(onlyA, "open"),
				probe(onlyA, "open"),  // further failures are not a second event
				probe(none, "closed"), // one success re-admits
				probe(onlyA, "closed"), probe(onlyA, "open"),
				instanceA(), // the id survives the outages
			},
			downEvents: 2,
		},
		{
			name: "request-failures-trip-and-skip", threshold: 2,
			steps: []healthStep{
				breakSelects(onlyA, errInjected),
				selectServedBy("b", 1, "closed"),
				selectServedBy("b", 1, "open"),
				// Down owners go last: b serves, a is never reached.
				selectServedBy("b", 0, "open"),
				// Once b fails too, the failover reaches a: its first
				// trial fails, and the next request skips it.
				breakSelects(onlyB, errInjected),
				selectRefused(true, "open"),
				selectRefused(true, "open"),
			},
			downEvents: 1, skips: 1,
		},
		{
			// Shedding is a live backend answering "not now": the request
			// fails over, but the backend stays up and the gateway ready.
			name: "shed-answers-do-not-count", threshold: 2,
			steps: []healthStep{
				breakSelects(onlyA, errOverloaded),
				selectServedBy("b", 1, "closed"),
				selectServedBy("b", 1, "closed"),
				breakSelects(onlyA, errLimited),
				selectServedBy("b", 1, "closed"),
				selectServedBy("b", 1, "closed"),
				peers("closed", "closed"),
			},
		},
		{
			name: "one-trial-per-interval", threshold: 2,
			steps: []healthStep{
				failA("closed"), failA("open"),
				admitA(true, "half-open"),  // the first admit when down is a trial
				admitA(false, "half-open"), // exactly one per interval
				wait(half, "half-open"), admitA(false, "half-open"),
				succeedA("closed"), admitA(true, "closed"), // the trial's success
			},
			downEvents: 1, skips: 2,
		},
		{
			name: "failed-trial-rearms-wait", threshold: 2,
			steps: []healthStep{
				failA("closed"), failA("open"),
				admitA(true, "half-open"),
				failA("open"), // the failed trial re-arms the wait
				wait(half, "open"), admitA(false, "open"),
				wait(half, "open"),
				failA("open"), // a failure with no trial out does not re-arm
				admitA(true, "half-open"),
				wait(healthInterval, "half-open"),
				admitA(true, "half-open"), // an unanswered trial expires
				succeedA("closed"),
			},
			downEvents: 1, skips: 1,
		},
		{
			// Each wire state is entered from every state that can precede
			// it, by raw outcomes and by probe rounds alike.
			name: "breaker-wire-states", threshold: 1,
			steps: []healthStep{
				admitA(true, "closed"),
				failA("open"), admitA(true, "half-open"),
				probe(onlyA, "open"), wait(healthInterval, "open"),
				admitA(true, "half-open"), probe(none, "closed"),
				probe(onlyA, "open"), probe(none, "closed"),
			},
			downEvents: 2,
		},
		{
			name: "snapshot-and-all-up", threshold: 1,
			steps: []healthStep{
				peers("closed", "closed"),
				failA("open"), peers("open", "closed"), // b is untouched and keeps the gateway ready
				admitA(true, "half-open"), peers("half-open", "closed"), // a trial out is not up
				succeedA("closed"), peers("closed", "closed"),
			},
			downEvents: 1,
		},
		{
			name: "probe-success-readmits", threshold: 2,
			steps: []healthStep{
				probe(onlyA, "closed"), probe(onlyA, "open"),
				admitA(true, "half-open"),
				probe(onlyA, "open"), // fails the trial
				admitA(false, "open"),
				probe(none, "closed"), // no trial needed
				admitA(true, "closed"),
			},
			downEvents: 1, skips: 1,
		},
		{
			name: "all-owners-down-refused-then-trial", threshold: 2,
			steps: []healthStep{
				breakSelects(bothAB, errInjected),
				selectRefused(true, "closed"),
				selectRefused(true, "open"),
				selectRefused(true, "open"),  // both first trials fail
				selectRefused(false, "open"), // refused without a request
				breakSelects(bothAB, nil),
				wait(healthInterval, "open"),
				selectServedBy("a", 1, "closed"), // a's trial re-admits it
			},
			downEvents: 1, skips: 2,
		},
		{
			name: "fetcher-skips-failing-peer", threshold: 2,
			steps: []healthStep{
				// Typed misses are healthy answers, however many.
				fetchMiss(1, "closed"), fetchMiss(1, "closed"), fetchMiss(1, "closed"),
				breakArtifactsA(),
				fetchMiss(1, "closed"), fetchMiss(1, "open"),
				fetchMiss(1, "open"), // the first trial fails
				fetchMiss(0, "open"), // skipped straight to b
			},
			downEvents: 1, skips: 1,
		},
		{
			name: "concurrent-use", threshold: 2,
			steps: []healthStep{
				hammer(), failA(""), failA("open"), // down whatever the race left
				succeedA("closed"),
			},
			downEvents: -1, skips: -1, // counts depend on the interleaving
		},
		{
			name: "readiness-follows-alive", threshold: 2,
			steps: []healthStep{
				probe(bothAB, "closed"), probe(bothAB, "open"),
				probe(none, "closed"),
				closeLoop(),
			},
			downEvents: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newHealthEnv(t, tc.threshold)
			for i, s := range tc.steps {
				s.do(e)
				if s.want == "" {
					continue
				}
				if got := e.backend(e.a).Breaker; got != s.want {
					t.Fatalf("step %d (%s): breaker %q, want %q", i, s.what, got, s.want)
				}
			}
			g := e.stats()
			if got := e.backend(e.a).DownEvents; tc.downEvents >= 0 && got != tc.downEvents {
				t.Errorf("down_events = %d, want %d", got, tc.downEvents)
			}
			if tc.skips >= 0 && g.BreakerSkips != tc.skips {
				t.Errorf("breaker_skips = %d, want %d", g.BreakerSkips, tc.skips)
			}
		})
	}
}
