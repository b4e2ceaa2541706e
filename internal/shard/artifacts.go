package shard

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"twophase/internal/api"
	"twophase/internal/artifact"
	"twophase/internal/faultinject"
	"twophase/internal/lifecycle"
	"twophase/internal/service"
)

// fetchAttemptTimeout bounds one artifact fetch from one ring peer. The
// fetcher runs under the lifecycle's uncancelable build context, so it
// must carry its own deadline or a wedged peer would hang the build
// forever instead of falling through to the next owner.
const fetchAttemptTimeout = 10 * time.Second

// OwnedKeys filters a warm list down to the worlds this backend owns on
// the ring: the keys whose replica owner set (of size replicas) includes
// self. With every backend warming only its owned keys, fleet cold start
// builds each world replicas times total instead of once per backend —
// the rest of the fleet fetches the finished artifacts over the ring.
// A nil ring (single-node deployment) owns everything.
func OwnedKeys(keys []lifecycle.Key, ring *Ring, self string, replicas int) []lifecycle.Key {
	if ring == nil {
		return keys
	}
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	var owned []lifecycle.Key
	for _, k := range keys {
		for _, owner := range ring.Owners(RouteKey(k.Task, k.Seed), replicas) {
			if owner == self {
				owned = append(owned, k)
				break
			}
		}
	}
	return owned
}

// NewArtifactFetcher returns a service.ArtifactFetcher that resolves a
// world's ring owners and fetches the named artifact document from the
// first peer that has it. The store key ("task-seedN") IS the routing
// key, so artifact locality follows request routing: the owners tried
// here are exactly the backends whose ring-aware warmup built the world.
// Self is skipped (a local miss is why the fetcher ran), every document
// is checksum-verified before it is trusted, and each attempt carries
// its own timeout. The fetcher keeps its own per-peer Health (package
// defaults, no probe loop) so a hanging or corrupt-serving peer is
// skipped instead of every build re-paying its attempt timeout; a typed
// "unknown artifact" miss is a healthy answer and never counts against
// it. An error means no live owner had a valid copy; the caller falls
// back to a local build.
func NewArtifactFetcher(ring *Ring, self string, replicas int, hc *http.Client) func(ctx context.Context, kind, name string) ([]byte, error) {
	return newArtifactFetcher(ring, self, replicas, hc, newHealth(ring.Nodes(), 0, 0))
}

// newArtifactFetcher is NewArtifactFetcher over a caller-supplied Health.
func newArtifactFetcher(ring *Ring, self string, replicas int, hc *http.Client, health *Health) func(ctx context.Context, kind, name string) ([]byte, error) {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	if hc == nil {
		hc = &http.Client{}
	}
	var mu sync.Mutex
	clients := make(map[string]*api.Client)
	clientFor := func(node string) *api.Client {
		mu.Lock()
		defer mu.Unlock()
		c, ok := clients[node]
		if !ok {
			c = api.NewClient(node, hc)
			clients[node] = c
		}
		return c
	}
	return func(ctx context.Context, kind, name string) ([]byte, error) {
		var lastErr error
		for _, owner := range ring.Owners(name, replicas) {
			if owner == self {
				continue
			}
			if !health.admit(owner) {
				lastErr = fmt.Errorf("%s: %w: peer is down", owner, api.ErrUnavailable)
				continue
			}
			data, err := fetchOne(ctx, clientFor(owner), kind, name)
			if err == nil {
				// A peer serving bytes that fail their own checksum is
				// broken, not just missing the key.
				_, err = artifact.Verify(data)
			}
			switch {
			case err == nil:
				health.succeed(owner, "")
				return data, nil
			case errors.Is(err, api.ErrUnknownArtifact), ctx.Err() != nil:
				// A typed miss is a healthy peer answering "I don't have
				// it", and the caller's own cancellation is not the
				// peer's fault; only real failures (hangs, resets,
				// corrupt bytes) count against the peer.
			default:
				health.fail(owner)
			}
			lastErr = fmt.Errorf("%s: %w", owner, err)
		}
		if lastErr != nil {
			return nil, fmt.Errorf("shard: fetch %s/%s: %w", kind, name, lastErr)
		}
		return nil, fmt.Errorf("shard: fetch %s/%s: %w", kind, name, service.ErrNoPeers)
	}
}

// fetchOne performs one bounded fetch attempt against one peer, applying
// the fetch.request and fetch.body fault sites: a request fault hangs or
// fails the attempt before any byte moves; a body fault corrupts the
// received document (the checksum gate must catch it) or drops it
// mid-transfer after the request itself succeeded.
func fetchOne(ctx context.Context, c *api.Client, kind, name string) ([]byte, error) {
	attempt, cancel := context.WithTimeout(ctx, fetchAttemptTimeout)
	defer cancel()
	if f := faultinject.On(faultinject.SiteFetchRequest); f != nil {
		if f.Action == faultinject.ActHang {
			f.Sleep(attempt.Done())
			if err := attempt.Err(); err != nil {
				return nil, fmt.Errorf("shard: fetch request: %w: %w", f.Err(), err)
			}
		} else {
			return nil, fmt.Errorf("shard: fetch request: %w", f.Err())
		}
	}
	data, _, err := c.FetchArtifact(attempt, kind, name, "")
	if err != nil {
		return nil, err
	}
	if f := faultinject.On(faultinject.SiteFetchBody); f != nil {
		switch f.Action {
		case faultinject.ActCorrupt:
			data = f.Corrupt(data)
		case faultinject.ActHang:
			f.Sleep(attempt.Done())
		default:
			return nil, fmt.Errorf("shard: fetch body: %w: disconnected after %d bytes", f.Err(), f.Prefix(len(data)))
		}
	}
	return data, nil
}
