package shard

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"twophase/internal/api"
	"twophase/internal/artifact"
	"twophase/internal/core"
	"twophase/internal/datahub"
	"twophase/internal/faultinject"
	"twophase/internal/lifecycle"
	"twophase/internal/service"
)

// TestOwnedKeys verifies ring-aware warm filtering: with replicas=1 the
// owned sets partition the key space (every key warmed exactly once
// fleet-wide); with replicas=R every key appears in exactly R sets.
func TestOwnedKeys(t *testing.T) {
	nodes := []string{"http://a", "http://b", "http://c"}
	ring, err := NewRing(nodes, 0)
	if err != nil {
		t.Fatal(err)
	}
	var keys []lifecycle.Key
	for seed := uint64(0); seed < 16; seed++ {
		keys = append(keys, lifecycle.Key{Task: "nlp", Seed: seed}, lifecycle.Key{Task: "cv", Seed: seed})
	}
	for _, replicas := range []int{1, 2} {
		counts := make(map[lifecycle.Key]int)
		for _, n := range nodes {
			for _, k := range OwnedKeys(keys, ring, n, replicas) {
				counts[k]++
			}
		}
		for _, k := range keys {
			if counts[k] != replicas {
				t.Errorf("replicas=%d: key %v owned %d times, want %d", replicas, k, counts[k], replicas)
			}
		}
	}
	// A single-node deployment (nil ring) owns everything.
	if got := OwnedKeys(keys, nil, "self", 2); len(got) != len(keys) {
		t.Errorf("nil ring: %d keys, want all %d", len(got), len(keys))
	}
}

// TestOwnedKeysFollowRouting pins the invariant the whole artifact tier
// rests on: the warm owner set of a key is exactly the gateway's routing
// owner set, because both hash RouteKey(task, seed) == Key.String().
func TestOwnedKeysFollowRouting(t *testing.T) {
	ring, err := NewRing([]string{"http://a", "http://b", "http://c"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	k := lifecycle.Key{Task: "nlp", Seed: 7}
	if k.String() != RouteKey(k.Task, k.Seed) {
		t.Fatalf("store key %q != routing key %q", k.String(), RouteKey(k.Task, k.Seed))
	}
	owners := ring.Owners(RouteKey(k.Task, k.Seed), 2)
	for _, n := range ring.Nodes() {
		owned := len(OwnedKeys([]lifecycle.Key{k}, ring, n, 2)) == 1
		routed := n == owners[0] || n == owners[1]
		if owned != routed {
			t.Errorf("node %s: owned=%v routed=%v — warm set diverges from routing", n, owned, routed)
		}
	}
}

// TestArtifactFetcher runs the fetcher against a live peer holding real
// artifacts, a corrupt peer, and a dead peer.
func TestArtifactFetcher(t *testing.T) {
	svc, err := service.New(service.Options{
		Base:     core.Options{Seed: 42, Sizes: datahub.Sizes{Train: 60, Val: 40, Test: 48}},
		StoreDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Do(context.Background(), service.Request{Task: "nlp", Targets: []string{"tweet_eval"}}); err != nil {
		t.Fatal(err)
	}
	good := httptest.NewServer(api.NewHandlerWith(api.NewDispatcher(svc, 42), api.HandlerOptions{Artifacts: svc.Store()}))
	defer good.Close()
	// A peer that answers 200 with bytes that fail the checksum.
	corrupt := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("not an artifact document"))
	}))
	defer corrupt.Close()
	dead := "http://127.0.0.1:1"
	self := "http://self.invalid"
	ctx := context.Background()

	// All four nodes own everything (replicas = ring size), so the
	// fetcher must skip self, survive the dead and corrupt peers, and
	// land on the good one no matter the owner order.
	ring, err := NewRing([]string{good.URL, corrupt.URL, dead, self}, 0)
	if err != nil {
		t.Fatal(err)
	}
	fetch := NewArtifactFetcher(ring, self, 4, nil)
	data, err := fetch(ctx, "matrices", "nlp-seed42")
	if err != nil {
		t.Fatalf("fetch: %v", err)
	}
	if m, err := artifact.DecodeMatrix(data); err != nil || m == nil {
		t.Fatalf("fetched document does not decode: %v", err)
	}
	if _, err := fetch(ctx, "matrices", "nlp-seed99"); err == nil {
		t.Fatal("fetch of an absent world succeeded")
	}

	// With only self and unreachable peers, the fetch fails and names a
	// peer, so the caller's fallback-build log is actionable.
	lonely, err := NewRing([]string{dead, self}, 0)
	if err != nil {
		t.Fatal(err)
	}
	fetch = NewArtifactFetcher(lonely, self, 2, nil)
	if _, err := fetch(ctx, "matrices", "nlp-seed42"); err == nil || !strings.Contains(err.Error(), "127.0.0.1:1") {
		t.Fatalf("dead-fleet fetch: %v, want error naming the peer", err)
	}

	// A world whose every owner is self has no one to fetch from: the
	// typed ErrNoPeers lets the service build without logging a
	// distribution failure.
	solo, err := NewRing([]string{self}, 0)
	if err != nil {
		t.Fatal(err)
	}
	fetch = NewArtifactFetcher(solo, self, 1, nil)
	if _, err := fetch(ctx, "matrices", "nlp-seed42"); !errors.Is(err, service.ErrNoPeers) {
		t.Fatalf("solo-owner fetch: %v, want ErrNoPeers", err)
	}
}

// TestFetcherFaultSites drives the artifact fetcher through the
// fetch.request and fetch.body injection sites against a real peer: an
// injected request error fails that attempt, and an injected body
// corruption must die at the checksum gate — the fetcher never returns
// bytes that fail verification.
func TestFetcherFaultSites(t *testing.T) {
	svc, err := service.New(service.Options{
		Base:     core.Options{Seed: 42, Sizes: datahub.Sizes{Train: 60, Val: 40, Test: 48}},
		StoreDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Do(context.Background(), service.Request{Task: "nlp", Targets: []string{"tweet_eval"}}); err != nil {
		t.Fatal(err)
	}
	peer := httptest.NewServer(api.NewHandlerWith(api.NewDispatcher(svc, 42), api.HandlerOptions{Artifacts: svc.Store()}))
	defer peer.Close()
	self := "http://self.invalid"
	ring, err := NewRing([]string{peer.URL, self}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// A capped request fault fails the first attempt; with the single
	// real peer exhausted, the fetch fails typed — and the next fetch
	// (schedule drained) succeeds.
	if err := faultinject.Enable("seed=1;fetch.request:err#1"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()
	fetch := NewArtifactFetcher(ring, self, 2, nil)
	if _, err := fetch(ctx, "matrices", "nlp-seed42"); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("fetch under request fault = %v, want ErrInjected", err)
	}
	data, err := fetch(ctx, "matrices", "nlp-seed42")
	if err != nil {
		t.Fatalf("fetch after schedule drained: %v", err)
	}
	if _, err := artifact.Verify(data); err != nil {
		t.Fatalf("fetched document fails verification: %v", err)
	}

	// A corrupted body must never escape: the checksum gate rejects it,
	// the peer's health takes the failure, and no bytes are returned.
	if err := faultinject.Enable("seed=1;fetch.body:corrupt#1"); err != nil {
		t.Fatal(err)
	}
	fetch = NewArtifactFetcher(ring, self, 2, nil)
	if data, err := fetch(ctx, "matrices", "nlp-seed42"); err == nil {
		t.Fatalf("corrupted fetch returned %d bytes with nil error", len(data))
	}
	if data, err := fetch(ctx, "matrices", "nlp-seed42"); err != nil {
		t.Fatalf("fetch after corrupt fault drained: %v", err)
	} else if _, err := artifact.Verify(data); err != nil {
		t.Fatalf("post-drain document fails verification: %v", err)
	}
}
