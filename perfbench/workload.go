package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"

	"twophase/internal/api"
	"twophase/internal/core"
	"twophase/internal/datahub"
)

// world names one (task, seed) world, keyed like the store and the ring.
type world struct {
	task string
	seed uint64
}

func (w world) key() string { return fmt.Sprintf("%s-seed%d", w.task, w.seed) }

// targets lists the world's target datasets in catalog order.
func (w world) targets() []string {
	specs := datahub.NLPTargets()
	if w.task == datahub.TaskCV {
		specs = datahub.CVTargets()
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// variant is one strategy setting of a workload's request mix; weight is
// its number of copies per target in a shuffled deck.
type variant struct {
	name      string
	strategy  core.Strategy
	prefilter int
	weight    int
}

// reqKey names one distinct request of a workload.
type reqKey struct {
	w       world
	target  string
	variant int
}

// workload is one closed-loop traffic mix and the fleet it runs against.
// Its one-line why lives in BENCHMARK.json.
type workload struct {
	name string
	// clients is the number of closed-loop clients, each with one
	// connection; every client waits for its reply before sending again.
	clients int
	// loads and bypasses name the layers the workload is expected to keep
	// busy or leave idle (printed as the run's provenance; the README
	// does not repeat them).
	loads, bypasses []string
	worlds          []world
	variants        []variant
	maxEpochs       *int
	// backends is the fleet size behind the gateway; with more than one,
	// every world has exactly one owner, which warms it at startup.
	backends  int
	cacheSize int
	// churn marks a workload whose requests visit its worlds round robin,
	// more worlds than the backend caches, so every request reloads its
	// world: the backend runs with a store and no warm worlds, and the
	// traced run decomposes the load path on a fresh assembly.
	churn bool
	// blocking lists the layers on the request's critical path, in order;
	// nested maps a layer timed inside a blocking one to its parent.
	blocking []string
	nested   map[string]string
}

func intPtr(n int) *int { return &n }

var workloads = []*workload{
	{
		name:    "warm-select",
		clients: 2,
		// The worlds stay resident, but a model keeps only 8 feature
		// frames, fewer than a world's 4 targets x 3 splits, so requests
		// still re-extract features.
		loads:    []string{"shard", "api", "lifecycle (hits)", "modelhub extraction (feature-cache misses)", "recall", "proxy", "selection", "trainer", "numeric", "lsq"},
		bypasses: []string{"lifecycle misses", "store", "artifact", "synth", "perfmatrix"},
		worlds:   []world{{datahub.TaskNLP, 42}, {datahub.TaskCV, 42}},
		variants: []variant{
			{name: "two-phase", strategy: core.StrategyTwoPhase, weight: 7},
			{name: "prefilter", strategy: core.StrategyTwoPhase, prefilter: 3, weight: 2},
			{name: "lsq", strategy: core.StrategyLSQ, weight: 1},
		},
		backends: 2,
		blocking: []string{"shard.forward_ms", "api.http_ms", "lifecycle.acquire_ms", "modelhub.extract_ms", "recall.recall_ms", "lsq.rank_ms", "lsq.prefilter_ms", "selection.fine_ms"},
	},
	{
		name:      "world-churn",
		clients:   1,
		loads:     []string{"shard", "api", "lifecycle (misses)", "store", "artifact", "synth", "recall.Rehydrate", "modelhub extraction", "recall", "proxy"},
		bypasses:  []string{"trainer epochs", "lsq", "perfmatrix", "offline builds"},
		worlds:    []world{{datahub.TaskNLP, 101}, {datahub.TaskNLP, 102}, {datahub.TaskNLP, 103}},
		variants:  []variant{{name: "two-phase", strategy: core.StrategyTwoPhase, weight: 1}},
		maxEpochs: intPtr(0),
		backends:  1,
		cacheSize: 2,
		churn:     true,
		blocking:  []string{"shard.forward_ms", "api.http_ms", "lifecycle.acquire_ms", "modelhub.extract_ms", "recall.recall_ms", "selection.fine_ms"},
		nested: map[string]string{
			"store.read_ms":       "lifecycle.acquire_ms",
			"artifact.decode_ms":  "lifecycle.acquire_ms",
			"core.assemble_ms":    "lifecycle.acquire_ms",
			"synth.world_ms":      "core.assemble_ms",
			"recall.rehydrate_ms": "core.assemble_ms",
		},
	},
}

func findWorkload(name string) (*workload, error) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, nil
		}
	}
	names := make([]string, len(workloads))
	for i, wl := range workloads {
		names[i] = wl.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// keys lists the workload's distinct requests in a fixed order.
func (wl *workload) keys() []reqKey {
	var out []reqKey
	for _, w := range wl.worlds {
		for _, t := range w.targets() {
			for v := range wl.variants {
				out = append(out, reqKey{w: w, target: t, variant: v})
			}
		}
	}
	return out
}

// request renders a distinct request on the wire. The seed is always
// explicit, so the gateway routes it and the backend resolves it the same
// way whatever the servers' default seed is.
func (wl *workload) request(k reqKey) *api.SelectRequest {
	v := wl.variants[k.variant]
	seed := k.w.seed
	return &api.SelectRequest{
		Task:    k.w.task,
		Targets: []string{k.target},
		SelectOptions: api.SelectOptions{
			Strategy:      string(v.strategy),
			Seed:          &seed,
			MaxEpochs:     wl.maxEpochs,
			PrefilterTopK: v.prefilter,
		},
	}
}

// generator yields one client's request sequence: shuffled decks in
// which every distinct request appears its variant's weight times, so the
// strategy mix is exact per deck and the order comes from the seed. A
// churn workload keeps one deck per world and visits them in turn.
type generator struct {
	decks [][]reqKey
	pos   []int
	rng   *rand.Rand
	k     int
}

func newGenerator(wl *workload, seed uint64, client int) *generator {
	g := &generator{rng: rand.New(rand.NewPCG(seed, uint64(client)+1))}
	deck := func(keep func(reqKey) bool) []reqKey {
		var d []reqKey
		for _, k := range wl.keys() {
			for range wl.variants[k.variant].weight {
				if keep(k) {
					d = append(d, k)
				}
			}
		}
		g.shuffle(d)
		return d
	}
	if wl.churn {
		for _, w := range wl.worlds {
			g.decks = append(g.decks, deck(func(k reqKey) bool { return k.w == w }))
		}
	} else {
		g.decks = [][]reqKey{deck(func(reqKey) bool { return true })}
	}
	g.pos = make([]int, len(g.decks))
	return g
}

func (g *generator) shuffle(d []reqKey) {
	g.rng.Shuffle(len(d), func(i, j int) { d[i], d[j] = d[j], d[i] })
}

func (g *generator) next() reqKey {
	i := g.k % len(g.decks)
	g.k++
	if g.pos[i] == len(g.decks[i]) {
		g.shuffle(g.decks[i])
		g.pos[i] = 0
	}
	k := g.decks[i][g.pos[i]]
	g.pos[i]++
	return k
}

// checkResponse compares a served answer with the in-process reference
// report of the same request: winner, members, accuracies, epochs,
// recalled count and truncation. wall_ms and backend are not compared.
func checkResponse(resp *api.SelectResponse, want *core.Report) error {
	if resp.Failed != 0 || len(resp.Results) != 1 {
		return fmt.Errorf("%d results, %d failed", len(resp.Results), resp.Failed)
	}
	r := resp.Results[0]
	recalled := 0
	if want.Recall != nil {
		recalled = len(want.Recall.Recalled)
	}
	switch {
	case r.Error != "":
		return fmt.Errorf("%s: %s (%s)", r.Target, r.Error, r.ErrorCode)
	case resp.Strategy != string(want.Strategy):
		return fmt.Errorf("%s: strategy %q, want %q", r.Target, resp.Strategy, want.Strategy)
	case r.Target != want.Target:
		return fmt.Errorf("target %q, want %q", r.Target, want.Target)
	case r.Winner != want.Outcome.Winner:
		return fmt.Errorf("%s: winner %q, want %q", r.Target, r.Winner, want.Outcome.Winner)
	case !slices.Equal(r.Members, want.Members):
		return fmt.Errorf("%s: members %v, want %v", r.Target, r.Members, want.Members)
	case r.ValAcc != want.Outcome.WinnerVal || r.TestAcc != want.Outcome.WinnerTest:
		return fmt.Errorf("%s: accuracies %v/%v, want %v/%v", r.Target, r.ValAcc, r.TestAcc, want.Outcome.WinnerVal, want.Outcome.WinnerTest)
	case r.Epochs != want.TotalEpochs():
		return fmt.Errorf("%s: epochs %v, want %v", r.Target, r.Epochs, want.TotalEpochs())
	case r.Recalled != recalled:
		return fmt.Errorf("%s: recalled %d, want %d", r.Target, r.Recalled, recalled)
	case r.Truncated != want.Truncated:
		return fmt.Errorf("%s: truncated %v, want %v", r.Target, r.Truncated, want.Truncated)
	}
	return nil
}

// quality holds the paper's cost and quality figures over a workload's
// distinct requests, each weighted by its share of the mix.
type quality struct {
	epochs, regret, hitRate float64
}

// computeQuality scores the reference reports against the oracle: regret
// is the oracle-best test accuracy minus the winner's oracle accuracy, in
// percentage points; a recall hit is a recalled set holding a model with
// the oracle-best accuracy.
func computeQuality(ctx context.Context, wl *workload, fws map[world]*core.Framework, reports map[reqKey]*core.Report) (quality, error) {
	var weight, epochs, regret, recallWeight, hits float64
	for _, w := range wl.worlds {
		fw := fws[w]
		for _, t := range w.targets() {
			d, err := fw.Catalog.Get(t)
			if err != nil {
				return quality{}, err
			}
			oracle, err := fw.OracleAccuracies(ctx, d)
			if err != nil {
				return quality{}, err
			}
			best := 0.0
			for _, acc := range oracle {
				best = max(best, acc)
			}
			for v, vr := range wl.variants {
				rep := reports[reqKey{w: w, target: t, variant: v}]
				wt := float64(vr.weight)
				weight += wt
				epochs += wt * rep.TotalEpochs()
				regret += wt * 100 * (best - oracle[rep.Outcome.Winner])
				if rep.Recall == nil {
					continue
				}
				recallWeight += wt
				if slices.ContainsFunc(rep.Recall.Recalled, func(m string) bool { return oracle[m] == best }) {
					hits += wt
				}
			}
		}
	}
	return quality{epochs: epochs / weight, regret: regret / weight, hitRate: hits / recallWeight}, nil
}
