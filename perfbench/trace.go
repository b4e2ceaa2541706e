package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"twophase/internal/api"
	"twophase/internal/core"
	"twophase/internal/lsq"
	"twophase/internal/modelhub"
	"twophase/internal/selection"
	"twophase/internal/service"
	"twophase/internal/trainer"
)

// traceRecord is one traced iteration: the gateway latency of a request
// as it arrives, and the time of every layer call made for it. The hop
// layers (shard.forward_ms, api.http_ms) are per-request differences.
type traceRecord struct {
	variant string
	e2e     float64
	layer   samples
}

// tracer times one request's layers by calling each module's public
// functions from the benchmark: through the gateway, straight to the
// owning backend, through an in-process api.Dispatcher, and then layer by
// layer on the in-process worlds.
type tracer struct {
	wl      *workload
	refs    *references
	fleet   *fleet
	gw      selecter
	disp    *api.Dispatcher
	acquire *service.Service
	workers int
}

// newTracer starts the two in-process services over the benchmark's
// store: one behind the dispatcher path, one for lifecycle timing. Each
// has the backend's cache bound, so it hits and misses as the backend
// does; on a warm workload both are warmed and their caches filled.
func newTracer(ctx context.Context, wl *workload, refs *references, f *fleet, gw selecter) (*tracer, error) {
	svc := func() (*service.Service, error) {
		s, err := service.New(service.Options{
			Base:      core.Options{Seed: wl.worlds[0].seed, Sizes: refs.sizes},
			StoreDir:  refs.dir,
			CacheSize: wl.cacheSize,
		})
		if err != nil || wl.churn {
			return s, err
		}
		for _, w := range wl.worlds {
			seed := w.seed
			if _, err := s.Do(ctx, service.Request{Task: w.task, Seed: &seed}); err != nil {
				return nil, err
			}
		}
		return s, nil
	}
	dsvc, err := svc()
	if err != nil {
		return nil, err
	}
	asvc, err := svc()
	if err != nil {
		return nil, err
	}
	t := &tracer{wl: wl, refs: refs, fleet: f, gw: gw, disp: api.NewDispatcher(dsvc, wl.worlds[0].seed), acquire: asvc, workers: runtime.GOMAXPROCS(0)}
	if !wl.churn {
		for _, k := range wl.keys() {
			if _, err := t.call(ctx, t.disp, k); err != nil {
				return nil, fmt.Errorf("fill in-process cache: %w", err)
			}
		}
	}
	return t, nil
}

// call sends one request on a path and checks the answer.
func (t *tracer) call(ctx context.Context, c selecter, k reqKey) (float64, error) {
	start := time.Now()
	resp, err := c.Select(ctx, t.wl.request(k))
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	if err == nil {
		err = checkResponse(resp, t.refs.reports[k])
	}
	return ms, err
}

// iteration runs one traced request. The first gateway call is the
// end-to-end sample, meeting the world and feature caches as the untraced
// run does. The same request then goes straight to the owning backend,
// through the gateway again and twice through the in-process dispatcher;
// these replays all find the world and its features warm, so the hop
// costs are differences of like calls: gateway minus direct (forwarding)
// and direct minus in-process (HTTP). On a resident world the first call
// differs from the gateway replay only in the features the backend's
// caches had evicted, so that difference is the extraction row.
func (t *tracer) iteration(ctx context.Context, gen *generator) (traceRecord, error) {
	k := gen.next()
	rec := traceRecord{variant: t.wl.variants[k.variant].name, layer: samples{}}
	direct := api.NewClient(t.fleet.owner(k.w).url, t.fleet.hc)
	var ms [5]float64
	for i, c := range []selecter{t.gw, direct, t.gw, t.disp, t.disp} {
		var err error
		if ms[i], err = t.call(ctx, c, k); err != nil {
			return rec, fmt.Errorf("traced call %d: %w", i, err)
		}
	}
	rec.e2e = ms[0]
	rec.layer["shard.forward_ms"] = []float64{ms[2] - ms[1]}
	rec.layer["api.http_ms"] = []float64{ms[1] - ms[4]}
	if !t.wl.churn {
		rec.layer["modelhub.extract_ms"] = []float64{ms[0] - ms[2]}
	}
	return rec, t.layers(ctx, k, rec.layer)
}

// layers times the request's path through the modules in process.
func (t *tracer) layers(ctx context.Context, k reqKey, s samples) error {
	w, v := k.w, t.wl.variants[k.variant]
	want := t.refs.reports[k]
	seed := w.seed
	if err := s.timed("lifecycle.acquire_ms", func() error {
		_, err := t.acquire.Do(ctx, service.Request{Task: w.task, Seed: &seed})
		return err
	}); err != nil {
		return err
	}
	ref := t.refs.fws[w]
	fw, off := ref, t.refs.offline[w]
	if t.wl.churn {
		var err error
		if fw, off, err = t.refs.load(w, ref.Recall, s); err != nil {
			return err
		}
	}
	// Extract the request's features first, so the layer calls below
	// find them cached and extraction is a row of its own. A fresh
	// assembly (world-churn) extracts every frame, as the served request
	// does, and the time is the row; extraction is serial there, as in
	// two-phase fine selection. A resident world (warm-select) extracts
	// what its feature caches evicted, but here they see only the traced
	// client's requests, so the row comes from the served path (see
	// iteration) and this untimed call only warms the features.
	workers := t.workers
	if t.wl.churn {
		workers = 1
	}
	passes := modelhub.Extractions()
	start := time.Now()
	if err := extractTouched(fw, k.target, want, workers); err != nil {
		return fmt.Errorf("modelhub.extract_ms: %w", err)
	}
	if t.wl.churn {
		s["modelhub.extract_ms"] = append(s["modelhub.extract_ms"], float64(time.Since(start).Nanoseconds())/1e6)
	}
	s["modelhub.extractions"] = append(s["modelhub.extractions"], float64(modelhub.Extractions()-passes))
	d, err := fw.Catalog.Get(k.target)
	if err != nil {
		return err
	}
	var ledger trainer.Ledger
	lsqOpts := lsq.Options{Workers: t.workers}
	winner := ""
	if v.strategy == core.StrategyLSQ {
		var res *lsq.Result
		if err := s.timed("lsq.rank_ms", func() (err error) {
			res, err = lsq.Rank(ctx, fw.Repo.Models(), d, lsqOpts, &ledger)
			return err
		}); err != nil {
			return err
		}
		winner = res.Names[res.Best()]
	} else {
		var pool []*modelhub.Model
		if err := s.timed("recall.recall_ms", func() error {
			rr, err := off.Recall(fw.Repo, d, &ledger)
			if err != nil {
				return err
			}
			s["recall.proxy_scored"] = append(s["recall.proxy_scored"], float64(rr.ScoredModels))
			s["recall.recalled"] = append(s["recall.recalled"], float64(len(rr.Recalled)))
			sub, err := fw.Repo.Subset(rr.Recalled)
			pool = sub.Models()
			return err
		}); err != nil {
			return err
		}
		if v.prefilter > 0 {
			if err := s.timed("lsq.prefilter_ms", func() error {
				res, err := lsq.Rank(ctx, pool, d, lsqOpts, &ledger)
				if err != nil {
					return err
				}
				keep := res.TopK(v.prefilter)
				pool = slices.DeleteFunc(pool, func(m *modelhub.Model) bool { return !slices.Contains(keep, m.Name) })
				return nil
			}); err != nil {
				return err
			}
		}
		var out *selection.Outcome
		if err := s.timed("selection.fine_ms", func() (err error) {
			out, err = selection.FineSelect(ctx, pool, d, selection.FineSelectOptions{
				Config: selection.Config{HP: fw.HP, Seed: fw.Seed, Salt: "two-phase", Workers: t.workers, MaxEpochs: t.wl.maxEpochs},
				Matrix: fw.Matrix,
			})
			return err
		}); err != nil {
			return err
		}
		s["selection.rounds"] = append(s["selection.rounds"], float64(len(out.Stages)))
		s["trainer.epochs"] = append(s["trainer.epochs"], float64(out.Ledger.TrainEpochs()))
		winner = out.Winner
	}
	if winner != want.Outcome.Winner {
		return fmt.Errorf("layer calls for %s %s chose %q, the served path %q", w.key(), k.target, winner, want.Outcome.Winner)
	}
	// Off the request path on this workload: whole-repository lsq and
	// one training epoch, both on the warm reference world.
	refD, err := ref.Catalog.Get(k.target)
	if err != nil {
		return err
	}
	if t.wl.churn {
		if err := s.timed("lsq.rank_ms", func() error {
			_, err := lsq.Rank(ctx, ref.Repo.Models(), refD, lsqOpts, nil)
			return err
		}); err != nil {
			return err
		}
	}
	m, err := ref.Repo.Get(want.Outcome.Winner)
	if err != nil {
		return err
	}
	run, err := trainer.NewRun(m, refD, ref.HP, ref.Seed, "perfbench")
	if err != nil {
		return err
	}
	const epochs = 4
	start = time.Now()
	for range epochs {
		run.TrainEpoch()
	}
	s["trainer.epoch_us"] = append(s["trainer.epoch_us"], float64(time.Since(start).Nanoseconds())/1e3/epochs)
	return nil
}

// tracedLoop runs the traced iterations closed loop on the first client
// until the duration has passed. The other clients keep sending plain
// requests meanwhile, so the traced requests meet the same contention as
// in the untraced run; their answers are checked and counted too.
func (t *tracer) tracedLoop(ctx context.Context, clients []selecter, gens []*generator, dur time.Duration) (recs []traceRecord, attempted, failed int, errs []error) {
	var background loopResult
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		background = closedLoop(ctx, t.wl, t.refs, clients[1:], gens[1:], dur)
	}()
	for deadline := time.Now().Add(dur); time.Now().Before(deadline) && ctx.Err() == nil; {
		rec, err := t.iteration(ctx, gens[0])
		attempted++
		if err != nil {
			failed++
			errs = append(errs, err)
		} else {
			recs = append(recs, rec)
		}
	}
	wg.Wait()
	return recs, attempted + background.attempted, failed + background.failed, append(errs, background.errs...)
}

// layerSeries returns a layer's samples from the traced records, or from
// setup when the traced requests never cross it.
func layerSeries(recs []traceRecord, setup samples, layer string, variant string) []float64 {
	var xs []float64
	for _, r := range recs {
		if variant == "" || r.variant == variant {
			xs = append(xs, r.layer[layer]...)
		}
	}
	if len(xs) == 0 && variant == "" {
		xs = setup[layer]
	}
	return xs
}

func e2eSeries(recs []traceRecord, variant string) []float64 {
	var xs []float64
	for _, r := range recs {
		if variant == "" || r.variant == variant {
			xs = append(xs, r.e2e)
		}
	}
	return xs
}

// hops are the layers timed as the difference of two request latencies.
var hops = []string{"shard.forward_ms", "api.http_ms"}

// breakdown decomposes the median traced gateway request. The requests
// whose latency lies between the 40th and 60th percentiles stand for the
// median request: each blocking layer contributes its mean over them
// (zero where a request does not cross it), and the rest of the median
// is unattributed. A hop costs about the same on every request, and a
// difference of two latencies carries the noise of both, so a hop
// contributes its median over all requests instead.
type breakdown struct {
	n            int
	e2e          float64
	share        map[string]float64
	unattributed float64
}

func decompose(wl *workload, recs []traceRecord, variant string) breakdown {
	xs := e2eSeries(recs, variant)
	b := breakdown{n: len(xs), e2e: median(xs), share: map[string]float64{}}
	lo, hi := quantile(xs, 0.4), quantile(xs, 0.6)
	var band []traceRecord
	for _, r := range recs {
		if (variant == "" || r.variant == variant) && r.e2e >= lo && r.e2e <= hi {
			band = append(band, r)
		}
	}
	b.unattributed = b.e2e
	for _, l := range wl.blocking {
		if slices.Contains(hops, l) {
			b.share[l] = median(layerSeries(recs, nil, l, variant))
			b.unattributed -= b.share[l]
			continue
		}
		var sum float64
		for _, r := range band {
			for _, v := range r.layer[l] {
				sum += v
			}
		}
		b.share[l] = sum / float64(max(1, len(band)))
		b.unattributed -= b.share[l]
	}
	return b
}

// report renders the per-layer table and returns the per-layer metrics.
// perLayer is BENCHMARK.json's list of the traced run's metrics, in output
// order with their units.
func (t *tracer) report(out io.Writer, perLayer []struct{ Name, Unit string }, recs []traceRecord, setup samples, untracedP50 float64, before, after api.Stats) map[string]metric {
	wl := t.wl
	b := decompose(wl, recs, "")
	values := map[string]float64{
		"unattributed_ms":      b.unattributed,
		"e2e.traced_p50_ms":    b.e2e,
		"e2e.untraced_p50_ms":  untracedP50,
		"service.builds":       float64(after.OfflineBuilds - before.OfflineBuilds),
		"service.setup_builds": float64(before.OfflineBuilds),
	}
	hits := after.Cache.Hits - before.Cache.Hits
	misses := after.Cache.Misses - before.Cache.Misses
	values["lifecycle.hit_ratio"] = float64(hits) / float64(max(1, hits+misses))
	values["service.store_hits"] = 0
	if after.Artifacts != nil && before.Artifacts != nil {
		values["service.store_hits"] = float64(after.Artifacts.Hits - before.Artifacts.Hits)
	}

	fmt.Fprintf(out, "\ntraced run: %s, %d traced requests, %d client(s); e2e p50 untraced %.3f ms, traced %.3f ms\n",
		wl.name, b.n, wl.clients, untracedP50, b.e2e)
	fmt.Fprintf(out, "%-24s %-20s %6s %10s %10s %10s %10s\n", "layer", "role", "n", "p25", "p50", "p75", "in e2e p50")
	names := map[string]bool{}
	units := map[string]string{}
	for _, l := range perLayer {
		names[l.Name], units[l.Name] = true, l.Unit
	}
	for l := range setup {
		names[l] = true
	}
	for _, r := range recs {
		for l := range r.layer {
			names[l] = true
		}
	}
	role := func(l string) string {
		if u, ok := units[l]; ok && u != "ms" && u != "us" {
			return "count"
		}
		if slices.Contains(wl.blocking, l) {
			return "blocking"
		}
		if p, ok := wl.nested[l]; ok {
			return "in " + strings.TrimSuffix(p, "_ms")
		}
		return "off path"
	}
	// Blocking layers first, each followed by the layers nested in it.
	var order []string
	var visit func(l string)
	visit = func(l string) {
		order = append(order, l)
		for _, c := range sortedKeys(wl.nested) {
			if wl.nested[c] == l {
				visit(c)
			}
		}
	}
	for _, l := range wl.blocking {
		visit(l)
	}
	for _, l := range sortedKeys(names) {
		if !slices.Contains(order, l) {
			order = append(order, l)
		}
	}
	for _, l := range order {
		if _, derived := values[l]; derived {
			continue
		}
		xs := layerSeries(recs, setup, l, "")
		if len(xs) == 0 {
			continue
		}
		values[l] = median(xs)
		inSum := ""
		if share, ok := b.share[l]; ok {
			inSum = fmt.Sprintf("%.3f", share)
		}
		fmt.Fprintf(out, "%-24s %-20s %6d %10.3f %10.3f %10.3f %10s\n", l, role(l), len(xs), quantile(xs, 0.25), median(xs), quantile(xs, 0.75), inSum)
	}
	fmt.Fprintf(out, "%-24s %-20s %6s %10s %10s %10s %10.3f\n", "unattributed_ms", "blocking", "", "", "", "", b.unattributed)
	fmt.Fprintf(out, "%-24s %-20s %6s %10s %10s %10s %10.3f\n", "= e2e.traced_p50_ms", "", "", "", "", "", b.e2e)
	if b.unattributed < 0 {
		// The layers are timed in the benchmark process on its own
		// caches, so together they can outlast the served request.
		fmt.Fprintf(out, "warning: the blocking layers exceed the traced median by %.3f ms, so unattributed_ms is negative\n", -b.unattributed)
	}
	fmt.Fprintf(out, "backend stats over the untraced phase: hit ratio %.3f (%d hits, %d misses), builds %.0f, store hits %.0f; builds during set-up %.0f\n",
		values["lifecycle.hit_ratio"], hits, misses, values["service.builds"], values["service.store_hits"], values["service.setup_builds"])
	if len(wl.variants) > 1 {
		fmt.Fprintf(out, "\nper strategy (gateway p50 ms and its decomposition over the strategy's requests):\n")
		fmt.Fprintf(out, "%-10s %6s %9s", "strategy", "n", "gateway")
		for _, l := range wl.blocking {
			fmt.Fprintf(out, " %9s", strings.TrimSuffix(l[strings.Index(l, ".")+1:], "_ms"))
		}
		fmt.Fprintf(out, " %9s\n", "unattrib")
		for _, v := range wl.variants {
			vb := decompose(wl, recs, v.name)
			fmt.Fprintf(out, "%-10s %6d %9.3f", v.name, vb.n, vb.e2e)
			for _, l := range wl.blocking {
				fmt.Fprintf(out, " %9.3f", vb.share[l])
			}
			fmt.Fprintf(out, " %9.3f\n", vb.unattributed)
		}
	}
	metrics := map[string]metric{}
	for _, l := range perLayer {
		v, ok := values[l.Name]
		if !ok || math.IsNaN(v) {
			continue
		}
		metrics[l.Name] = metric{Value: v, Unit: l.Unit}
	}
	return metrics
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
