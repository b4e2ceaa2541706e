// Command perfbench is the repository's serving benchmark. It builds the
// real cmd/apiserver and cmd/gateway from the checkout, starts a fleet,
// drives one closed-loop workload through the gateway, checks every
// answer against an in-process reference built from the same world, and
// prints one JSON result line last.
//
// Run it from the repository root through the wrapper, which keeps every
// build output under .bench_build:
//
//	bash perfbench/run.sh --workload warm-select --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics, timed by calling each module's public functions from
// the benchmark, and prints the per-layer table. The workloads are
// defined in workload.go.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"twophase/internal/api"
	"twophase/internal/datahub"
)

// runBudget bounds everything after the binaries are built, so a run
// ends well inside three minutes even when something hangs.
const runBudget = 165 * time.Second

// setups is how many times an untraced run starts the fleet from
// scratch; setup_s is the median. A traced run sets up once.
const setups = 3

type config struct {
	root     string
	workload string
	seed     uint64
	seconds  int
	trace    bool
	// sizes overrides the worlds' split sizes (zero: the paper's
	// defaults); the self-test runs on tiny worlds.
	sizes datahub.Sizes
	// wrap, when set, wraps the clients of the timed phases (the
	// self-test plants wrong answers through it).
	wrap func(selecter) selecter
}

// selecter is the part of the v1 API the load clients call.
type selecter interface {
	Select(ctx context.Context, req *api.SelectRequest) (*api.SelectResponse, error)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	cfg := config{}
	flag.StringVar(&cfg.workload, "workload", "", "workload name (see workload.go)")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: request order and mix")
	flag.IntVar(&cfg.seconds, "seconds", 30, "measured duration of the timed phase")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = *trace == 1
	var err error
	if cfg.root, err = os.Getwd(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	res, err := run(ctx, cfg, os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark run and returns its result; an error means
// the run could not measure at all.
func run(ctx context.Context, cfg config, out io.Writer) (*result, error) {
	wl, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	if cfg.seconds < 1 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	for _, p := range []string{"go.mod", "cmd/apiserver", "cmd/gateway"} {
		if _, err := os.Stat(filepath.Join(cfg.root, p)); err != nil {
			return nil, fmt.Errorf("%s is not a checkout of the repository: %w", cfg.root, err)
		}
	}
	spec, err := readSpec(cfg.root)
	if err != nil {
		return nil, err
	}
	why, ok := spec.why(wl.name)
	if !ok {
		return nil, fmt.Errorf("BENCHMARK.json has no workload %s", wl.name)
	}
	buildDir := filepath.Join(cfg.root, ".bench_build")
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	bins, err := buildBinaries(ctx, cfg.root, tmp)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, runBudget)
	defer cancel()

	fmt.Fprintf(out, "workload %s (seed %d, %ds): closed loop, %d client(s), %d backend(s) behind the gateway\n  why: %s\n  loads: %s\n  bypasses: %s\n",
		wl.name, cfg.seed, cfg.seconds, wl.clients, wl.backends, why, strings.Join(wl.loads, ", "), strings.Join(wl.bypasses, ", "))
	setup := samples{}
	refs, err := buildReferences(ctx, wl, cfg.sizes, filepath.Join(tmp, "reference"), setup)
	if err != nil {
		return nil, fmt.Errorf("reference worlds: %w", err)
	}

	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	defer hc.CloseIdleConnections()
	var f *fleet
	defer func() {
		if f != nil {
			f.kill()
		}
	}()
	n := setups
	if cfg.trace {
		n = 1
	}
	var setupS []float64
	for range n {
		if f != nil {
			if err := f.stop(); err != nil {
				return nil, err
			}
			if err := removeStores(tmp); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if f, err = setUp(ctx, wl, refs, bins, tmp, cfg.sizes, hc); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}

	clients := make([]selecter, wl.clients)
	gens := make([]*generator, wl.clients)
	for i := range clients {
		clients[i] = api.NewClient(f.gateway.url, hc)
		if cfg.wrap != nil {
			clients[i] = cfg.wrap(clients[i])
		}
		gens[i] = newGenerator(wl, cfg.seed, i)
	}
	dur := time.Duration(cfg.seconds) * time.Second
	if cfg.trace {
		// The untraced and the traced phase share the run's time, so a
		// traced run takes no longer than an untraced one.
		dur /= 2
	}
	before, err := f.backendStats(ctx)
	if err != nil {
		return nil, err
	}
	loop := closedLoop(ctx, wl, refs, clients, gens, dur)
	after, err := f.backendStats(ctx)
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: loop.attempted, Failed: loop.failed, Metrics: map[string]metric{}}
	loop.print(out)
	untracedP50 := median(loop.lat)

	if cfg.trace {
		t, err := newTracer(ctx, wl, refs, f, clients[0])
		if err != nil {
			return nil, err
		}
		recs, attempted, failed, errs := t.tracedLoop(ctx, clients, gens, dur)
		res.Attempted += attempted
		res.Failed += failed
		fmt.Fprintf(out, "traced phase: sent %d (%d traced), failed %d\n", attempted, len(recs), failed)
		for _, e := range errs[:min(len(errs), 5)] {
			fmt.Fprintln(out, "  failure:", e)
		}
		res.Metrics = t.report(out, spec.PerLayer, recs, setup, untracedP50, before, after)
	} else {
		rss, err := f.peakRSSMB()
		if err != nil {
			return nil, err
		}
		q := refs.quality
		for name, m := range map[string]metric{
			"latency_p50_ms":    {loop.windowed(func(lat []float64, _ time.Duration) float64 { return median(lat) }), "ms"},
			"latency_p95_ms":    {loop.windowed(func(lat []float64, _ time.Duration) float64 { return quantile(lat, 0.95) }), "ms"},
			"selects_per_s":     {loop.windowed(func(lat []float64, span time.Duration) float64 { return float64(len(lat)) / span.Seconds() }), "1/s"},
			"epochs_per_select": {q.epochs, "epochs"},
			"regret_pct":        {q.regret, "%"},
			"recall_hit_rate":   {q.hitRate, "ratio"},
			"peak_rss_mb":       {rss, "MB"},
			"setup_s":           {median(setupS), "s"},
		} {
			if !math.IsNaN(m.Value) && !math.IsInf(m.Value, 0) {
				res.Metrics[name] = m
			}
		}
		fmt.Fprintf(out, "setup_s samples: %v\n", setupS)
	}
	err = f.stop()
	f = nil
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for _, n := range sortedKeys(res.Metrics) {
		fmt.Fprintf(out, "%-22s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	return res, nil
}

// benchmarkSpec is the part of BENCHMARK.json the benchmark reads: each
// workload's one-line why and the metrics with their units.
type benchmarkSpec struct {
	Workloads []struct{ Name, Why string }  `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(root string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

func (s *benchmarkSpec) why(workload string) (string, bool) {
	for _, w := range s.Workloads {
		if w.Name == workload {
			return w.Why, true
		}
	}
	return "", false
}

// setUp starts the fleet and fills its caches with every distinct request
// once, world by world; on a stored workload this builds and persists
// each world. Every answer is checked.
func setUp(ctx context.Context, wl *workload, refs *references, bins map[string]string, dir string, sizes datahub.Sizes, hc *http.Client) (*fleet, error) {
	f, err := startFleet(ctx, wl, bins, dir, sizes, hc)
	for try := 1; err != nil && try < 3 && strings.Contains(err.Error(), "address already in use"); try++ {
		// Another socket took a drawn port before the server bound it;
		// draw new ports.
		f, err = startFleet(ctx, wl, bins, dir, sizes, hc)
	}
	if err != nil {
		return nil, err
	}
	gw := api.NewClient(f.gateway.url, hc)
	for _, k := range wl.keys() {
		resp, err := gw.Select(ctx, wl.request(k))
		if err == nil {
			err = checkResponse(resp, refs.reports[k])
		}
		if err != nil {
			f.kill()
			return nil, fmt.Errorf("setup request %s %s: %w", k.w.key(), k.target, err)
		}
	}
	return f, nil
}

// removeStores deletes the backends' stores between set-ups, so every
// set-up starts from an empty store.
func removeStores(dir string) error {
	stores, err := filepath.Glob(filepath.Join(dir, "*-store"))
	if err != nil {
		return err
	}
	var errs []error
	for _, s := range stores {
		errs = append(errs, os.RemoveAll(s))
	}
	return errors.Join(errs...)
}

type loopResult struct {
	lat               []float64            // ms, successful requests only
	at                []time.Duration      // completion of each lat sample, from the start
	byGroup           map[string][]float64 // lat split by task and strategy variant
	attempted, failed int
	errs              []error // the first few failures
	elapsed           time.Duration
}

// closedLoop runs one goroutine per client; each sends its next request
// only after the previous answer arrived and was checked, until the
// duration has passed. A failed or mismatched answer is counted, never
// dropped silently.
func closedLoop(ctx context.Context, wl *workload, refs *references, clients []selecter, gens []*generator, dur time.Duration) loopResult {
	res := loopResult{byGroup: map[string][]float64{}}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	var last time.Time
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				k := gens[i].next()
				t0 := time.Now()
				resp, err := c.Select(ctx, wl.request(k))
				end := time.Now()
				if err == nil {
					err = checkResponse(resp, refs.reports[k])
				}
				mu.Lock()
				res.attempted++
				if err != nil {
					res.failed++
					if len(res.errs) < 5 {
						res.errs = append(res.errs, fmt.Errorf("%s %s %s: %w", k.w.key(), k.target, wl.variants[k.variant].name, err))
					}
				} else {
					ms := float64(end.Sub(t0).Nanoseconds()) / 1e6
					res.lat = append(res.lat, ms)
					res.at = append(res.at, end.Sub(start))
					g := k.w.task + " " + wl.variants[k.variant].name
					res.byGroup[g] = append(res.byGroup[g], ms)
				}
				if end.After(last) {
					last = end
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.elapsed = last.Sub(start)
	return res
}

// windows is how many equal parts of the timed phase the latency and
// throughput metrics are computed over. Each reports the median of its
// per-window values, so a host stall confined to two of the windows does
// not move it.
const windows = 5

// windowed splits the successful requests by completion time into the
// equal windows and returns the median over windows of stat, which gets
// a window's latencies and its length. Windows without a request are
// skipped.
func (r loopResult) windowed(stat func(lat []float64, span time.Duration) float64) float64 {
	span := r.elapsed / windows
	parts := make([][]float64, windows)
	for i, at := range r.at {
		w := min(int(at/max(span, 1)), windows-1)
		parts[w] = append(parts[w], r.lat[i])
	}
	var vals []float64
	for _, p := range parts {
		if len(p) > 0 {
			vals = append(vals, stat(p, span))
		}
	}
	return median(vals)
}

// print reports the phase's request counts, its first failures and its
// latency by task and strategy.
func (r loopResult) print(out io.Writer) {
	fmt.Fprintf(out, "timed phase: sent %d, succeeded %d, failed %d in %.3f s\n", r.attempted, len(r.lat), r.failed, r.elapsed.Seconds())
	for _, e := range r.errs {
		fmt.Fprintln(out, "  failure:", e)
	}
	for _, g := range sortedKeys(r.byGroup) {
		xs := r.byGroup[g]
		fmt.Fprintf(out, "  %-16s n %5d  p25 %8.3f  p50 %8.3f  p75 %8.3f  p95 %8.3f ms\n", g, len(xs), quantile(xs, 0.25), median(xs), quantile(xs, 0.75), quantile(xs, 0.95))
	}
}
