package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"twophase/internal/api"
	"twophase/internal/datahub"
)

// The self-test runs every workload on tiny worlds for one second. It
// starts real servers, so -short skips it.

func loadSpec(t *testing.T) *benchmarkSpec {
	t.Helper()
	spec, err := readSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func tinyConfig(t *testing.T, workload string, trace bool) config {
	t.Helper()
	if testing.Short() {
		t.Skip("starts real servers")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	return config{
		root: root, workload: workload, seed: 7, seconds: 1, trace: trace,
		sizes: datahub.Sizes{Train: 60, Val: 40, Test: 48},
	}
}

// runClean runs the benchmark and checks its hygiene: no child process
// and no run directory outlive it.
func runClean(t *testing.T, cfg config) (*result, string) {
	t.Helper()
	runDirs := func() []string {
		dirs, _ := filepath.Glob(filepath.Join(cfg.root, ".bench_build", "run-*"))
		return dirs
	}
	before := len(runDirs())
	var out bytes.Buffer
	res, err := run(context.Background(), cfg, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if children := childPIDs(t); len(children) > 0 {
		t.Errorf("child processes left behind: %v", children)
	}
	if after := len(runDirs()); after != before {
		t.Errorf("%d run directories before, %d after", before, after)
	}
	return res, out.String()
}

func childPIDs(t *testing.T) []string {
	t.Helper()
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		t.Skipf("no /proc: %v", err)
	}
	var pids []string
	for _, task := range tasks {
		data, err := os.ReadFile(filepath.Join("/proc/self/task", task.Name(), "children"))
		if err != nil {
			continue // the thread exited meanwhile
		}
		pids = append(pids, strings.Fields(string(data))...)
	}
	return pids
}

func TestEveryWorkloadReportsItsMetrics(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			name := w.Name + "/untraced"
			want := spec.EndToEnd
			if trace {
				name, want = w.Name+"/traced", spec.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				res, out := runClean(t, tinyConfig(t, w.Name, trace))
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out)
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s in %q, want %q", m.Name, got.Unit, m.Unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				if trace {
					checkShape(t, w.Name, res.Metrics)
				}
			})
		}
	}
}

// checkShape asserts the backend counters each workload is built to
// produce: set-up builds every world exactly once, and the timed phase
// hits (warm-select) or reloads from the store (world-churn) without a
// single build.
func checkShape(t *testing.T, workload string, m map[string]metric) {
	t.Helper()
	wl, err := findWorkload(workload)
	if err != nil {
		t.Fatal(err)
	}
	if got := m["service.setup_builds"].Value; got != float64(len(wl.worlds)) {
		t.Errorf("%s: %v builds during set-up, want one per world (%d)", workload, got, len(wl.worlds))
	}
	hits, builds, storeHits := m["lifecycle.hit_ratio"].Value, m["service.builds"].Value, m["service.store_hits"].Value
	switch workload {
	case "warm-select":
		if hits != 1 || builds != 0 || storeHits != 0 {
			t.Errorf("warm-select: hit ratio %v, builds %v, store hits %v; want 1, 0, 0", hits, builds, storeHits)
		}
	case "world-churn":
		if hits != 0 || builds != 0 || storeHits == 0 {
			t.Errorf("world-churn: hit ratio %v, builds %v, store hits %v; want 0, 0, >0", hits, builds, storeHits)
		}
	default:
		t.Errorf("no expected shape for workload %s", workload)
	}
}

// wrongWinner rewrites the winner of the first answer it sees.
type wrongWinner struct {
	selecter
	planted atomic.Bool
}

func (w *wrongWinner) Select(ctx context.Context, req *api.SelectRequest) (*api.SelectResponse, error) {
	resp, err := w.selecter.Select(ctx, req)
	if err == nil && len(resp.Results) > 0 && w.planted.CompareAndSwap(false, true) {
		resp.Results[0].Winner = "planted/" + resp.Results[0].Winner
	}
	return resp, err
}

func TestPlantedWrongWinnerFailsTheRun(t *testing.T) {
	cfg := tinyConfig(t, "warm-select", false)
	cfg.wrap = func(s selecter) selecter { return &wrongWinner{selecter: s} }
	wl, err := findWorkload(cfg.workload)
	if err != nil {
		t.Fatal(err)
	}
	res, out := runClean(t, cfg)
	if res.Correct || res.Failed != wl.clients {
		t.Fatalf("correct=%v failed=%d after planting one wrong winner per client\n%s", res.Correct, res.Failed, out)
	}
	if !strings.Contains(out, "planted/") {
		t.Errorf("the failure does not name the planted winner:\n%s", out)
	}
}

func TestRefusesToRunOutsideACheckout(t *testing.T) {
	cfg := config{root: t.TempDir(), workload: "warm-select", seed: 1, seconds: 1}
	if _, err := run(context.Background(), cfg, &bytes.Buffer{}); err == nil {
		t.Fatal("run outside a checkout succeeded")
	}
}

func TestWindowedIgnoresAStalledWindow(t *testing.T) {
	r := loopResult{elapsed: 5 * time.Second}
	for i := range 50 {
		at := time.Duration(i) * 100 * time.Millisecond
		lat := 10.0
		if at >= 4*time.Second {
			lat = 100 // the last window stalls
		}
		r.lat, r.at = append(r.lat, lat), append(r.at, at)
	}
	if got := r.windowed(func(lat []float64, _ time.Duration) float64 { return quantile(lat, 0.95) }); got != 10 {
		t.Errorf("windowed p95 %v, want 10", got)
	}
	if got := r.windowed(func(lat []float64, span time.Duration) float64 { return float64(len(lat)) / span.Seconds() }); got != 10 {
		t.Errorf("windowed throughput %v/s, want 10/s", got)
	}
}
