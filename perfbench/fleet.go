package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"twophase/internal/api"
	"twophase/internal/datahub"
	"twophase/internal/shard"
)

// buildBinaries compiles the real servers from the checkout at root into
// dir and returns their paths.
func buildBinaries(ctx context.Context, root, dir string) (map[string]string, error) {
	bins := map[string]string{}
	for _, name := range []string{"apiserver", "gateway"} {
		out := filepath.Join(dir, name)
		cmd := exec.CommandContext(ctx, "go", "build", "-o", out, "./cmd/"+name)
		cmd.Dir = root
		if msg, err := cmd.CombinedOutput(); err != nil {
			return nil, fmt.Errorf("go build ./cmd/%s: %v\n%s", name, err, msg)
		}
		bins[name] = out
	}
	return bins, nil
}

// proc is one child server process, owned by exact PID.
type proc struct {
	name string
	url  string
	log  string
	cmd  *exec.Cmd
	done chan struct{}
	err  error // cmd.Wait's result, valid once done is closed
}

func startProc(dir, name, url, bin string, args ...string) (*proc, error) {
	p := &proc{name: name, url: url, log: filepath.Join(dir, name+".log"), done: make(chan struct{})}
	logf, err := os.Create(p.log)
	if err != nil {
		return nil, err
	}
	p.cmd = exec.Command(bin, args...)
	p.cmd.Stdout, p.cmd.Stderr = logf, logf
	// A benchmark killed without running its cleanup still takes its
	// servers down with it.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		p.err = p.cmd.Wait()
		logf.Close()
		close(p.done)
	}()
	return p, nil
}

// stop sends SIGTERM to the process and requires a clean exit (status 0)
// within the timeout; past it the process is killed and stop fails.
func (p *proc) stop(timeout time.Duration) error {
	select {
	case <-p.done:
		return fmt.Errorf("%s exited before shutdown: %v%s", p.name, p.err, p.logTail())
	default:
	}
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal %s: %w", p.name, err)
	}
	select {
	case <-p.done:
		if p.err != nil {
			return fmt.Errorf("%s exited uncleanly: %v%s", p.name, p.err, p.logTail())
		}
		return nil
	case <-time.After(timeout):
		p.kill()
		return fmt.Errorf("%s ignored SIGTERM for %s", p.name, timeout)
	}
}

// kill ends the process unconditionally and waits for it.
func (p *proc) kill() {
	select {
	case <-p.done:
	default:
		_ = p.cmd.Process.Kill() // it may exit on its own between the checks
		<-p.done
	}
}

func (p *proc) logTail() string {
	data, err := os.ReadFile(p.log)
	if err != nil || len(data) == 0 {
		return ""
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	return "\n" + strings.Join(lines[max(0, len(lines)-10):], "\n")
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func (p *proc) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM in /proc status", p.name)
}

// waitHealthy polls GET /v1/healthz until this process answers 200. The
// body must name the process, so a stranger on the port is never taken
// for it.
func (p *proc) waitHealthy(ctx context.Context, hc *http.Client) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url+"/v1/healthz", nil)
		if err != nil {
			return err
		}
		if resp, err := hc.Do(req); err == nil {
			var h api.Health
			err := json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if err == nil && resp.StatusCode == http.StatusOK && h.Instance == p.name {
				return nil
			}
		}
		select {
		case <-p.done:
			return fmt.Errorf("%s exited during startup: %v%s", p.name, p.err, p.logTail())
		case <-ctx.Done():
			return fmt.Errorf("%s not healthy: %w%s", p.name, ctx.Err(), p.logTail())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// freePorts draws n distinct loopback ports, holding every listener until
// all are drawn.
func freePorts(n int) ([]int, error) {
	ports := make([]int, n)
	for i := range ports {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		ports[i] = ln.Addr().(*net.TCPAddr).Port
	}
	return ports, nil
}

// fleet is the gateway and its backends for one workload.
type fleet struct {
	backends []*proc
	gateway  *proc
	ring     *shard.Ring
	hc       *http.Client
}

// fleetURLs picks distinct loopback ports for the backends and, last, the
// gateway. With several backends it retries until every backend owns at
// least one of the workload's worlds on the ring, so no run leaves a
// backend idle.
func fleetURLs(wl *workload) ([]string, string, *shard.Ring, error) {
	for range 200 {
		ports, err := freePorts(wl.backends + 1)
		if err != nil {
			return nil, "", nil, err
		}
		urls := make([]string, len(ports))
		for i, port := range ports {
			urls[i] = fmt.Sprintf("http://127.0.0.1:%d", port)
		}
		backends := urls[:wl.backends]
		ring, err := shard.NewRing(backends, 0)
		if err != nil {
			return nil, "", nil, err
		}
		owners := map[string]bool{}
		for _, w := range wl.worlds {
			owners[ring.Owner(shard.RouteKey(w.task, w.seed))] = true
		}
		if len(owners) == min(len(backends), len(wl.worlds)) {
			return backends, urls[wl.backends], ring, nil
		}
	}
	return nil, "", nil, errors.New("no port set spreads the worlds over every backend")
}

// startFleet launches the backends and the gateway and waits until all of
// them report healthy (backends finish their -warm worlds first).
func startFleet(ctx context.Context, wl *workload, bins map[string]string, dir string, sizes datahub.Sizes, hc *http.Client) (*fleet, error) {
	urls, gwURL, ring, err := fleetURLs(wl)
	if err != nil {
		return nil, err
	}
	f := &fleet{ring: ring, hc: hc}
	ok := false
	defer func() {
		if !ok {
			f.kill()
		}
	}()
	var warm []string
	for _, w := range wl.worlds {
		warm = append(warm, fmt.Sprintf("%s:%d", w.task, w.seed))
	}
	for i, u := range urls {
		name := fmt.Sprintf("b%d", i)
		args := []string{"-addr", strings.TrimPrefix(u, "http://"), "-instance", name}
		if sizes != (datahub.Sizes{}) {
			args = append(args, "-train", strconv.Itoa(sizes.Train), "-val", strconv.Itoa(sizes.Val), "-test", strconv.Itoa(sizes.Test))
		}
		if wl.backends > 1 {
			args = append(args, "-backends", strings.Join(urls, ","), "-self", u, "-replicas", "1")
		}
		if wl.churn {
			args = append(args, "-store", filepath.Join(dir, name+"-store"))
		} else {
			args = append(args, "-warm", strings.Join(warm, ","))
		}
		if wl.cacheSize > 0 {
			args = append(args, "-cache-size", strconv.Itoa(wl.cacheSize))
		}
		p, err := startProc(dir, name, u, bins["apiserver"], args...)
		if err != nil {
			return nil, err
		}
		f.backends = append(f.backends, p)
	}
	f.gateway, err = startProc(dir, "gateway", gwURL, bins["gateway"],
		"-addr", strings.TrimPrefix(gwURL, "http://"), "-instance", "gateway", "-backends", strings.Join(urls, ","), "-replicas", "1")
	if err != nil {
		return nil, err
	}
	for _, p := range f.procs() {
		if err := p.waitHealthy(ctx, hc); err != nil {
			return nil, err
		}
	}
	ok = true
	return f, nil
}

func (f *fleet) procs() []*proc {
	ps := append([]*proc(nil), f.backends...)
	if f.gateway != nil {
		ps = append(ps, f.gateway)
	}
	return ps
}

// owner returns the backend that owns a world on the ring.
func (f *fleet) owner(w world) *proc {
	u := f.ring.Owner(shard.RouteKey(w.task, w.seed))
	for _, b := range f.backends {
		if b.url == u {
			return b
		}
	}
	return f.backends[0]
}

// stop shuts the gateway down first, then every backend, each by SIGTERM
// with a required clean exit.
func (f *fleet) stop() error {
	var errs []error
	for _, p := range append([]*proc{f.gateway}, f.backends...) {
		if p != nil {
			errs = append(errs, p.stop(20*time.Second))
		}
	}
	return errors.Join(errs...)
}

func (f *fleet) kill() {
	for _, p := range f.procs() {
		p.kill()
	}
}

// peakRSSMB is the largest backend VmHWM.
func (f *fleet) peakRSSMB() (float64, error) {
	var peak float64
	for _, b := range f.backends {
		mb, err := b.peakRSSMB()
		if err != nil {
			return 0, err
		}
		peak = max(peak, mb)
	}
	return peak, nil
}

// backendStats sums the backends' own /v1/stats counters.
func (f *fleet) backendStats(ctx context.Context) (api.Stats, error) {
	var sum api.Stats
	for _, b := range f.backends {
		st, err := api.NewClient(b.url, f.hc).Stats(ctx)
		if err != nil {
			return sum, fmt.Errorf("stats of %s: %w", b.name, err)
		}
		sum.OfflineBuilds += st.OfflineBuilds
		sum.Cache.Hits += st.Cache.Hits
		sum.Cache.Misses += st.Cache.Misses
		if st.Artifacts != nil {
			if sum.Artifacts == nil {
				sum.Artifacts = &api.ArtifactStats{}
			}
			sum.Artifacts.Hits += st.Artifacts.Hits
		}
	}
	return sum, nil
}
