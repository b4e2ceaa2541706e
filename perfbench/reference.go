package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"twophase/internal/artifact"
	"twophase/internal/core"
	"twophase/internal/datahub"
	"twophase/internal/lsq"
	"twophase/internal/modelhub"
	"twophase/internal/perfmatrix"
	"twophase/internal/recall"
	"twophase/internal/store"
	"twophase/internal/synth"
	"twophase/internal/trainer"
)

// samples collects timings (ms) or counts per layer name.
type samples map[string][]float64

// timed runs fn and, when it succeeds, records its wall time in ms.
func (s samples) timed(layer string, fn func() error) error {
	start := time.Now()
	if err := fn(); err != nil {
		return fmt.Errorf("%s: %w", layer, err)
	}
	s[layer] = append(s[layer], float64(time.Since(start).Nanoseconds())/1e6)
	return nil
}

// references holds the in-process worlds every served answer is checked
// against, and the store the benchmark's own in-process services load.
type references struct {
	sizes   datahub.Sizes
	store   *store.Store
	dir     string
	fws     map[world]*core.Framework
	offline map[world]*recall.Offline
	reports map[reqKey]*core.Report
	quality quality
}

func (r *references) options(w world) core.Options {
	return core.Options{Task: w.task, Seed: w.seed, Sizes: r.sizes}
}

// buildReferences runs the offline pipeline for every world of the
// workload stage by stage, timing each public call into setup: world
// synthesis, perf matrix, recall preparation, artifact encode, store
// write, then the load path (store read, decode, rehydrate, assembly),
// first-touch feature extraction and a whole-repository lsq ranking. It
// answers every distinct request in process and scores the answers
// against the oracle.
func buildReferences(ctx context.Context, wl *workload, sizes datahub.Sizes, dir string, setup samples) (*references, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	refs := &references{
		sizes: sizes, store: st, dir: dir,
		fws:     map[world]*core.Framework{},
		offline: map[world]*recall.Offline{},
		reports: map[reqKey]*core.Report{},
	}
	workers := runtime.GOMAXPROCS(0)
	for _, w := range wl.worlds {
		var cat *datahub.Catalog
		var repo *modelhub.Repository
		if err := setup.timed("synth.world_ms", func() (err error) {
			cat, repo, err = synthesize(w, sizes)
			return err
		}); err != nil {
			return nil, err
		}
		var m *perfmatrix.Matrix
		if err := setup.timed("perfmatrix.build_ms", func() (err error) {
			m, err = perfmatrix.Build(repo, cat.Benchmarks(), trainer.Default(w.task), w.seed, workers)
			return err
		}); err != nil {
			return nil, err
		}
		// The reference framework recomputes the recall stage exactly as
		// core.Build does; it answers the reference requests.
		fw, err := core.AssembleArtifacts(refs.options(w), core.Artifacts{Matrix: m})
		if err != nil {
			return nil, err
		}
		if err := setup.timed("recall.prepare_ms", func() error {
			_, err := recall.PrepareOfflineWith(m, fw.Recall, workers)
			return err
		}); err != nil {
			return nil, err
		}
		var mb, rb []byte
		if err := setup.timed("artifact.encode_ms", func() (err error) {
			if mb, err = artifact.EncodeMatrix(m); err != nil {
				return err
			}
			rb, err = artifact.EncodeRecall(fw.RecallArtifact())
			return err
		}); err != nil {
			return nil, err
		}
		if err := setup.timed("store.write_ms", func() error {
			if err := st.PutVerified("matrices", w.key(), mb); err != nil {
				return err
			}
			return st.PutVerified("recalls", w.key(), rb)
		}); err != nil {
			return nil, err
		}
		fresh, off, err := refs.load(w, fw.Recall, setup)
		if err != nil {
			return nil, err
		}
		refs.fws[w], refs.offline[w] = fw, off
		for _, k := range wl.keys() {
			if k.w != w {
				continue
			}
			d, err := fw.Catalog.Get(k.target)
			if err != nil {
				return nil, err
			}
			v := wl.variants[k.variant]
			rep, err := fw.SelectWith(ctx, d, core.SelectOptions{Strategy: v.strategy, PrefilterTopK: v.prefilter, MaxEpochs: wl.maxEpochs})
			if err != nil {
				return nil, fmt.Errorf("reference %s %s %s: %w", w.key(), k.target, v.name, err)
			}
			refs.reports[k] = rep
			if k.variant != 0 {
				continue
			}
			if err := setup.timed("modelhub.extract_ms", func() error { return extractTouched(fresh, k.target, rep, 1) }); err != nil {
				return nil, err
			}
			// A short traced run may draw no lsq request; this keeps the
			// whole-repository ranking measured on every workload.
			if err := setup.timed("lsq.rank_ms", func() error {
				_, err := lsq.Rank(ctx, fw.Repo.Models(), d, lsq.Options{Workers: workers}, nil)
				return err
			}); err != nil {
				return nil, err
			}
		}
	}
	refs.quality, err = computeQuality(ctx, wl, refs.fws, refs.reports)
	return refs, err
}

// synthesize is stage 1 of the offline pipeline: the world's catalog and
// model repository.
func synthesize(w world, sizes datahub.Sizes) (*datahub.Catalog, *modelhub.Repository, error) {
	sw := synth.NewWorld(w.seed)
	cat, err := datahub.NewTaskCatalog(sw, w.task, sizes)
	if err != nil {
		return nil, nil, err
	}
	repo, err := modelhub.NewTaskRepository(sw, w.task)
	return cat, repo, err
}

// load resolves a world from the benchmark's store the way a serving
// backend does on a cache miss, timing each public call: store read,
// artifact decode, stage-1 synthesis, recall rehydration and assembly.
// The returned framework is fresh: no feature has been extracted yet.
func (r *references) load(w world, ro recall.Options, s samples) (*core.Framework, *recall.Offline, error) {
	var mb, rb []byte
	if err := s.timed("store.read_ms", func() (err error) {
		if mb, _, err = r.store.OpenArtifact("matrices", w.key()); err != nil {
			return err
		}
		rb, _, err = r.store.OpenArtifact("recalls", w.key())
		return err
	}); err != nil {
		return nil, nil, err
	}
	var m *perfmatrix.Matrix
	var ra *recall.Artifact
	if err := s.timed("artifact.decode_ms", func() (err error) {
		if m, err = artifact.DecodeMatrix(mb); err != nil {
			return err
		}
		ra, err = artifact.DecodeRecall(rb)
		return err
	}); err != nil {
		return nil, nil, err
	}
	if err := s.timed("synth.world_ms", func() error {
		_, _, err := synthesize(w, r.sizes)
		return err
	}); err != nil {
		return nil, nil, err
	}
	var off *recall.Offline
	if err := s.timed("recall.rehydrate_ms", func() (err error) {
		off, err = recall.Rehydrate(m, ro, ra)
		return err
	}); err != nil {
		return nil, nil, err
	}
	var fw *core.Framework
	err := s.timed("core.assemble_ms", func() (err error) {
		fw, err = core.AssembleArtifacts(r.options(w), core.Artifacts{Matrix: m, Recall: ra})
		return err
	})
	return fw, off, err
}

// extractTouched extracts, on fw, the features a request for the target
// touches, in the order and with the parallelism of the serving path.
// Recall proxy-scores the representatives one by one on the train split.
// The models ranked or trained next need all three splits: the whole
// repository for an lsq request (a report without recall), else the
// recalled models. workers goroutines extract that pool: the serving path
// uses one where two-phase fine selection creates its runs one by one,
// and lsq.Rank's workers where a ranking extracts them.
func extractTouched(fw *core.Framework, target string, rep *core.Report, workers int) error {
	d, err := fw.Catalog.Get(target)
	if err != nil {
		return err
	}
	var pool []*modelhub.Model
	if rep.Recall == nil {
		pool = fw.Repo.Models()
	} else {
		for _, name := range rep.Recall.Representatives {
			m, err := fw.Repo.Get(name)
			if err != nil {
				return err
			}
			m.FeatureFrame(d.Train.X)
		}
		sub, err := fw.Repo.Subset(rep.Recall.Recalled)
		if err != nil {
			return err
		}
		pool = sub.Models()
	}
	jobs := make(chan *modelhub.Model)
	var wg sync.WaitGroup
	for range max(1, workers) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for m := range jobs {
				m.FeatureFrame(d.Train.X)
				m.FeatureFrame(d.Val.X)
				m.FeatureFrame(d.Test.X)
			}
		}()
	}
	for _, m := range pool {
		jobs <- m
	}
	close(jobs)
	wg.Wait()
	return nil
}
