package modelhub

import (
	"sync"
	"testing"

	"twophase/internal/datahub"
	"twophase/internal/numeric"
	"twophase/internal/synth"
)

func cacheFixture(t *testing.T) (*Model, *datahub.Dataset) {
	t.Helper()
	w := synth.NewWorld(42)
	m, err := Materialize(w, testModelSpec("cache/model", map[string]float64{datahub.DomainNLI: 1}, 0.6))
	if err != nil {
		t.Fatal(err)
	}
	d, err := datahub.Generate(w, datahub.Spec{
		Name: "cache/ds", Task: datahub.TaskNLP,
		Domains: map[string]float64{datahub.DomainNLI: 1},
		Classes: 3, Separability: 2, Noise: 1,
	}, datahub.Sizes{Train: 40, Val: 20, Test: 20})
	if err != nil {
		t.Fatal(err)
	}
	return m, d
}

// FeatureBatch extracts features example by example through the
// single-vector path. It is the reference implementation the batched
// frame kernels are compared against bit for bit; it allocates one row
// per example, so production code uses FeatureFrame instead.
func (m *Model) FeatureBatch(xs [][]float64) [][]float64 {
	out := make([][]float64, len(xs))
	for i, x := range xs {
		out[i] = m.Features(x)
	}
	return out
}

// TestFeatureFrameMatchesFeaturesBitwise pins the tentpole invariant: the
// batched frame extractor must agree with the historical per-example
// path exactly — not approximately — on every element.
func TestFeatureFrameMatchesFeaturesBitwise(t *testing.T) {
	m, d := cacheFixture(t)
	for _, split := range []datahub.Split{d.Train, d.Val, d.Test} {
		frame := m.FeatureFrame(split.X)
		legacy := m.FeatureBatch(split.X.Rows2D())
		if frame.N != len(legacy) || frame.D != FeatureDim {
			t.Fatalf("frame shape %dx%d, legacy %dx%d", frame.N, frame.D, len(legacy), FeatureDim)
		}
		for i, row := range legacy {
			for j, want := range row {
				if got := frame.At(i, j); got != want {
					t.Fatalf("feature[%d][%d] = %x, legacy path %x", i, j, got, want)
				}
			}
		}
	}
}

// TestFeatureFrameCachedOnce: repeated extraction of the same split frame
// must hit the cache — same pointer back, exactly one extraction pass.
func TestFeatureFrameCachedOnce(t *testing.T) {
	m, d := cacheFixture(t)
	before := Extractions()
	first := m.FeatureFrame(d.Train.X)
	for i := 0; i < 5; i++ {
		if got := m.FeatureFrame(d.Train.X); got != first {
			t.Fatal("cache returned a different frame for the same split")
		}
	}
	if got := Extractions() - before; got != 1 {
		t.Fatalf("%d extraction passes for 6 lookups, want 1", got)
	}
}

// TestFeatureFrameLRUEviction: overflowing the per-model cache evicts the
// least recently used entry but never invalidates frames already handed
// out.
func TestFeatureFrameLRUEviction(t *testing.T) {
	m, _ := cacheFixture(t)
	frames := make([]*numeric.Frame, featureCacheCap+1)
	for i := range frames {
		frames[i] = numeric.NewFrame(3, synth.InputDim)
		frames[i].Data[0] = float64(i + 1)
	}
	out := make([]*numeric.Frame, len(frames))
	for i, f := range frames {
		out[i] = m.FeatureFrame(f)
	}
	// frames[0] is the LRU victim: re-requesting it must re-extract ...
	before := Extractions()
	again := m.FeatureFrame(frames[0])
	if got := Extractions() - before; got != 1 {
		t.Fatalf("evicted entry re-extraction passes = %d, want 1", got)
	}
	// ... to bit-identical contents, while the old handle stays usable.
	for j := range out[0].Data {
		if out[0].Data[j] != again.Data[j] {
			t.Fatal("re-extracted frame differs from the evicted one")
		}
	}
	// The most recent entries are still cached.
	before = Extractions()
	m.FeatureFrame(frames[len(frames)-1])
	if got := Extractions() - before; got != 0 {
		t.Fatalf("fresh entry missed the cache (%d passes)", got)
	}
}

// TestFeatureFrameConcurrent hammers one model's cache from many
// goroutines (the serving layer's pattern: parallel candidate training
// against shared models). Run with -race.
func TestFeatureFrameConcurrent(t *testing.T) {
	m, d := cacheFixture(t)
	want := m.FeatureFrame(d.Train.X)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if got := m.FeatureFrame(d.Train.X); got != want {
					panic("concurrent lookup returned a different frame")
				}
			}
		}()
	}
	wg.Wait()
}
