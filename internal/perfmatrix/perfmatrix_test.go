package perfmatrix

import (
	"math"
	"testing"

	"twophase/internal/datahub"
	"twophase/internal/modelhub"
	"twophase/internal/synth"
	"twophase/internal/trainer"
)

// smallFixture builds a 4-model x 3-benchmark matrix quickly.
func smallFixture(t *testing.T) (*modelhub.Repository, []*datahub.Dataset, *Matrix) {
	t.Helper()
	w := synth.NewWorld(42)
	specs := modelhub.NLPSpecs()[:4]
	repo, err := modelhub.NewRepository(w, datahub.TaskNLP, specs)
	if err != nil {
		t.Fatal(err)
	}
	var benches []*datahub.Dataset
	for _, spec := range datahub.NLPBenchmarks()[:3] {
		d, err := datahub.Generate(w, spec, datahub.Sizes{Train: 60, Val: 40, Test: 60})
		if err != nil {
			t.Fatal(err)
		}
		benches = append(benches, d)
	}
	m, err := Build(repo, benches, trainer.Default(datahub.TaskNLP), w.Seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	return repo, benches, m
}

func TestBuildComplete(t *testing.T) {
	repo, benches, m := smallFixture(t)
	if len(m.Models) != repo.Len() || len(m.Datasets) != len(benches) {
		t.Fatalf("matrix shape %dx%d", len(m.Models), len(m.Datasets))
	}
	if len(m.Entries) != repo.Len()*len(benches) {
		t.Fatalf("entries %d", len(m.Entries))
	}
	for _, model := range m.Models {
		for _, ds := range m.Datasets {
			e, err := m.Entry(model, ds)
			if err != nil {
				t.Fatal(err)
			}
			if len(e.Val) != m.Epochs || len(e.Test) != m.Epochs {
				t.Fatalf("curve lengths %d/%d", len(e.Val), len(e.Test))
			}
			p, err := m.Perf(model, ds)
			if err != nil {
				t.Fatal(err)
			}
			if p < 0 || p > 1 {
				t.Fatalf("perf %v", p)
			}
		}
	}
}

func TestBuildRejectsTargets(t *testing.T) {
	w := synth.NewWorld(42)
	repo, err := modelhub.NewRepository(w, datahub.TaskNLP, modelhub.NLPSpecs()[:2])
	if err != nil {
		t.Fatal(err)
	}
	target, err := datahub.Generate(w, datahub.NLPTargets()[0], datahub.Sizes{Train: 20, Val: 10, Test: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(repo, []*datahub.Dataset{target}, trainer.Default(datahub.TaskNLP), 42, 0); err == nil {
		t.Fatal("target dataset accepted as benchmark")
	}
	if _, err := Build(repo, nil, trainer.Default(datahub.TaskNLP), 42, 0); err == nil {
		t.Fatal("empty benchmark list accepted")
	}
}

func TestBuildDeterministicDespiteParallelism(t *testing.T) {
	_, _, a := smallFixture(t)
	_, _, b := smallFixture(t)
	for k, ea := range a.Entries {
		eb := b.Entries[k]
		for i := range ea.Val {
			if ea.Val[i] != eb.Val[i] {
				t.Fatal("parallel builds diverged")
			}
		}
	}
}

// TestBuildWorkerCountInvariant pins the BuildWorkers contract at the
// matrix level: serial (1) and oversubscribed (3 workers for 12 cells)
// builds must agree bit for bit on every curve point with the default-
// budget fixture.
func TestBuildWorkerCountInvariant(t *testing.T) {
	repo, benches, base := smallFixture(t)
	for _, workers := range []int{1, 3} {
		m, err := Build(repo, benches, trainer.Default(datahub.TaskNLP), 42, workers)
		if err != nil {
			t.Fatal(err)
		}
		for k, eb := range base.Entries {
			em, ok := m.Entries[k]
			if !ok {
				t.Fatalf("workers=%d: missing entry %q", workers, k)
			}
			for i := range eb.Val {
				if math.Float64bits(eb.Val[i]) != math.Float64bits(em.Val[i]) ||
					math.Float64bits(eb.Test[i]) != math.Float64bits(em.Test[i]) {
					t.Fatalf("workers=%d: curve %q diverges at epoch %d", workers, k, i)
				}
			}
		}
	}
}

func TestVectorAndAvgAcc(t *testing.T) {
	_, _, m := smallFixture(t)
	v, err := m.Vector(m.Models[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != len(m.Datasets) {
		t.Fatalf("vector len %d", len(v))
	}
	avg, err := m.AvgAcc(m.Models[0])
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for _, x := range v {
		want += x
	}
	want /= float64(len(v))
	if avg != want {
		t.Fatalf("avg %v != %v", avg, want)
	}
	if _, err := m.Vector("missing"); err == nil {
		t.Fatal("missing model accepted")
	}
}

func TestValCurves(t *testing.T) {
	_, _, m := smallFixture(t)
	vals, finals, err := m.ValCurves(m.Models[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != len(m.Datasets) || len(finals) != len(m.Datasets) {
		t.Fatal("ValCurves lengths wrong")
	}
	for i, ds := range m.Datasets {
		e, err := m.Entry(m.Models[1], ds)
		if err != nil {
			t.Fatal(err)
		}
		if finals[i] != e.FinalTest() {
			t.Fatal("final mismatch")
		}
	}
}

func TestEntryFinalTestEmpty(t *testing.T) {
	e := &Entry{}
	if e.FinalTest() != 0 {
		t.Fatal("empty entry final should be 0")
	}
}
