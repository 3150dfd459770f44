package main

import (
	"context"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"durability/internal/cluster"
	"durability/internal/exec"
	"durability/internal/experiments"
	"durability/internal/mc"
	"durability/internal/neural"
	"durability/internal/rng"
	"durability/internal/serve"
	"durability/internal/stochastic"
)

func TestBuildModelKinds(t *testing.T) {
	reg := registry(experiments.DefaultModelParams(), "")
	for _, kind := range slices.Sorted(maps.Keys(reg)) {
		proc, obs, err := buildModel(reg, kind)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if obs == nil {
			t.Fatalf("%s: no value observer", kind)
		}
		src := rng.New(1)
		s := proc.Initial()
		for i := 1; i <= 5; i++ {
			proc.Step(s, i, src)
		}
		_ = obs(s) // must not panic
	}
}

func TestBuildModelUnknownKind(t *testing.T) {
	if _, _, err := buildModel(registry(experiments.DefaultModelParams(), ""), "bogus"); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestBuildModelRNNRequiresWeights(t *testing.T) {
	p := experiments.DefaultModelParams()
	if _, _, err := buildModel(registry(p, ""), "rnn"); err == nil {
		t.Fatal("rnn without weights accepted")
	}
	if _, _, err := buildModel(registry(p, "/no/such/file"), "rnn"); err == nil {
		t.Fatal("missing weights file accepted")
	}
}

func TestBuildModelRNNRoundTrip(t *testing.T) {
	// Train a tiny model, save it, and load it through buildModel — the
	// trainrnn -> durquery pipeline.
	gbm := &stochastic.GBM{S0: 500, Mu: 0, Sigma: 0.02}
	series := gbm.SeriesWithRegimes(300, rng.New(4))
	model := neural.NewModel(neural.Config{Hidden: 6, Layers: 1, Mixtures: 2, SeqLen: 20}, 5)
	if _, err := model.Train(series, 1); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "weights.gob")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := model.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	p := experiments.DefaultModelParams()
	p.S0 = 500
	proc, obs, err := buildModel(registry(p, path), "rnn")
	if err != nil {
		t.Fatal(err)
	}
	s := proc.Initial()
	if obs(s) != 500 {
		t.Fatalf("initial price = %v", obs(s))
	}
	src := rng.New(2)
	proc.Step(s, 1, src)
	if obs(s) <= 0 {
		t.Fatalf("price after one step = %v", obs(s))
	}
}

// TestPeersAnswerEqualsLocal answers one budget-capped query per model
// of the built-in table twice — in-process, and over two shard workers
// serving the same table, as -peers does — and requires the same answer
// bit for bit: root path i draws from substream i wherever it runs.
func TestPeersAnswerEqualsLocal(t *testing.T) {
	queries := map[string]struct {
		beta    float64
		horizon int
	}{
		"queue":          {37, 500},
		"volatile-queue": {85, 500},
		"cpp":            {300, 500},
		"volatile-cpp":   {700, 500},
		"walk":           {12, 100},
		"gbm":            {1150, 100},
	}
	reg := experiments.Models(experiments.DefaultModelParams())
	if names := slices.Sorted(maps.Keys(reg)); !slices.Equal(names, slices.Sorted(maps.Keys(queries))) {
		t.Fatalf("the table holds %v; give every model a query here", names)
	}
	addrs, stop, err := cluster.ServeLocal(reg, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	backend := exec.NewCluster(addrs...)
	defer backend.Close()

	ctx := context.Background()
	for name, q := range queries {
		proc, obs, err := buildModel(reg, name)
		if err != nil {
			t.Fatal(err)
		}
		spec := serve.Spec{
			Proc: proc, Obs: obs, ModelID: name, ObserverID: "value",
			Beta: q.beta, Horizon: q.horizon, Method: serve.GMLSS, PlanMode: serve.PlanAuto,
			Ratio: 3, Seed: 3, SimWorkers: 2,
			Stop: mc.Any{mc.RETarget{Target: 0.2}, mc.Budget{Steps: 300_000}},
		}
		local, _, err := (&serve.Runner{}).Run(ctx, spec)
		if err != nil {
			t.Fatalf("%s local: %v", name, err)
		}
		peers, _, err := (&serve.Runner{Exec: backend}).Run(ctx, spec)
		if err != nil {
			t.Fatalf("%s over peers: %v", name, err)
		}
		if local.Paths == 0 || local.Hits == 0 {
			t.Errorf("%s: degenerate answer %v", name, local)
		}
		if local.P != peers.P || local.CI(0.95) != peers.CI(0.95) || local.Steps != peers.Steps ||
			local.Paths != peers.Paths || local.Hits != peers.Hits {
			t.Errorf("%s: over peers %v, locally %v", name, peers, local)
		}
	}
}
