package is

import (
	"context"
	"math"
	"testing"

	"durability/internal/core"
	"durability/internal/mc"
	"durability/internal/stochastic"
)

// rareWalk is a driftless walk whose hitting probability at beta within
// the horizon is ~1.4e-4 (3.8 sigma of the terminal distribution).
func rareWalk() (*stochastic.RandomWalk, float64, int) {
	return &stochastic.RandomWalk{Start: 0, Drift: 0, Sigma: 1}, 38.0, 100
}

// srs is plain Monte Carlo on the walk: g-MLSS on the empty plan.
func srs(walk *stochastic.RandomWalk, beta float64, horizon int, stop mc.StopRule, seed uint64) *core.GMLSS {
	return &core.GMLSS{
		Proc:  walk,
		Query: core.Query{Z: stochastic.ScalarValue, Beta: beta, Horizon: horizon},
		Plan:  core.Plan{},
		Ratio: 1,
		Stop:  stop,
		Seed:  seed,
	}
}

// srsReference estimates the same probability with plain Monte Carlo.
func srsReference(t *testing.T, budget int64) float64 {
	t.Helper()
	walk, beta, horizon := rareWalk()
	res, err := srs(walk, beta, horizon, mc.Budget{Steps: budget}, 99).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res.P
}

func TestWalkISValidation(t *testing.T) {
	ctx := context.Background()
	walk, beta, horizon := rareWalk()
	cases := []*WalkIS{
		{Beta: beta, Horizon: horizon, Stop: mc.Budget{Steps: 1}},                                         // nil walk
		{Walk: &stochastic.RandomWalk{Sigma: 0}, Beta: beta, Horizon: horizon, Stop: mc.Budget{Steps: 1}}, // sigma 0
		{Walk: walk, Beta: beta, Horizon: 0, Stop: mc.Budget{Steps: 1}},                                   // horizon 0
		{Walk: walk, Beta: beta, Horizon: horizon},                                                        // no stop rule
	}
	for i, w := range cases {
		if _, err := w.Run(ctx); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestZeroTiltMatchesSRS(t *testing.T) {
	// theta = 0 is exactly SRS: weights are 0/1.
	walk := &stochastic.RandomWalk{Start: 0, Drift: 0, Sigma: 1}
	w := &WalkIS{
		Walk: walk, Beta: 8, Horizon: 100, Theta: 0,
		Stop: mc.Budget{Steps: 2_000_000}, Seed: 1,
	}
	res, err := w.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(res.Hits)/float64(res.Paths)-res.P) > 1e-12 {
		t.Fatalf("zero-tilt estimate %v is not hits/paths", res.P)
	}
	// ~0.21 analytic-ish; just require a sane common-event estimate.
	if res.P < 0.1 || res.P > 0.4 {
		t.Fatalf("estimate %v out of plausible range", res.P)
	}
}

func TestTiltedISUnbiased(t *testing.T) {
	walk, beta, horizon := rareWalk()
	w := &WalkIS{
		Walk: walk, Beta: beta, Horizon: horizon,
		Theta: 0.38, // near-optimal: drift*T reaches beta
		Stop:  mc.Budget{Steps: 3_000_000}, Seed: 2,
	}
	res, err := w.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ref := srsReference(t, 60_000_000)
	if ref == 0 {
		t.Skip("reference saw no hits; enlarge budget")
	}
	if math.Abs(res.P-ref) > 0.5*ref {
		t.Fatalf("IS estimate %v vs SRS reference %v", res.P, ref)
	}
	if res.Variance <= 0 {
		t.Fatal("no variance estimate")
	}
}

func TestISBeatsSRSOnRareEvent(t *testing.T) {
	walk, beta, horizon := rareWalk()
	target := mc.Any{mc.RETarget{Target: 0.2}, mc.Budget{Steps: 500_000_000}}
	w := &WalkIS{Walk: walk, Beta: beta, Horizon: horizon, Theta: 0.38, Stop: target, Seed: 3}
	res, err := w.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sres, err := srs(walk, beta, horizon, target, 4).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps*5 > sres.Steps {
		t.Fatalf("IS %d steps vs SRS %d — expected >5x advantage", res.Steps, sres.Steps)
	}
	t.Logf("rare walk: IS %d steps vs SRS %d (%.0fx)", res.Steps, sres.Steps, float64(sres.Steps)/float64(res.Steps))
}

func TestCrossEntropyFindsPositiveTilt(t *testing.T) {
	walk, beta, horizon := rareWalk()
	theta, cost, err := CrossEntropyTilt(walk, beta, horizon, 4, 400, 0.1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if cost == 0 {
		t.Fatal("no pilot cost recorded")
	}
	// The optimal tilt pushes the drift toward beta/horizon = 0.38.
	if theta < 0.15 || theta > 0.8 {
		t.Fatalf("CE tilt = %v, want roughly 0.2-0.6", theta)
	}
	// The CE-selected tilt must produce a working sampler.
	w := &WalkIS{Walk: walk, Beta: beta, Horizon: horizon, Theta: theta,
		Stop: mc.Budget{Steps: 2_000_000}, Seed: 6}
	res, err := w.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.P <= 0 {
		t.Fatal("CE-tilted sampler saw no weighted hits")
	}
}

func TestCrossEntropyValidation(t *testing.T) {
	walk, beta, horizon := rareWalk()
	if _, _, err := CrossEntropyTilt(nil, beta, horizon, 3, 100, 0.1, 1); err == nil {
		t.Error("nil walk accepted")
	}
	if _, _, err := CrossEntropyTilt(walk, beta, horizon, 3, 100, 0, 1); err == nil {
		t.Error("zero elite accepted")
	}
	if _, _, err := CrossEntropyTilt(walk, beta, horizon, 0, 100, 0.1, 1); err == nil {
		t.Error("zero rounds accepted")
	}
	if _, _, err := CrossEntropyTilt(walk, beta, horizon, 3, 5, 0.1, 1); err == nil {
		t.Error("too few pilots accepted")
	}
}

func TestISContextCancel(t *testing.T) {
	walk, beta, horizon := rareWalk()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w := &WalkIS{Walk: walk, Beta: beta, Horizon: horizon, Theta: 0.3,
		Stop: mc.Budget{Steps: 1 << 60}, Seed: 7}
	if _, err := w.Run(ctx); err == nil {
		t.Fatal("cancelled run returned nil error")
	}
}
