package stochastic

import (
	"math"
	"testing"
	"testing/quick"

	"durability/internal/rng"
	"durability/internal/stats"
)

func TestScalarClone(t *testing.T) {
	s := &Scalar{V: 3}
	c := s.Clone().(*Scalar)
	c.V = 7
	if s.V != 3 {
		t.Fatal("Clone did not copy")
	}
}

func TestScalarValuePanicsOnWrongType(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ScalarValue on ChainState did not panic")
		}
	}()
	ScalarValue(&ChainState{})
}

func TestRandomWalkMoments(t *testing.T) {
	w := &RandomWalk{Start: 10, Drift: 0.5, Sigma: 2}
	src := rng.New(1)
	const n = 20000
	const steps = 50
	var acc stats.Accumulator
	for i := 0; i < n; i++ {
		s := w.Initial()
		for step := 1; step <= steps; step++ {
			w.Step(s, step, src)
		}
		acc.Add(ScalarValue(s))
	}
	wantMean := 10 + 0.5*steps
	wantVar := 4.0 * steps
	if math.Abs(acc.Mean()-wantMean) > 0.3 {
		t.Errorf("mean after %d steps = %v, want ~%v", steps, acc.Mean(), wantMean)
	}
	if math.Abs(acc.Variance()-wantVar) > 0.05*wantVar {
		t.Errorf("variance after %d steps = %v, want ~%v", steps, acc.Variance(), wantVar)
	}
}

func TestARStationaryVariance(t *testing.T) {
	// AR(1) with phi=0.8, sigma=1 has stationary variance 1/(1-0.64).
	a := NewAR([]float64{0.8}, 1, 0)
	src := rng.New(2)
	var acc stats.Accumulator
	s := a.Initial()
	// burn in, then sample
	for step := 1; step <= 2000; step++ {
		a.Step(s, step, src)
	}
	for step := 0; step < 200000; step++ {
		a.Step(s, step, src)
		acc.Add(ARValue(s))
	}
	want := 1 / (1 - 0.64)
	if math.Abs(acc.Variance()-want) > 0.1*want {
		t.Errorf("stationary variance = %v, want ~%v", acc.Variance(), want)
	}
	if math.Abs(acc.Mean()) > 0.2 {
		t.Errorf("stationary mean = %v, want ~0", acc.Mean())
	}
}

func TestARRingBufferOrder(t *testing.T) {
	// With sigma=0 the process is deterministic; AR(2) with phi=(0,1)
	// copies v_{t-2}, so the series alternates between the two seeds.
	a := &AR{Phi: []float64{0, 1}, Sigma: 0, Start: []float64{5, 3}}
	// Start[0]=v_0 (most recent), Start[1]=v_{-1}.
	src := rng.New(3)
	s := a.Initial()
	got := make([]float64, 6)
	for i := range got {
		a.Step(s, i+1, src)
		got[i] = ARValue(s)
	}
	want := []float64{3, 5, 3, 5, 3, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("deterministic AR(2) series = %v, want %v", got, want)
		}
	}
}

func TestARCloneIndependence(t *testing.T) {
	a := NewAR([]float64{0.5, 0.2}, 1, 1)
	src := rng.New(4)
	s := a.Initial()
	for i := 1; i <= 10; i++ {
		a.Step(s, i, src)
	}
	c := s.Clone()
	before := ARValue(s)
	a.Step(c, 11, src)
	if ARValue(s) != before {
		t.Fatal("stepping a clone mutated the original")
	}
}

func TestARInitialPanicsOnBadHistory(t *testing.T) {
	a := &AR{Phi: []float64{0.5}, Sigma: 1, Start: []float64{1, 2}}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched Start length did not panic")
		}
	}()
	a.Initial()
}

func TestMarkovChainValidation(t *testing.T) {
	cases := []struct {
		name  string
		p     [][]float64
		start int
	}{
		{"empty", nil, 0},
		{"ragged", [][]float64{{1}, {0.5, 0.5}}, 0},
		{"negative", [][]float64{{1.5, -0.5}, {0, 1}}, 0},
		{"not-stochastic", [][]float64{{0.5, 0.4}, {0, 1}}, 0},
		{"bad-start", [][]float64{{1}}, 5},
	}
	for _, tc := range cases {
		if _, err := NewMarkovChain(tc.p, tc.start); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	if _, err := NewMarkovChain([][]float64{{0.3, 0.7}, {1, 0}}, 1); err != nil {
		t.Errorf("valid chain rejected: %v", err)
	}
}

func TestMarkovHitProbabilityTwoState(t *testing.T) {
	// From state 0, move to absorbing state 1 with prob p each step.
	// Pr[hit 1 within s] = 1 - (1-p)^s.
	p := 0.3
	mc, err := NewMarkovChain([][]float64{{1 - p, p}, {0, 1}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []int{1, 2, 5, 10} {
		got := mc.HitProbability(map[int]bool{1: true}, s)
		want := 1 - math.Pow(1-p, float64(s))
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("horizon %d: HitProbability = %v, want %v", s, got, want)
		}
	}
}

func TestMarkovHitProbabilityZeroHorizon(t *testing.T) {
	mc := BirthDeathChain(5, 0.4, 0)
	if got := mc.HitProbability(map[int]bool{4: true}, 0); got != 0 {
		t.Fatalf("zero horizon hit probability = %v, want 0", got)
	}
}

func TestMarkovSimulationMatchesExact(t *testing.T) {
	mc := BirthDeathChain(8, 0.45, 0)
	target := map[int]bool{6: true, 7: true}
	const horizon = 30
	want := mc.HitProbability(target, horizon)

	src := rng.New(5)
	const n = 60000
	hits := 0
	for i := 0; i < n; i++ {
		s := mc.Initial()
		for step := 1; step <= horizon; step++ {
			mc.Step(s, step, src)
			if target[s.(*ChainState).I] {
				hits++
				break
			}
		}
	}
	got := float64(hits) / n
	tol := 4 * math.Sqrt(want*(1-want)/n)
	if math.Abs(got-want) > tol {
		t.Fatalf("simulated hit rate %v vs exact %v (tol %v)", got, want, tol)
	}
}

func TestMarkovObserveValues(t *testing.T) {
	mc := BirthDeathChain(3, 0.5, 0)
	mc.Values = []float64{10, 20, 30}
	obs := mc.Observe()
	if v := obs(&ChainState{I: 2}); v != 30 {
		t.Fatalf("observe = %v, want 30", v)
	}
	mc.Values = nil
	if v := mc.Observe()(&ChainState{I: 2}); v != 2 {
		t.Fatalf("index observe = %v, want 2", v)
	}
}

func TestBirthDeathRows(t *testing.T) {
	mc := BirthDeathChain(4, 0.3, 2)
	if mc.P[0][0] != 0.7 || mc.P[0][1] != 0.3 {
		t.Fatal("reflecting lower boundary wrong")
	}
	if mc.P[3][3] != 0.3 || mc.P[3][2] != 0.7 {
		t.Fatal("reflecting upper boundary wrong")
	}
}

func TestQueueConservation(t *testing.T) {
	// Without services at queue 2 (rate ~0), every arrival eventually
	// accumulates; total customers never goes negative anywhere.
	q := NewTandemQueue(0.5, 2, 2)
	src := rng.New(6)
	s := q.Initial()
	for step := 1; step <= 2000; step++ {
		q.Step(s, step, src)
		qs := s.(*QueueState)
		if qs.Q1 < 0 || qs.Q2 < 0 {
			t.Fatalf("negative queue length at step %d: %+v", step, qs)
		}
	}
}

func TestQueueArrivalRate(t *testing.T) {
	// With instant service at both queues disabled (very slow service),
	// queue 1 accumulates arrivals at the arrival rate.
	q := &TandemQueue{ArrivalRate: 0.5, ServiceRate1: 1e-12, ServiceRate2: 1e-12}
	src := rng.New(7)
	const steps = 20000
	s := q.Initial()
	for step := 1; step <= steps; step++ {
		q.Step(s, step, src)
	}
	got := float64(s.(*QueueState).Q1) / steps
	if math.Abs(got-0.5) > 0.02 {
		t.Fatalf("arrival rate = %v, want ~0.5", got)
	}
}

func TestQueueThroughput(t *testing.T) {
	// With fast service at queue 1 and negligible service at queue 2,
	// queue 2 accumulates at the arrival rate (everything flows through).
	q := &TandemQueue{ArrivalRate: 0.5, ServiceRate1: 100, ServiceRate2: 1e-12}
	src := rng.New(8)
	const steps = 20000
	s := q.Initial()
	for step := 1; step <= steps; step++ {
		q.Step(s, step, src)
	}
	got := float64(s.(*QueueState).Q2) / steps
	if math.Abs(got-0.5) > 0.02 {
		t.Fatalf("throughput = %v, want ~0.5", got)
	}
}

func TestQueueImpulse(t *testing.T) {
	q := NewTandemQueue(0.5, 2, 2)
	q.ImpulseProb = 1
	q.ImpulseSize = 5
	q.ImpulseAfter = 10
	src := rng.New(9)
	s := q.Initial()
	for step := 1; step <= 9; step++ {
		q.Step(s, step, src)
	}
	before := s.(*QueueState).Q2
	q.Step(s, 10, src)
	after := s.(*QueueState).Q2
	if after < before+5-1 { // -1: a service completion can offset by one
		t.Fatalf("impulse at step 10 moved Q2 from %d to %d, want jump of ~5", before, after)
	}
	if q.Name() != "volatile-tandem-queue" {
		t.Fatalf("volatile queue name = %q", q.Name())
	}
}

func TestCPPMeanDrift(t *testing.T) {
	p := NewCompoundPoisson(15, 4.5, 0.8, 5, 10)
	if math.Abs(p.MeanDrift()-(-1.5)) > 1e-12 {
		t.Fatalf("MeanDrift = %v, want -1.5", p.MeanDrift())
	}
}

func TestCPPEmpiricalDrift(t *testing.T) {
	p := NewCompoundPoisson(0, 6.0, 0.8, 5, 10)
	src := rng.New(10)
	const n = 3000
	const steps = 100
	var acc stats.Accumulator
	for i := 0; i < n; i++ {
		s := p.Initial()
		for step := 1; step <= steps; step++ {
			p.Step(s, step, src)
		}
		acc.Add(ScalarValue(s) / steps)
	}
	if math.Abs(acc.Mean()-p.MeanDrift()) > 0.05 {
		t.Fatalf("empirical drift = %v, want ~%v", acc.Mean(), p.MeanDrift())
	}
}

func TestCPPImpulse(t *testing.T) {
	p := NewCompoundPoisson(0, 0, 0, 1, 2) // no premium, no claims
	p.ImpulseProb = 1
	p.ImpulseSize = 200
	p.ImpulseAfter = 5
	src := rng.New(11)
	s := p.Initial()
	for step := 1; step <= 4; step++ {
		p.Step(s, step, src)
	}
	if v := ScalarValue(s); v != 0 {
		t.Fatalf("value before impulse window = %v, want 0", v)
	}
	p.Step(s, 5, src)
	if v := ScalarValue(s); v != 200 {
		t.Fatalf("value after forced impulse = %v, want 200", v)
	}
	if p.Name() != "volatile-cpp" {
		t.Fatalf("volatile CPP name = %q", p.Name())
	}
}

func TestGBMLogNormalMoments(t *testing.T) {
	g := &GBM{S0: 100, Mu: 0.001, Sigma: 0.02}
	src := rng.New(12)
	const n = 50000
	const steps = 10
	var acc stats.Accumulator
	for i := 0; i < n; i++ {
		s := g.Initial()
		for step := 1; step <= steps; step++ {
			g.Step(s, step, src)
		}
		acc.Add(math.Log(ScalarValue(s) / 100))
	}
	wantMean := (0.001 - 0.0002) * steps
	if math.Abs(acc.Mean()-wantMean) > 0.001 {
		t.Errorf("log-return mean = %v, want ~%v", acc.Mean(), wantMean)
	}
	wantVar := 0.0004 * steps
	if math.Abs(acc.Variance()-wantVar) > 0.1*wantVar {
		t.Errorf("log-return variance = %v, want ~%v", acc.Variance(), wantVar)
	}
}

func TestGBMSeriesWithRegimes(t *testing.T) {
	g := &GBM{S0: 100, Mu: 0, Sigma: 0.02}
	series := g.SeriesWithRegimes(1000, rng.New(13))
	if len(series) != 1000 {
		t.Fatalf("series length = %d", len(series))
	}
	for i, v := range series {
		if v <= 0 || math.IsNaN(v) {
			t.Fatalf("series[%d] = %v, prices must stay positive", i, v)
		}
	}
}

func TestSimulateHelper(t *testing.T) {
	w := &RandomWalk{Start: 0, Drift: 1, Sigma: 0}
	vals := Simulate(w, 5, ScalarValue, rng.New(14))
	want := []float64{1, 2, 3, 4, 5}
	for i := range want {
		if vals[i] != want[i] {
			t.Fatalf("Simulate = %v, want %v", vals, want)
		}
	}
}

func TestMaxValueHelper(t *testing.T) {
	w := &RandomWalk{Start: 0, Drift: -1, Sigma: 0}
	if got := MaxValue(w, 5, ScalarValue, rng.New(15)); got != 0 {
		t.Fatalf("MaxValue of decreasing walk = %v, want 0 (initial)", got)
	}
}

// Property: all states clone into independent copies — stepping the clone
// never changes the original's observation.
func TestQuickCloneIndependence(t *testing.T) {
	models := []struct {
		p   Process
		obs Observer
	}{
		{&RandomWalk{Start: 1, Drift: 0.1, Sigma: 1}, ScalarValue},
		{NewCompoundPoisson(15, 4.5, 0.8, 5, 10), ScalarValue},
		{NewTandemQueue(0.5, 2, 2), Queue2Len},
		{BirthDeathChain(10, 0.5, 3), ChainIndex},
		{NewAR([]float64{0.5, 0.3}, 1, 2), ARValue},
	}
	f := func(seed uint64, warm uint8) bool {
		src := rng.New(seed)
		for _, m := range models {
			s := m.p.Initial()
			for i := 1; i <= int(warm%32); i++ {
				m.p.Step(s, i, src)
			}
			before := m.obs(s)
			c := s.Clone()
			m.p.Step(c, 100, src)
			if m.obs(s) != before {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkQueueStep steps the paper's queue from empty, restarting the
// path every 500 steps (the query horizon) so the queues keep emptying
// and refilling: one unbounded path would drift to long queues whose
// total rate never changes.
func BenchmarkQueueStep(b *testing.B) {
	const horizon = 500
	q := NewTandemQueue(0.5, 2, 2)
	src := rng.New(1)
	s := q.Initial().(*QueueState)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := i%horizon + 1
		if t == 1 {
			*s = QueueState{}
		}
		q.Step(s, t, src)
	}
}

func BenchmarkCPPStep(b *testing.B) {
	p := NewCompoundPoisson(15, 4.5, 0.8, 5, 10)
	src := rng.New(1)
	s := p.Initial()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Step(s, i+1, src)
	}
}
