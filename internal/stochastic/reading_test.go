package stochastic

import (
	"fmt"
	"math"
	"testing"

	"durability/internal/rng"
)

// readingCases returns every built-in model with each of its observers,
// the form ResolveReading must pick for it, and the models without a
// native bulk form behind the Lanes adapter.
func readingCases(t *testing.T) []struct {
	name string
	proc BulkProcess
	obs  Observer
	kind readKind
} {
	t.Helper()
	regime, err := NewRegimeSwitching(0,
		[][]float64{{0.95, 0.05}, {0.2, 0.8}},
		[]float64{0.01, 0.3}, []float64{0.5, 2.0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	market, err := NewMarket(3, 50, 2, 0.02, 0.03)
	if err != nil {
		t.Fatal(err)
	}
	gbm := &GBM{S0: 100, Mu: 0.001, Sigma: 0.05}
	queue := &TandemQueue{ArrivalRate: 0.5, ServiceRate1: 0.5, ServiceRate2: 0.5, ImpulseProb: 0.1, ImpulseSize: 3, ImpulseAfter: 2}
	chain := BirthDeathChain(12, 0.45, 2)
	valued := BirthDeathChain(12, 0.45, 2)
	valued.Values = make([]float64, len(valued.P))
	for i := range valued.Values {
		valued.Values[i] = math.Sqrt(float64(i)) - 1
	}
	return []struct {
		name string
		proc BulkProcess
		obs  Observer
		kind readKind
	}{
		{"gbm", gbm, ScalarValue, readScalar},
		{"walk", &RandomWalk{Start: 5, Drift: 0.1, Sigma: 2}, ScalarValue, readScalar},
		{"cpp", &CompoundPoisson{U0: 10, Premium: 1, ClaimRate: 0.8, ClaimLo: 0, ClaimHi: 2, ImpulseProb: 0.05, ImpulseSize: 4, ImpulseAfter: 3}, ScalarValue, readScalar},
		{"pinned-gbm", Pin(gbm, &Scalar{V: 90}), ScalarValue, readScalar},
		{"queue-q1", queue, Queue1Len, readQueue1},
		{"queue-q2", queue, Queue2Len, readQueue2},
		{"chain", chain, ChainIndex, readChain},
		{"chain-observe", chain, chain.Observe(), readChain},
		{"chain-values", valued, valued.Observe(), readViews},
		{"regime", regime, RegimeValue, readRegime},
		{"regime-index", regime, RegimeIndex, readViews},
		{"ar", NewAR([]float64{0.6, 0.3}, 1.5, 1), ARValue, readAR},
		{"gbm-closure", gbm, func(s State) float64 { return ScalarValue(s) }, readViews},
		{"gbm-lanes", Lanes(gbm), ScalarValue, readViews},
		{"queue-lanes", Lanes(queue), Queue2Len, readViews},
		{"chain-lanes", Lanes(chain), ChainIndex, readViews},
		{"network-node", AsBulk(Tandem(0.5, 0.5, 0.5)), NodeLen(1), readViews},
		{"network-total", AsBulk(Tandem(0.5, 0.5, 0.5)), TotalLen, readViews},
		{"market-pe", AsBulk(market), PE(1), readViews},
	}
}

// TestReadingMatchesObserver pins how each observer resolves (Queue1Len
// and Queue2Len to readings of their own; closures, Observe with Values
// and every model behind Lanes to the per-lane call) and holds every
// reading, typed or not, to the observer on the lane's view, bit for
// bit: after Load, after each StepVec, after Save/Restore and, on scalar
// states, for NaN, ±Inf and signed zeros, over 67 lanes read in full and
// as a sparse, reversed subset.
func TestReadingMatchesObserver(t *testing.T) {
	for _, c := range readingCases(t) {
		t.Run(c.name, func(t *testing.T) {
			const lanes = 67
			vec := c.proc.NewStateVec(lanes)
			r := ResolveReading(vec, c.obs)
			if r.kind != c.kind {
				t.Fatalf("resolved to reading kind %d, want %d", r.kind, c.kind)
			}
			views := vec.Views()
			all := make([]int, lanes)
			var sparse []int
			srcs := make([]rng.Source, lanes)
			srcPtr := make([]*rng.Source, lanes)
			ts := make([]int, lanes)
			for i := range all {
				all[i] = i
				if i%3 != 1 {
					sparse = append([]int{i}, sparse...)
				}
				srcs[i].SeedStream(17, uint64(i))
				srcPtr[i] = &srcs[i]
				vec.Load(i, c.proc.Initial())
			}
			z := make([]float64, lanes)
			check := func(stage string) {
				t.Helper()
				for _, active := range [][]int{all, sparse} {
					for p := range z {
						z[p] = math.NaN()
					}
					vec.Read(r, active, z)
					for p, i := range active {
						if got, want := math.Float64bits(z[p]), math.Float64bits(c.obs(views[i])); got != want {
							t.Fatalf("%s: lane %d at position %d read %v (%#x), observer %v (%#x)",
								stage, i, p, z[p], got, c.obs(views[i]), want)
						}
					}
				}
			}
			check("load")
			for step := 1; step <= 40; step++ {
				for i := range ts {
					ts[i] = step
				}
				c.proc.StepVec(vec, all, ts, srcPtr)
				check(fmt.Sprintf("step %d", step))
			}
			spills := make([]int, 10)
			for i := range spills {
				spills[i] = vec.Save(i)
			}
			c.proc.StepVec(vec, all, ts, srcPtr)
			for i, h := range spills {
				vec.Restore(lanes-1-i, h)
				vec.Drop(h)
			}
			check("restore")
			if _, ok := c.proc.Initial().(*Scalar); ok {
				// NaNs of several payloads, infinities, signed zeros and a
				// subnormal pass through a reading bit for bit.
				special := []float64{
					math.NaN(), math.Float64frombits(0x7ff0_0000_0000_0001), math.Float64frombits(0xfff8_0000_0000_dead),
					math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.MaxFloat64,
				}
				for i := range all {
					vec.Load(i, &Scalar{V: special[i%len(special)]})
				}
				check("special values")
			}
		})
	}
}

// TestReadingOfWrongStateTypePanics applies built-in observers to lanes
// of another state type: the reading panics with the observer's own
// message, as the observer called on the view does.
func TestReadingOfWrongStateTypePanics(t *testing.T) {
	cases := []struct {
		name string
		proc BulkProcess
		obs  Observer
	}{
		{"queue-on-scalar", &GBM{S0: 1, Mu: 0, Sigma: 0.1}, Queue2Len},
		{"scalar-on-queue", NewTandemQueue(0.5, 2, 2), ScalarValue},
		{"ar-on-regime", &RegimeSwitching{Start: 0, Switch: [][]float64{{1}}, Drift: []float64{0}, Sigma: []float64{1}}, ARValue},
		{"scalar-on-lanes-queue", Lanes(NewTandemQueue(0.5, 2, 2)), ScalarValue},
	}
	catch := func(f func()) (v any) {
		defer func() { v = recover() }()
		f()
		return nil
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			vec := c.proc.NewStateVec(1)
			vec.Load(0, c.proc.Initial())
			r := ResolveReading(vec, c.obs)
			if r.kind != readViews {
				t.Fatalf("resolved to typed reading kind %d on the wrong vec", r.kind)
			}
			want := catch(func() { c.obs(vec.Views()[0]) })
			if want == nil {
				t.Fatal("the observer itself did not panic")
			}
			got := catch(func() { vec.Read(r, []int{0}, make([]float64, 1)) })
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("reading panicked with %v, observer with %v", got, want)
			}
		})
	}
}

// TestQueueVecClockFollowsRates steps one queue vec while its model's
// rates change between calls, and a second model with other rates
// steps the same vec: every step matches Step, which builds its clock
// afresh, state and source alike.
func TestQueueVecClockFollowsRates(t *testing.T) {
	const lanes = 8
	q := NewTandemQueue(0.5, 2, 2)
	other := &TandemQueue{ArrivalRate: 2, ServiceRate1: 3, ServiceRate2: 0.25}
	vec := q.NewStateVec(lanes).(*queueVec)
	srcs := make([]rng.Source, lanes)
	srcPtr := make([]*rng.Source, lanes)
	scalar := make([]QueueState, lanes)
	scalarSrc := make([]rng.Source, lanes)
	active := make([]int, lanes)
	ts := make([]int, lanes)
	for i := range active {
		active[i] = i
		srcs[i].SeedStream(23, uint64(i))
		srcPtr[i] = &srcs[i]
		scalarSrc[i] = srcs[i]
	}
	rates := [][3]float64{{0.5, 0.5, 0.5}, {0.5, 0.5, 4}, {9, 0.5, 4}, {0.5, 0.5, 0.5}}
	for step := 1; step <= 400; step++ {
		m := q
		if step%7 == 0 {
			m = other
		} else {
			r := rates[(step/50)%len(rates)]
			q.ArrivalRate, q.ServiceRate1, q.ServiceRate2 = r[0], r[1], r[2]
		}
		for i := range ts {
			ts[i] = step
		}
		m.StepVec(vec, active, ts, srcPtr)
		for i := range active {
			m.Step(&scalar[i], step, &scalarSrc[i])
			if vec.lane[i] != scalar[i] || srcs[i] != scalarSrc[i] {
				t.Fatalf("step %d lane %d: StepVec %+v, Step %+v; sources equal: %v",
					step, i, vec.lane[i], scalar[i], srcs[i] == scalarSrc[i])
			}
		}
	}
}
