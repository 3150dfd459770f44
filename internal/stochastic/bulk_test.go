package stochastic

import (
	"testing"

	"durability/internal/rng"
)

// bulkModels returns every built-in BulkProcess alongside an observer,
// for the differential tests below, plus each model behind the Lanes
// adapter ("<name>-lanes") and behind it twice ("<name>-lanes-lanes"),
// so the adapter, and the adapter over an adapted model, meet the same
// contract.
// Parameters are chosen so paths move through interesting dynamics
// (impulses enabled, multiple regimes).
func bulkModels(t *testing.T) map[string]struct {
	proc BulkProcess
	obs  Observer
} {
	t.Helper()
	regime, err := NewRegimeSwitching(0,
		[][]float64{{0.95, 0.05}, {0.2, 0.8}},
		[]float64{0.01, 0.3}, []float64{0.5, 2.0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	models := map[string]struct {
		proc BulkProcess
		obs  Observer
	}{
		"gbm":    {&GBM{S0: 100, Mu: 0.001, Sigma: 0.05}, ScalarValue},
		"walk":   {&RandomWalk{Start: 5, Drift: 0.1, Sigma: 2}, ScalarValue},
		"ar":     {NewAR([]float64{0.6, 0.3}, 1.5, 1), ARValue},
		"cpp":    {&CompoundPoisson{U0: 10, Premium: 1, ClaimRate: 0.8, ClaimLo: 0, ClaimHi: 2, ImpulseProb: 0.05, ImpulseSize: 4, ImpulseAfter: 3}, ScalarValue},
		"chain":  {BirthDeathChain(12, 0.45, 2), ChainIndex},
		"regime": {regime, RegimeValue},
		"queue":  {&TandemQueue{ArrivalRate: 0.5, ServiceRate1: 0.5, ServiceRate2: 0.5, ImpulseProb: 0.1, ImpulseSize: 3, ImpulseAfter: 2}, Queue2Len},
	}
	// Collect the wrapped models apart: keys added to a map while ranging
	// over it may or may not be visited, which would make the set of
	// cases differ from run to run.
	wrapped := make(map[string]struct {
		proc BulkProcess
		obs  Observer
	}, 2*len(models))
	for name, m := range models {
		m.proc = Lanes(m.proc)
		wrapped[name+"-lanes"] = m
		m.proc = Lanes(m.proc)
		wrapped[name+"-lanes-lanes"] = m
	}
	for name, m := range wrapped {
		models[name] = m
	}
	return models
}

// TestStepVecMatchesStep drives several lanes through StepVec and the
// same substreams through scalar Step, asserting the observed
// trajectories are bit-for-bit equal. This is the bulk contract at its
// smallest scope: one lane, one step, one source.
func TestStepVecMatchesStep(t *testing.T) {
	const lanes, steps = 7, 64
	for name, m := range bulkModels(t) {
		t.Run(name, func(t *testing.T) {
			vec := m.proc.NewStateVec(lanes)
			if got := vec.Lanes(); got != lanes {
				t.Fatalf("Lanes() = %d, want %d", got, lanes)
			}
			views := vec.Views()
			srcs := make([]rng.Source, lanes)
			srcPtr := make([]*rng.Source, lanes)
			active := make([]int, lanes)
			ts := make([]int, lanes)
			scalarStates := make([]State, lanes)
			scalarSrc := make([]*rng.Source, lanes)
			for i := 0; i < lanes; i++ {
				srcs[i].SeedStream(99, uint64(i))
				srcPtr[i] = &srcs[i]
				active[i] = i
				ts[i] = 1
				scalarStates[i] = m.proc.Initial()
				scalarSrc[i] = rng.NewStream(99, uint64(i))
				vec.Load(i, m.proc.Initial())
			}
			for step := 0; step < steps; step++ {
				m.proc.StepVec(vec, active, ts, srcPtr)
				for i := 0; i < lanes; i++ {
					m.proc.Step(scalarStates[i], ts[i], scalarSrc[i])
					if got, want := m.obs(views[i]), m.obs(scalarStates[i]); got != want {
						t.Fatalf("lane %d step %d: bulk %v != scalar %v", i, step, got, want)
					}
					ts[i]++
				}
			}
		})
	}
}

// TestStepVecSparseLanes checks that StepVec touches exactly the listed
// lanes: unlisted lanes keep their state and draw nothing.
func TestStepVecSparseLanes(t *testing.T) {
	for name, m := range bulkModels(t) {
		t.Run(name, func(t *testing.T) {
			const lanes = 5
			vec := m.proc.NewStateVec(lanes)
			views := vec.Views()
			srcs := make([]rng.Source, lanes)
			srcPtr := make([]*rng.Source, lanes)
			ts := make([]int, lanes)
			for i := 0; i < lanes; i++ {
				srcs[i].SeedStream(7, uint64(i))
				srcPtr[i] = &srcs[i]
				ts[i] = 1
				vec.Load(i, m.proc.Initial())
			}
			idle := m.obs(views[3])
			idleSrc := srcs[3]
			m.proc.StepVec(vec, []int{0, 1, 2, 4}, ts, srcPtr)
			if got := m.obs(views[3]); got != idle {
				t.Fatalf("unlisted lane changed: %v -> %v", idle, got)
			}
			if srcs[3] != idleSrc {
				t.Fatal("unlisted lane's source was advanced")
			}
		})
	}
}

// TestStateVecSaveRestore spills a lane, perturbs it, and restores,
// asserting the observation round-trips; Drop recycles the slot.
func TestStateVecSaveRestore(t *testing.T) {
	for name, m := range bulkModels(t) {
		t.Run(name, func(t *testing.T) {
			vec := m.proc.NewStateVec(2)
			views := vec.Views()
			src := rng.NewStream(3, 0)
			vec.Load(0, m.proc.Initial())
			for s := 0; s < 10; s++ {
				m.proc.StepVec(vec, []int{0}, []int{s + 1}, []*rng.Source{src})
			}
			want := m.obs(views[0])
			h := vec.Save(0)
			for s := 10; s < 20; s++ {
				m.proc.StepVec(vec, []int{0}, []int{s + 1}, []*rng.Source{src})
			}
			if m.obs(views[0]) == want {
				// Not fatal — a path can revisit a value — but every model
				// here moves with probability 1 under these parameters.
				t.Logf("state did not move after 10 steps; restore check is vacuous")
			}
			vec.Restore(0, h)
			if got := m.obs(views[0]); got != want {
				t.Fatalf("restore: got %v, want %v", got, want)
			}
			// The slot survives a restore and is reusable after Drop.
			vec.Restore(1, h)
			if got := m.obs(views[1]); got != want {
				t.Fatalf("restore into other lane: got %v, want %v", got, want)
			}
			vec.Drop(h)
			if h2 := vec.Save(0); h2 != h {
				t.Fatalf("free list did not recycle slot: got %d, want %d", h2, h)
			}
		})
	}
}

// TestViewsShareConcreteType asserts each view has the model's scalar
// state type, so observers and value functions apply unchanged.
func TestViewsShareConcreteType(t *testing.T) {
	for name, m := range bulkModels(t) {
		t.Run(name, func(t *testing.T) {
			vec := m.proc.NewStateVec(1)
			vec.Load(0, m.proc.Initial())
			// The observer itself type-asserts; a mismatch panics.
			_ = m.obs(vec.Views()[0])
		})
	}
}

// blackBox hides a model's native bulk form: only Process's methods are
// promoted, as for any out-of-tree model.
type blackBox struct{ Process }

// TestAsBulk asserts AsBulk keeps a native bulk form and adapts a
// black-box model with Lanes.
func TestAsBulk(t *testing.T) {
	g := &GBM{S0: 1, Mu: 0, Sigma: 0.1}
	if bp := AsBulk(g); bp != BulkProcess(g) {
		t.Fatalf("AsBulk replaced a native bulk model with %T", bp)
	}
	if _, ok := AsBulk(blackBox{g}).(lanes); !ok {
		t.Fatalf("AsBulk of a black-box model is %T, want the Lanes adapter", AsBulk(blackBox{g}))
	}
}

// TestPinPreservesBulk asserts pinning keeps a native bulk form, pins
// Initial, and adapts a black-box model.
func TestPinPreservesBulk(t *testing.T) {
	g := &GBM{S0: 1, Mu: 0, Sigma: 0.1}
	bp := Pin(g, &Scalar{V: 42})
	if bp.(pinned).BulkProcess != BulkProcess(g) {
		t.Fatal("Pin dropped the native bulk form")
	}
	if got := ScalarValue(bp.Initial()); got != 42 {
		t.Fatalf("pinned Initial = %v, want 42", got)
	}
	vec := bp.NewStateVec(1)
	vec.Load(0, bp.Initial())
	src := rng.NewStream(5, 0)
	bp.StepVec(vec, []int{0}, []int{1}, []*rng.Source{src})

	want := bp.Initial()
	g.Step(want, 1, rng.NewStream(5, 0))
	if got := ScalarValue(vec.Views()[0]); got != ScalarValue(want) {
		t.Fatalf("pinned StepVec = %v, want %v", got, ScalarValue(want))
	}

	if _, ok := Pin(blackBox{g}, &Scalar{V: 1}).(pinned).BulkProcess.(lanes); !ok {
		t.Fatal("Pin of a black-box model must run through the Lanes adapter")
	}
}
