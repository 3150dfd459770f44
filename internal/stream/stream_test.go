package stream

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"durability/internal/mc"
	"durability/internal/serve"
	"durability/internal/stochastic"
)

// chainEnv is the exact-answer test bed: a birth-death chain whose hitting
// probability from any start state is computable by dynamic programming.
type chainEnv struct {
	proc    *stochastic.MarkovChain
	beta    float64
	horizon int
	target  map[int]bool
}

func newChainEnv() chainEnv {
	const n, p = 10, 0.45
	const beta, horizon = 7.0, 50
	target := map[int]bool{}
	for i := int(beta); i < n; i++ {
		target[i] = true
	}
	return chainEnv{proc: stochastic.BirthDeathChain(n, p, 0), beta: beta, horizon: horizon, target: target}
}

// exact computes the ground-truth standing answer from chain state i.
func (e chainEnv) exact(i int) float64 {
	return stochastic.BirthDeathChain(10, 0.45, i).HitProbability(e.target, e.horizon)
}

func (e chainEnv) spec() SubSpec {
	return SubSpec{
		Stream:     "chain",
		Obs:        stochastic.ChainIndex,
		ObserverID: "index",
		Beta:       e.beta,
		Horizon:    e.horizon,
		Seed:       7,
		Stop:       mc.Any{mc.RETarget{Target: 0.10}, mc.Budget{Steps: 50_000_000}},
	}
}

func TestStandingAnswerTracksExact(t *testing.T) {
	env := newChainEnv()
	eng := NewEngine(Config{})
	if err := eng.Register("chain", env.proc, &stochastic.ChainState{I: 0}); err != nil {
		t.Fatal(err)
	}
	sub, err := eng.Subscribe(context.Background(), env.spec())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	// Drive the live state along a fixed trajectory below the threshold.
	trajectory := []int{0, 1, 2, 1, 2, 3, 2, 1, 0, 1, 2, 3, 4, 3, 2}
	check := func(i int, ans Answer) {
		t.Helper()
		exact := env.exact(i)
		if math.Abs(ans.P()-exact) > 0.5*exact {
			t.Errorf("state %d: maintained answer %v, exact %v", i, ans.P(), exact)
		}
	}
	check(0, sub.Answer())
	for _, i := range trajectory {
		refreshes, err := eng.Update(context.Background(), "chain", &stochastic.ChainState{I: i})
		if err != nil {
			t.Fatal(err)
		}
		if len(refreshes) != 1 || refreshes[0].Err != nil {
			t.Fatalf("refreshes %+v", refreshes)
		}
		check(i, refreshes[0].Answer)
	}

	st := eng.Stats()
	if st.Ticks != int64(len(trajectory)) || st.Refreshes != int64(len(trajectory))+1 {
		t.Fatalf("engine stats %+v", st)
	}
	if st.FreshSteps == 0 || st.FreshRoots == 0 {
		t.Fatalf("no fresh simulation recorded: %+v", st)
	}
}

// TestRevisitedStateReusesPool verifies the incremental claim on a
// revisit: returning to an already-sampled state finds its root pool
// still alive and pays (nearly) nothing.
func TestRevisitedStateReusesPool(t *testing.T) {
	env := newChainEnv()
	eng := NewEngine(Config{})
	if err := eng.Register("chain", env.proc, &stochastic.ChainState{I: 2}); err != nil {
		t.Fatal(err)
	}
	sub, err := eng.Subscribe(context.Background(), env.spec())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	cold := sub.Answer()
	if cold.FreshSteps == 0 {
		t.Fatal("initial subscribe did no simulation")
	}

	// Leave state 2 and come straight back: the batches simulated at
	// state 2 survive (same normalized value), so the revisit needs at
	// most a marginal top-up.
	if _, err := eng.Update(context.Background(), "chain", &stochastic.ChainState{I: 1}); err != nil {
		t.Fatal(err)
	}
	refreshes, err := eng.Update(context.Background(), "chain", &stochastic.ChainState{I: 2})
	if err != nil {
		t.Fatal(err)
	}
	back := refreshes[0].Answer
	if back.SurvivedRoots == 0 {
		t.Fatalf("no roots survived the revisit: %+v", back)
	}
	if back.FreshSteps > cold.FreshSteps/2 {
		t.Fatalf("revisit cost %d steps, initial fill cost %d — not incremental", back.FreshSteps, cold.FreshSteps)
	}
}

func TestBecalmedStreamMaintainsCheaply(t *testing.T) {
	proc := &stochastic.RandomWalk{Sigma: 1}
	eng := NewEngine(Config{})
	if err := eng.Register("walk", proc, &stochastic.Scalar{V: 0}); err != nil {
		t.Fatal(err)
	}
	sub, err := eng.Subscribe(context.Background(), SubSpec{
		Stream:     "walk",
		Obs:        stochastic.ScalarValue,
		ObserverID: "value",
		Beta:       20,
		Horizon:    100,
		Seed:       3,
		Stop:       mc.Any{mc.RETarget{Target: 0.15}, mc.Budget{Steps: 50_000_000}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	cold := sub.Answer()

	// The live value creeps by 0.05 per tick — 0.25% of the threshold —
	// so the pool survives essentially intact and per-tick maintenance is
	// a small fraction of the cold fill.
	var maintSteps int64
	const ticks = 10
	for i := 1; i <= ticks; i++ {
		refreshes, err := eng.Update(context.Background(), "walk", &stochastic.Scalar{V: 0.05 * float64(i)})
		if err != nil {
			t.Fatal(err)
		}
		ans := refreshes[0].Answer
		if refreshes[0].Err != nil {
			t.Fatal(refreshes[0].Err)
		}
		if ans.Replanned {
			t.Fatalf("tick %d replanned without leaving the drift bucket", i)
		}
		if ans.SurvivedRoots == 0 {
			t.Fatalf("tick %d dropped the whole pool: %+v", i, ans)
		}
		maintSteps += ans.FreshSteps + ans.SearchSteps
	}
	if maintSteps*2 > cold.FreshSteps+cold.SearchSteps {
		t.Fatalf("10 ticks of maintenance cost %d steps vs cold fill %d — not incremental",
			maintSteps, cold.FreshSteps+cold.SearchSteps)
	}
}

func TestDriftBucketReplanAndCacheReuse(t *testing.T) {
	proc := &stochastic.RandomWalk{Sigma: 1}
	eng := NewEngine(Config{})
	if err := eng.Register("walk", proc, &stochastic.Scalar{V: 1}); err != nil {
		t.Fatal(err)
	}
	sub, err := eng.Subscribe(context.Background(), SubSpec{
		Stream: "walk", Obs: stochastic.ScalarValue, ObserverID: "value",
		Beta: 20, Horizon: 100, Seed: 3,
		Stop: mc.Any{mc.RETarget{Target: 0.2}, mc.Budget{Steps: 50_000_000}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	// f0 jumps 0.05 -> 0.60: a different drift bucket, so the plan is
	// re-resolved (fresh search) and the pool is dropped.
	refreshes, err := eng.Update(context.Background(), "walk", &stochastic.Scalar{V: 12})
	if err != nil {
		t.Fatal(err)
	}
	up := refreshes[0].Answer
	if !up.Replanned || up.PlanCached {
		t.Fatalf("bucket crossing should pay a fresh search: %+v", up)
	}
	if up.SurvivedRoots != 0 {
		t.Fatalf("far-away roots contributed to the answer: %+v", up)
	}
	if up.PoolRoots <= up.FreshRoots {
		t.Fatalf("dormant roots were deleted instead of retained: %+v", up)
	}

	// Jump back into the original bucket: replanned again, but the plan
	// comes from the cache and the original pool revives.
	refreshes, err = eng.Update(context.Background(), "walk", &stochastic.Scalar{V: 1})
	if err != nil {
		t.Fatal(err)
	}
	down := refreshes[0].Answer
	if !down.Replanned || !down.PlanCached {
		t.Fatalf("returning to a visited bucket should reuse its plan: %+v", down)
	}
	if down.SearchSteps != 0 {
		t.Fatalf("cache hit charged %d search steps", down.SearchSteps)
	}
	if down.SurvivedRoots == 0 {
		t.Fatalf("revisit did not revive the original pool: %+v", down)
	}
	if eng.Stats().Replans != 2 {
		t.Fatalf("engine stats %+v, want 2 replans", eng.Stats())
	}
}

func TestSatisfiedState(t *testing.T) {
	env := newChainEnv()
	eng := NewEngine(Config{})
	if err := eng.Register("chain", env.proc, &stochastic.ChainState{I: 8}); err != nil {
		t.Fatal(err)
	}
	sub, err := eng.Subscribe(context.Background(), env.spec())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	ans := sub.Answer()
	if !ans.Satisfied || ans.P() != 1 || ans.FreshSteps != 0 || ans.SearchSteps != 0 {
		t.Fatalf("above-threshold state should answer 1 for free: %+v", ans)
	}
	// Receding below the threshold resumes sampling.
	refreshes, err := eng.Update(context.Background(), "chain", &stochastic.ChainState{I: 3})
	if err != nil {
		t.Fatal(err)
	}
	ans = refreshes[0].Answer
	if ans.Satisfied || ans.FreshSteps == 0 {
		t.Fatalf("receding state should resume sampling: %+v", ans)
	}
}

func TestRegisterReplaceInvalidatesPlans(t *testing.T) {
	runner := &serve.Runner{Cache: serve.NewPlanCache(0)}
	eng := NewEngine(Config{Runner: runner})
	if err := eng.Register("walk", &stochastic.RandomWalk{Sigma: 1}, &stochastic.Scalar{V: 0}); err != nil {
		t.Fatal(err)
	}
	sub, err := eng.Subscribe(context.Background(), SubSpec{
		Stream: "walk", Obs: stochastic.ScalarValue, ObserverID: "value",
		Beta: 20, Horizon: 100, Seed: 3,
		Stop: mc.Any{mc.RETarget{Target: 0.2}, mc.Budget{Steps: 50_000_000}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	// Recalibrated dynamics: same stream name, different process.
	if err := eng.Register("walk", &stochastic.RandomWalk{Sigma: 1.5}, &stochastic.Scalar{V: 0}); err != nil {
		t.Fatal(err)
	}
	if got := runner.Cache.Stats().Invalidated; got == 0 {
		t.Fatal("re-registration did not invalidate cached plans")
	}
	refreshes, err := eng.Update(context.Background(), "walk", &stochastic.Scalar{V: 0})
	if err != nil {
		t.Fatal(err)
	}
	ans := refreshes[0].Answer
	if ans.SearchSteps == 0 || ans.PlanCached {
		t.Fatalf("first refresh after recalibration should re-search: %+v", ans)
	}
	if ans.SurvivedRoots != 0 {
		t.Fatalf("old-dynamics roots survived recalibration: %+v", ans)
	}
}

func TestWaitLongPoll(t *testing.T) {
	env := newChainEnv()
	eng := NewEngine(Config{})
	if err := eng.Register("chain", env.proc, &stochastic.ChainState{I: 0}); err != nil {
		t.Fatal(err)
	}
	sub, err := eng.Subscribe(context.Background(), env.spec())
	if err != nil {
		t.Fatal(err)
	}
	since := sub.Answer().Tick

	got := make(chan Answer, 1)
	go func() {
		ans, err := sub.Wait(context.Background(), since)
		if err != nil {
			t.Error(err)
		}
		got <- ans
	}()
	// Give the waiter a moment to block, then publish.
	time.Sleep(10 * time.Millisecond)
	if _, err := eng.Update(context.Background(), "chain", &stochastic.ChainState{I: 1}); err != nil {
		t.Fatal(err)
	}
	select {
	case ans := <-got:
		if ans.Tick != since+1 {
			t.Fatalf("woke with tick %d, want %d", ans.Tick, since+1)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Wait did not wake on update")
	}

	// A context deadline unblocks a waiter with no update.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := sub.Wait(ctx, since+1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}

	// Close wakes waiters with ErrSubscriptionClosed.
	errs := make(chan error, 1)
	go func() {
		_, err := sub.Wait(context.Background(), since+1)
		errs <- err
	}()
	time.Sleep(10 * time.Millisecond)
	sub.Close()
	select {
	case err := <-errs:
		if !errors.Is(err, ErrSubscriptionClosed) {
			t.Fatalf("err = %v, want ErrSubscriptionClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not wake the waiter")
	}
	if eng.Stats().Subscriptions != 0 {
		t.Fatal("closed subscription still registered")
	}
}

func TestSubscriptionPublish(t *testing.T) {
	env := newChainEnv()
	eng := NewEngine(Config{})
	if err := eng.Register("chain", env.proc, &stochastic.ChainState{I: 0}); err != nil {
		t.Fatal(err)
	}
	sub, err := eng.Subscribe(context.Background(), env.spec())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	ans, err := sub.Publish(context.Background(), &stochastic.ChainState{I: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Tick != 1 {
		t.Fatalf("publish answered tick %d, want 1", ans.Tick)
	}
}

func TestDeterministicMaintenance(t *testing.T) {
	run := func() []float64 {
		env := newChainEnv()
		eng := NewEngine(Config{})
		if err := eng.Register("chain", env.proc, &stochastic.ChainState{I: 0}); err != nil {
			t.Fatal(err)
		}
		sub, err := eng.Subscribe(context.Background(), env.spec())
		if err != nil {
			t.Fatal(err)
		}
		defer sub.Close()
		out := []float64{sub.Answer().P()}
		for _, i := range []int{1, 2, 1, 2, 3, 2} {
			refreshes, err := eng.Update(context.Background(), "chain", &stochastic.ChainState{I: i})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, refreshes[0].Answer.P())
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("tick %d diverged across identical runs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestValidationErrors(t *testing.T) {
	env := newChainEnv()
	eng := NewEngine(Config{})
	ctx := context.Background()
	if _, err := eng.Subscribe(ctx, env.spec()); err == nil {
		t.Error("subscribe to unknown stream accepted")
	}
	if err := eng.Register("", env.proc, &stochastic.ChainState{}); err == nil {
		t.Error("empty stream name accepted")
	}
	if err := eng.Register("chain", nil, &stochastic.ChainState{}); err == nil {
		t.Error("nil process accepted")
	}
	if err := eng.Register("chain", env.proc, nil); err == nil {
		t.Error("nil initial state accepted")
	}
	if _, err := eng.Update(ctx, "nope", &stochastic.ChainState{}); err == nil {
		t.Error("update of unknown stream accepted")
	}
	if err := eng.Register("chain", env.proc, &stochastic.ChainState{I: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Update(ctx, "chain", nil); err == nil {
		t.Error("nil state accepted")
	}
	for _, bad := range []SubSpec{
		{Stream: "chain", Beta: 7, Horizon: 50},                              // no observer
		{Stream: "chain", Obs: stochastic.ChainIndex, Beta: -1, Horizon: 50}, // bad threshold
		{Stream: "chain", Obs: stochastic.ChainIndex, Beta: 7, Horizon: 0},   // bad horizon
		{Obs: stochastic.ChainIndex, Beta: 7, Horizon: 50},                   // no stream
	} {
		if _, err := eng.Subscribe(ctx, bad); err == nil {
			t.Errorf("bad spec %+v accepted", bad)
		}
	}
}

// TestManySubscriptionsOneUpdate exercises the per-update scheduler: many
// subscriptions on one stream refresh in parallel and all land answers.
func TestManySubscriptionsOneUpdate(t *testing.T) {
	env := newChainEnv()
	eng := NewEngine(Config{})
	if err := eng.Register("chain", env.proc, &stochastic.ChainState{I: 0}); err != nil {
		t.Fatal(err)
	}
	var subs []*Subscription
	for i := 0; i < 8; i++ {
		spec := env.spec()
		spec.Seed = uint64(i + 1)
		sub, err := eng.Subscribe(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		defer sub.Close()
		subs = append(subs, sub)
	}
	refreshes, err := eng.Update(context.Background(), "chain", &stochastic.ChainState{I: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(refreshes) != len(subs) {
		t.Fatalf("%d refreshes for %d subscriptions", len(refreshes), len(subs))
	}
	for i, r := range refreshes {
		if r.Err != nil {
			t.Fatalf("refresh %d: %v", i, r.Err)
		}
		if r.Answer.Tick != 1 || r.Answer.P() <= 0 {
			t.Fatalf("refresh %d answer %+v", i, r.Answer)
		}
		if i > 0 && r.SubID <= refreshes[i-1].SubID {
			t.Fatal("refreshes not ordered by subscription ID")
		}
	}
}
