package stream

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"durability/internal/core"
	"durability/internal/exec"
	"durability/internal/mc"
	"durability/internal/serve"
	"durability/internal/stochastic"
	"durability/internal/telemetry"
)

var errInjected = errors.New("injected worker failure")

// faultyExec is exec.Local with one RunRoots failure, keyed on the task's
// seed and the root range's start rather than on call order, which the
// concurrent refresh fan-out makes non-deterministic.
type faultyExec struct {
	exec.Local
	seed  uint64
	lo    int64
	fired atomic.Bool
}

func (f *faultyExec) RunRoots(ctx context.Context, task exec.Task, lo, hi int64, rootsPerGroup int) (core.ShardResult, error) {
	if task.Seed == f.seed && lo == f.lo && f.fired.CompareAndSwap(false, true) {
		return core.ShardResult{}, errInjected
	}
	return f.Local.RunRoots(ctx, task, lo, hi, rootsPerGroup)
}

// countingExec counts RunRoots calls.
type countingExec struct {
	exec.Local
	calls atomic.Int64
}

func (c *countingExec) RunRoots(ctx context.Context, task exec.Task, lo, hi int64, rootsPerGroup int) (core.ShardResult, error) {
	c.calls.Add(1)
	return c.Local.RunRoots(ctx, task, lo, hi, rootsPerGroup)
}

// groupingExec is exec.Local until broken, then folds each range into
// one unit whatever grouping the caller asks for.
type groupingExec struct {
	exec.Local
	broken atomic.Bool
}

func (g *groupingExec) RunRoots(ctx context.Context, task exec.Task, lo, hi int64, rootsPerGroup int) (core.ShardResult, error) {
	if g.broken.Load() {
		rootsPerGroup = int(hi - lo)
	}
	return g.Local.RunRoots(ctx, task, lo, hi, rootsPerGroup)
}

// A top-up whose backend returns coarser groups than one unit per root
// ends Capped with the loop's error and keeps none of them.
func TestRefreshRejectsGroupedUnits(t *testing.T) {
	env := newChainEnv()
	ex := &groupingExec{}
	eng := NewEngine(Config{Exec: ex})
	if err := eng.Register("chain", env.proc, &stochastic.ChainState{I: 0}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := eng.Subscribe(ctx, env.spec()); err != nil {
		t.Fatal(err)
	}
	ex.broken.Store(true)
	// State 3 is far outside the drift tolerance: nothing survives, so
	// the refresh must top up.
	refreshes, err := eng.Update(ctx, "chain", &stochastic.ChainState{I: 3})
	if err != nil {
		t.Fatal(err)
	}
	r := refreshes[0]
	if r.Err == nil || !strings.Contains(r.Err.Error(), "one per root") || !r.Answer.Capped {
		t.Fatalf("grouped units: err %v, capped %v; want a capped refresh with the loop's error", r.Err, r.Answer.Capped)
	}
	if r.Answer.FreshRoots != 0 || r.Answer.Result.Paths != 0 {
		t.Fatalf("a rejected round reached the pool: %+v", r.Answer)
	}
}

// Replay installs journaled outcomes: it must reach bit-for-bit the
// primary's answers, subscription stats and engine counters while running
// no plan search, no plan-cache lookup and no simulation — including for
// refreshes that failed live (a cancelled plan search, a cancelled
// top-up, a worker error, a step cap), which a healthy replay executor
// would otherwise have completed.
func TestReplayInstallsOutcomesWithoutSimulating(t *testing.T) {
	env := newChainEnv()
	cfg := Config{MaxRefreshSteps: 20_000}
	faulty := &faultyExec{seed: 11, lo: 6 * DefaultTopUpRoots}
	ptrace := telemetry.NewTracer(nil)
	pcfg := cfg
	pcfg.Exec = faulty
	pcfg.Runner = &serve.Runner{Cache: serve.NewPlanCache(0), Trace: ptrace}
	primary := NewEngine(pcfg)
	journal := &memJournal{}
	primary.SetJournal(journal)
	if err := primary.Register("chain", env.proc, &stochastic.ChainState{I: 0}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, seed := range []uint64{7, 11, 13} {
		spec := env.spec()
		spec.Seed = seed
		if seed == 13 {
			// Out of reach within MaxRefreshSteps: this one caps.
			spec.Stop = mc.Any{mc.RETarget{Target: 0.02}}
		}
		if _, err := primary.Subscribe(ctx, spec); err != nil {
			t.Fatal(err)
		}
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	// State 4 first enters drift bucket 2 under a cancelled context, so
	// its plan search fails live; state 5 then tops up under one.
	trajectory := []int{0, 1, 0, 1, 2, 3, 2, 1, 4, 5, 0, 3, 4, 2, 1}
	failedTicks := map[int]bool{9: true, 10: true}
	want := map[int64]map[uint64]Answer{}
	var sawPlanErr, sawInjected, sawCapped bool
	for k, i := range trajectory {
		tctx := ctx
		if failedTicks[k+1] {
			tctx = cancelled
		}
		refreshes, err := primary.Update(tctx, "chain", &stochastic.ChainState{I: i})
		if err != nil {
			t.Fatal(err)
		}
		want[int64(k+1)] = map[uint64]Answer{}
		for _, r := range refreshes {
			want[int64(k+1)][r.SubID] = r.Answer
			sawPlanErr = sawPlanErr || (r.Err != nil && strings.Contains(r.Err.Error(), "resolving plan"))
			sawInjected = sawInjected || errors.Is(r.Err, errInjected)
			sawCapped = sawCapped || (r.Err == nil && r.Answer.Capped)
			if res := r.Answer.Result; res.Elapsed != 0 || res.VarTime != 0 {
				t.Fatalf("tick %d sub %d: live answer carries wall time %+v", k+1, r.SubID, res)
			}
		}
	}
	if !sawPlanErr || !sawInjected || !sawCapped {
		t.Fatalf("trajectory did not exercise failed refreshes (plan error %v, injected %v, capped %v)", sawPlanErr, sawInjected, sawCapped)
	}
	if ptrace.Stage(telemetry.StagePlanSearch).Spans() == 0 {
		t.Fatal("the primary never searched a plan; the test checks nothing")
	}

	rtrace := telemetry.NewTracer(nil)
	rexec := &countingExec{}
	rcfg := cfg
	rcfg.Exec = rexec
	rcfg.Runner = &serve.Runner{Cache: serve.NewPlanCache(0), Trace: rtrace}
	replica := NewEngine(rcfg)
	for _, je := range journal.events {
		if err := replica.Apply(ctx, je.lsn, je.ev, chainResolver); err != nil {
			t.Fatalf("replaying lsn %d (%T): %v", je.lsn, je.ev, err)
		}
		if _, ok := je.ev.(EvTicked); !ok {
			continue
		}
		tick, _ := replica.Tick("chain")
		for _, sub := range replica.Subscriptions() {
			if got, w := sub.Answer(), want[tick][sub.ID()]; got != w {
				t.Fatalf("tick %d sub %d: replayed %+v != primary %+v", tick, sub.ID(), got, w)
			}
		}
	}
	if n := rexec.calls.Load(); n != 0 {
		t.Fatalf("replay made %d RunRoots calls, want 0", n)
	}
	for _, stage := range []string{telemetry.StagePlanSearch, telemetry.StagePlanCache} {
		if n := rtrace.Stage(stage).Spans(); n != 0 {
			t.Fatalf("replay recorded %d %s spans, want 0", n, stage)
		}
	}
	if got, w := replica.Stats(), primary.Stats(); got != w {
		t.Fatalf("replayed engine counters %+v != primary %+v", got, w)
	}
	for _, sub := range primary.Subscriptions() {
		rsub, ok := replica.Subscription(sub.ID())
		if !ok {
			t.Fatalf("replay lost subscription %d", sub.ID())
		}
		if got, w := rsub.Stats(), sub.Stats(); got != w {
			t.Fatalf("sub %d: replayed stats %+v != primary %+v", sub.ID(), got, w)
		}
		// Replay warmed the cache with the recorded plans, so the next
		// resolution is a hit where the primary's is.
		if info, ok := rsub.PlanInfo(); !ok || !info.HaveKey {
			t.Fatalf("sub %d: no plan after replay", sub.ID())
		} else if _, ok := replica.runner.Cache.Peek(info.Key); !ok {
			t.Fatalf("sub %d: replay did not warm the plan cache with key %+v", sub.ID(), info.Key)
		}
	}

	// Promoted, the replica serves on bit-for-bit with the primary.
	for _, i := range []int{3, 4, 0} {
		pref, err := primary.Update(ctx, "chain", &stochastic.ChainState{I: i})
		if err != nil {
			t.Fatal(err)
		}
		rref, err := replica.Update(ctx, "chain", &stochastic.ChainState{I: i})
		if err != nil {
			t.Fatal(err)
		}
		for j := range pref {
			if pref[j].SubID != rref[j].SubID || pref[j].Answer != rref[j].Answer {
				t.Fatalf("post-promotion state %d: replica %+v != primary %+v", i, rref[j], pref[j])
			}
		}
	}
}

// failingJournal accepts records until its budget runs out, then fails
// every append, keeping the record it refused.
type failingJournal struct {
	ok      int
	lsn     int64
	refused JournalEvent
}

func (j *failingJournal) Record(ev JournalEvent) (int64, error) {
	if j.ok == 0 {
		j.refused = ev
		return 0, errors.New("disk full")
	}
	j.ok--
	j.lsn++
	return j.lsn, nil
}

// Write-before-publish: a tick whose record cannot be journaled must not
// reach any reader. Update returns the error, Answer stays at the last
// journaled tick, and a Wait for anything newer keeps waiting.
func TestUpdatePublishesOnlyJournaledTicks(t *testing.T) {
	env := newChainEnv()
	ctx := context.Background()
	journal := &failingJournal{ok: 3} // registration and two subscribes
	eng := NewEngine(Config{})
	eng.SetJournal(journal)
	if err := eng.Register("chain", env.proc, &stochastic.ChainState{I: 0}); err != nil {
		t.Fatal(err)
	}
	var subs []*Subscription
	for _, seed := range []uint64{7, 11} {
		spec := env.spec()
		spec.Seed = seed
		sub, err := eng.Subscribe(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
	}
	before := make([]Answer, len(subs))
	for i, sub := range subs {
		before[i] = sub.Answer()
	}

	if _, err := eng.Update(ctx, "chain", &stochastic.ChainState{I: 2}); err == nil {
		t.Fatal("Update succeeded with a failing journal")
	}
	ev, ok := journal.refused.(EvTicked)
	if !ok || len(ev.Outcomes) == 0 {
		t.Fatalf("refused record %#v is not a tick carrying its refresh outcomes", journal.refused)
	}
	for i, sub := range subs {
		if got := sub.Answer(); got != before[i] {
			t.Fatalf("sub %d published %+v although its tick was never journaled (was %+v)", sub.ID(), got, before[i])
		}
		wctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
		ans, err := sub.Wait(wctx, before[i].Tick)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("sub %d: Wait past tick %d returned %+v, %v; want it still waiting", sub.ID(), before[i].Tick, ans, err)
		}
	}
}
