package replicate

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"durability/internal/cluster"
	"durability/internal/core"
	"durability/internal/exec"
	"durability/internal/mc"
	"durability/internal/persist"
	"durability/internal/persist/faultfs"
	"durability/internal/stochastic"
	"durability/internal/stream"
)

// These are the failover drills the tentpole rests on: a 4-shard
// partitioned engine journaling to per-shard stores is killed at a
// scripted crash point — mid-tick fan-out, mid-checkpoint, mid-WAL-
// rotation, or mid-tick after a worker error failed one refresh — a
// follower drains what the dead primary left on disk into warm engines,
// reconciles shard tick divergence, promotes, and must then answer
// bit-for-bit like an engine that never died, for every standing query,
// on both execution backends. Primary and follower restore, replay and
// checkpoint through persist.Lineage, the protocol durserve runs.

const drillShards = 4

// chainResolver rebuilds the drill chain the way a recovery would.
func chainResolver(streamName, modelID string) (stochastic.Process, map[string]stochastic.Observer, error) {
	return stochastic.BirthDeathChain(10, 0.45, 0), map[string]stochastic.Observer{"index": stochastic.ChainIndex}, nil
}

// drillSpec is a cheap standing query: budget-capped so refreshes
// terminate fast no matter how unreachable the quality target is.
func drillSpec(seed uint64) stream.SubSpec {
	return stream.SubSpec{
		Stream:     "chain",
		Obs:        stochastic.ChainIndex,
		ObserverID: "index",
		Beta:       7.0,
		Horizon:    50,
		Seed:       seed,
		Stop:       mc.Any{mc.RETarget{Target: 0.15}, mc.Budget{Steps: 8_000}},
	}
}

// canon strips wall-clock times and racy search-cost attribution so the
// rest of the answer compares with == — the PR 5 drill contract.
func canon(a stream.Answer) stream.Answer {
	a.Result.Elapsed, a.Result.VarTime = 0, 0
	a.SearchSteps = 0
	a.PlanCached = false
	return a
}

// startChainWorkers spins n in-process rpc shard workers that rebuild
// the drill chain by name.
func startChainWorkers(t *testing.T, n int) []string {
	t.Helper()
	reg := cluster.Registry{
		"chain": func() (stochastic.Process, map[string]stochastic.Observer, error) {
			return chainResolver("chain", "chain")
		},
	}
	addrs, stop, err := cluster.ServeLocal(reg, n, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	return addrs
}

// errWorker is the worker-error drill's injected RunRoots failure.
var errWorker = errors.New("injected worker error")

// faultyBackend fails the one RunRoots call of task seed `seed` whose
// root range starts at `lo`, once, keyed on (seed, lo) rather than on
// call order, which the concurrent refresh fan-out makes
// non-deterministic. Until armed it is transparent.
type faultyBackend struct {
	exec.Executor
	seed  uint64
	lo    atomic.Int64 // -1 until armed
	fired atomic.Bool
}

func newFaultyBackend(inner exec.Executor, seed uint64) *faultyBackend {
	f := &faultyBackend{Executor: inner, seed: seed}
	f.lo.Store(-1)
	return f
}

func (f *faultyBackend) RunRoots(ctx context.Context, task exec.Task, lo, hi int64, rootsPerGroup int) (core.ShardResult, error) {
	if task.Seed == f.seed && lo == f.lo.Load() && f.fired.CompareAndSwap(false, true) {
		return core.ShardResult{}, errWorker
	}
	return f.Executor.RunRoots(ctx, task, lo, hi, rootsPerGroup)
}

// answersOf maps one tick's refreshes by subscription; a refresh error
// fails the drill unless it is the injected worker error, whose refresh
// keeps serving its capped answer.
func answersOf(t *testing.T, label string, refreshes []stream.Refresh) map[uint64]stream.Answer {
	t.Helper()
	m := make(map[uint64]stream.Answer, len(refreshes))
	for _, r := range refreshes {
		if r.Err != nil && !errors.Is(r.Err, errWorker) {
			t.Fatalf("%s: sub %d refresh: %v", label, r.SubID, r.Err)
		}
		m[r.SubID] = r.Answer
	}
	return m
}

func runFailoverDrill(t *testing.T, backend exec.Executor, point string) {
	ctx := context.Background()
	trajectory := []int{0, 1, 2, 1, 2, 3, 4, 3, 2, 1, 0, 1, 2, 3, 4, 5}
	const subsUpfront = 8
	const subTick = 3 // one subscribe lands mid-stream, before tick 3
	checkpointTick := 8
	if point == "mid-tick" || point == "worker-error" {
		checkpointTick = 5
	}
	cfg := stream.Config{Exec: backend}
	// The worker-error drill fails one top-up of the seed-101
	// subscription on the control's and the primary's backends, in the
	// first tick after the checkpoint, so the follower meets the failed
	// refresh in the WAL tail. The follower's backend stays healthy, as
	// it would after a transient fault: the promoted answers must still
	// equal the control's, failure included.
	const faultySeed = 101
	var controlExec, primaryExec *faultyBackend
	ccfg, pcfg := cfg, cfg
	if point == "worker-error" {
		controlExec, primaryExec = newFaultyBackend(backend, faultySeed), newFaultyBackend(backend, faultySeed)
		ccfg.Exec, pcfg.Exec = controlExec, primaryExec
	}

	// The scripted crash. Nth for the mid-tick kill counts every write
	// shard 2's WAL files will take before the doomed tick-12 append:
	// segment header, EvRegistered, its subscribe records, eleven tick
	// records, and the rotation header of the checkpoint at tick 5. The
	// ring is a pure function, so the count is exact.
	ring := stream.NewRing(drillShards, 0)
	n2 := 0
	for id := uint64(1); id <= subsUpfront+1; id++ {
		if ring.Shard("chain", id) == 2 {
			n2++
		}
	}
	var crashRule *faultfs.Rule
	switch point {
	case "mid-tick", "worker-error":
		crashRule = &faultfs.Rule{Op: faultfs.OpWrite, Path: "shard-0002/wal-", Nth: 15 + n2, KeepBytes: 9, Kill: true}
	case "mid-checkpoint":
		crashRule = &faultfs.Rule{Op: faultfs.OpWrite, Path: "shard-0001/snap-", Nth: 1, KeepBytes: 11, Kill: true}
	case "mid-rotation":
		crashRule = &faultfs.Rule{Op: faultfs.OpWrite, Path: "shard-0003/wal-0000000000000002", Nth: 1, KeepBytes: 8, Kill: true}
	default:
		t.Fatalf("unknown crash point %q", point)
	}
	ffs := faultfs.Wrap(nil, crashRule)

	// Control: the engine that never dies.
	control := stream.NewSharded(ccfg, drillShards, 0)
	if err := control.Register("chain", stochastic.BirthDeathChain(10, 0.45, 0), &stochastic.ChainState{I: 0}); err != nil {
		t.Fatal(err)
	}

	// Primary: same engine, journaling every shard to its own store
	// through the fault-injecting filesystem.
	pdir := t.TempDir()
	primary := stream.NewSharded(pcfg, drillShards, 0)
	lineages := make([]*persist.Lineage, drillShards)
	for i := 0; i < drillShards; i++ {
		st, err := persist.Open(filepath.Join(pdir, persist.ShardStoreName(i)), persist.Options{FS: ffs, Keep: 2})
		if err != nil {
			t.Fatal(err)
		}
		lineages[i] = &persist.Lineage{Store: st, Engine: primary.Shard(i), Resolve: chainResolver}
		if _, err := lineages[i].Recover(); err != nil {
			t.Fatal(err)
		}
		primary.Shard(i).SetJournal(persist.EngineJournal{Store: st})
	}
	if err := primary.Register("chain", stochastic.BirthDeathChain(10, 0.45, 0), &stochastic.ChainState{I: 0}); err != nil {
		t.Fatal(err)
	}

	subscribed := map[uint64]*stream.Subscription{}
	subscribe := func(seed uint64) {
		t.Helper()
		cs, err := control.Subscribe(ctx, drillSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		subscribed[seed] = cs
		ps, err := primary.Subscribe(ctx, drillSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		if cs.ID() != ps.ID() {
			t.Fatalf("subscription ids diverged: control %d, primary %d", cs.ID(), ps.ID())
		}
	}
	for i := 0; i < subsUpfront; i++ {
		subscribe(uint64(100 + i))
	}

	// Drive the trajectory until the scripted crash fires.
	want := make([]map[uint64]stream.Answer, len(trajectory)+1)
	crashTick := 0
drive:
	for k := 1; k <= len(trajectory); k++ {
		if k == subTick {
			subscribe(150)
		}
		if controlExec != nil && k == checkpointTick+1 {
			// The subscription's next root range: one RunRoots call per
			// TopUpRoots roots so far, none of them failed.
			lo := subscribed[faultySeed].Stats().FreshRoots
			controlExec.lo.Store(lo)
			primaryExec.lo.Store(lo)
		}
		st := &stochastic.ChainState{I: trajectory[k-1]}
		cref, err := control.Update(ctx, "chain", st)
		if err != nil {
			t.Fatal(err)
		}
		want[k] = answersOf(t, fmt.Sprintf("control tick %d", k), cref)
		if _, err := primary.Update(ctx, "chain", st); err != nil {
			crashTick = k
			break
		}
		if k == checkpointTick {
			for _, l := range lineages {
				if err := l.Checkpoint(); err != nil {
					crashTick = k
					break drive
				}
			}
		}
	}
	if crashTick == 0 {
		t.Fatal("trajectory completed without the scripted crash")
	}
	if !ffs.Fired(crashRule) {
		t.Fatal("crash rule never fired; the drill tested nothing")
	}
	if !ffs.Dead() {
		t.Fatal("filesystem survived its own kill")
	}
	if controlExec != nil && !(controlExec.fired.Load() && primaryExec.fired.Load()) {
		t.Fatal("the worker error never fired; the drill tested nothing")
	}

	// Failover: a follower drains the dead primary's directory into
	// fresh warm engines. One read of a shard WAL is artificially
	// delayed — shipping latency must change nothing but wall time.
	names := make([]string, drillShards)
	for i := range names {
		names[i] = persist.ShardStoreName(i)
	}
	shipFS := faultfs.Wrap(nil, &faultfs.Rule{Op: faultfs.OpRead, Path: "shard-0001/wal-", Nth: 2, Delay: 20 * time.Millisecond})
	fdir := t.TempDir()
	foll := stream.NewSharded(cfg, drillShards, 0)
	hooks := func(store string) (StoreHooks, bool) {
		i, ok := persist.ParseShardStoreName(store)
		if !ok || i >= drillShards {
			return StoreHooks{}, false
		}
		l := &persist.Lineage{Engine: foll.Shard(i), Resolve: chainResolver}
		return StoreHooks{Restore: l.RestoreFile, Apply: l.Apply}, true
	}
	f := NewFollower(Config{
		Source: DirSource{Root: pdir, Stores: names, FS: shipFS},
		Dir:    fdir,
		Hooks:  hooks,
	})
	drainCtx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	if err := f.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	f.Close()

	// Promotion: reconcile shard tick divergence (the mid-tick crash
	// footprint), resume the shared ID sequence, and take over.
	foll.SyncNextSub()
	ticks, ok := foll.ShardTicks("chain")
	if !ok {
		t.Fatal("promoted follower lost the stream")
	}
	maxTick := int64(0)
	for _, tk := range ticks {
		if tk > maxTick {
			maxTick = tk
		}
	}
	if maxTick < int64(crashTick-1) || maxTick > int64(crashTick) {
		t.Fatalf("follower shard ticks %v around crash tick %d", ticks, crashTick)
	}
	stateAt := func(k int64) (stochastic.State, error) {
		return &stochastic.ChainState{I: trajectory[k-1]}, nil
	}
	if err := foll.CatchUp(ctx, "chain", maxTick, stateAt); err != nil {
		t.Fatal(err)
	}

	// The standing answers after promotion must be bit-for-bit the
	// control's at the same tick — the == acceptance gate.
	subs := foll.Subscriptions()
	if len(subs) != subsUpfront+1 {
		t.Fatalf("promoted follower has %d subscriptions, want %d", len(subs), subsUpfront+1)
	}
	for _, s := range subs {
		w, ok := want[maxTick][s.ID()]
		if !ok {
			t.Fatalf("control never answered sub %d at tick %d", s.ID(), maxTick)
		}
		if canon(s.Answer()) != canon(w) {
			t.Fatalf("%s: sub %d after promotion: %+v != control %+v",
				point, s.ID(), canon(s.Answer()), canon(w))
		}
	}

	// The mirror is a full data directory: attach journals over it and
	// seal the promotion with a checkpoint, like a real takeover does.
	for i := 0; i < drillShards; i++ {
		name := persist.ShardStoreName(i)
		st, err := persist.Open(filepath.Join(fdir, name), persist.Options{Keep: 2})
		if err != nil {
			t.Fatal(err)
		}
		// The engines are warm: Recover here only repairs torn tails and
		// positions the store, as durserve's promotion does.
		if _, _, err := st.Recover(&persist.ServingSnapshot{}, func(bool) error { return nil },
			func(int64, any) error { return nil }); err != nil {
			t.Fatalf("promoting mirror of %s: %v", name, err)
		}
		foll.Shard(i).SetJournal(persist.EngineJournal{Store: st})
		l := &persist.Lineage{Store: st, Engine: foll.Shard(i), Resolve: chainResolver}
		if err := l.Checkpoint(); err != nil {
			t.Fatalf("sealing promotion of %s: %v", name, err)
		}
		defer st.Close()
	}

	// Serve on: every subsequent tick, and a brand-new subscription,
	// must stay bit-for-bit with the control.
	resubscribed := false
	for k := maxTick + 1; k <= int64(len(trajectory)); k++ {
		if k > int64(crashTick) && !resubscribed {
			cs, err := control.Subscribe(ctx, drillSpec(200))
			if err != nil {
				t.Fatal(err)
			}
			ps, err := foll.Subscribe(ctx, drillSpec(200))
			if err != nil {
				t.Fatal(err)
			}
			if cs.ID() != ps.ID() {
				t.Fatalf("post-promotion subscription ids diverged: control %d, promoted %d", cs.ID(), ps.ID())
			}
			resubscribed = true
		}
		st := &stochastic.ChainState{I: trajectory[k-1]}
		got, err := foll.Update(ctx, "chain", st)
		if err != nil {
			t.Fatal(err)
		}
		if k > int64(crashTick) {
			cref, err := control.Update(ctx, "chain", st)
			if err != nil {
				t.Fatal(err)
			}
			want[k] = answersOf(t, fmt.Sprintf("control tick %d", k), cref)
		}
		gotm := answersOf(t, fmt.Sprintf("promoted tick %d", k), got)
		if len(gotm) != len(want[k]) {
			t.Fatalf("tick %d: promoted refreshed %d subs, control %d", k, len(gotm), len(want[k]))
		}
		//durlint:ignore maporder comparison only
		for id, w := range want[k] {
			g, ok := gotm[id]
			if !ok {
				t.Fatalf("tick %d: promoted skipped sub %d", k, id)
			}
			if canon(g) != canon(w) {
				t.Fatalf("%s tick %d sub %d: promoted %+v != control %+v", point, k, id, canon(g), canon(w))
			}
		}
	}
	if !resubscribed {
		t.Fatal("drill never exercised a post-promotion subscribe")
	}
}

var drillCrashPoints = []string{"mid-tick", "mid-checkpoint", "mid-rotation", "worker-error"}

// TestFailoverDrillsLocal runs the scripted crash points on the local
// execution backend.
func TestFailoverDrillsLocal(t *testing.T) {
	for _, point := range drillCrashPoints {
		t.Run(point, func(t *testing.T) { runFailoverDrill(t, exec.Local{}, point) })
	}
}

// TestFailoverDrillsCluster repeats them over an rpc worker fleet: a
// promoted follower refreshing across workers must still match bit for
// bit.
func TestFailoverDrillsCluster(t *testing.T) {
	backend := exec.NewCluster(startChainWorkers(t, 2)...)
	defer backend.Close()
	for _, point := range drillCrashPoints {
		t.Run(point, func(t *testing.T) { runFailoverDrill(t, backend, point) })
	}
}
