package stream

import (
	"bytes"
	"context"
	"encoding/gob"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"durability/internal/core"
	"durability/internal/exec"
	"durability/internal/mc"
	"durability/internal/stochastic"
)

// memJournal captures engine events like a WAL would: every event is gob
// round-tripped at record time, so anything that would not survive the
// real on-disk encoding fails here, and replay consumes the decoded copy
// exactly as recovery does.
type memJournal struct {
	lsn    int64
	events []journaledEvent
}

type journaledEvent struct {
	lsn int64
	ev  JournalEvent
}

func (j *memJournal) Record(ev JournalEvent) (int64, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(struct{ E JournalEvent }{ev}); err != nil {
		return 0, err
	}
	var out struct{ E JournalEvent }
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&out); err != nil {
		return 0, err
	}
	j.lsn++
	j.events = append(j.events, journaledEvent{lsn: j.lsn, ev: out.E})
	return j.lsn, nil
}

// chainResolver rebuilds the test chain the way a recovery would.
func chainResolver(stream, modelID string) (stochastic.Process, map[string]stochastic.Observer, error) {
	return newChainEnv().proc, map[string]stochastic.Observer{"index": stochastic.ChainIndex}, nil
}

// answersEqual asserts two answers are bit-for-bit equal in every
// deterministic field (wall-clock times excepted, as everywhere in the
// repo's determinism tests).
func answersEqual(t *testing.T, label string, got, want Answer) {
	t.Helper()
	if got.Result.P != want.Result.P || got.Result.Variance != want.Result.Variance ||
		got.Result.Paths != want.Result.Paths || got.Result.Steps != want.Result.Steps ||
		got.Result.Hits != want.Result.Hits {
		t.Fatalf("%s: result (P=%v Var=%v paths=%d steps=%d hits=%d) != uninterrupted (P=%v Var=%v paths=%d steps=%d hits=%d)",
			label, got.Result.P, got.Result.Variance, got.Result.Paths, got.Result.Steps, got.Result.Hits,
			want.Result.P, want.Result.Variance, want.Result.Paths, want.Result.Steps, want.Result.Hits)
	}
	if got.Tick != want.Tick || got.Satisfied != want.Satisfied ||
		got.FreshRoots != want.FreshRoots || got.FreshSteps != want.FreshSteps ||
		got.SurvivedRoots != want.SurvivedRoots || got.DroppedRoots != want.DroppedRoots ||
		got.PoolRoots != want.PoolRoots || got.Replanned != want.Replanned || got.Capped != want.Capped {
		t.Fatalf("%s: answer %+v differs from uninterrupted %+v", label, got, want)
	}
}

// runRecovery drives the full crash/recover cycle on the given backend:
// an uninterrupted engine maintains the whole trajectory; a journaled
// engine is snapshotted after snapAt ticks, "crashes" after crashAt, and
// a recovered engine — Restore(snapshot) plus WAL-tail replay — finishes
// the trajectory. Every post-recovery answer must be bit-for-bit the
// uninterrupted engine's.
func runRecovery(t *testing.T, backend exec.Executor, trajectory []int, snapAt, crashAt int) {
	t.Helper()
	ctx := context.Background()
	env := newChainEnv()

	reference := maintain(t, backend, trajectory)

	// The journaled engine lives through snapAt ticks, is snapshotted,
	// then runs on to crashAt — those extra ticks form the WAL tail.
	journal := &memJournal{}
	live := NewEngine(Config{Exec: backend})
	live.SetJournal(journal)
	if err := live.Register("chain", env.proc, &stochastic.ChainState{I: 0}); err != nil {
		t.Fatal(err)
	}
	sub, err := live.Subscribe(ctx, env.spec())
	if err != nil {
		t.Fatal(err)
	}
	var snap EngineSnapshot
	for i := 0; i < crashAt; i++ {
		if i == snapAt {
			snap = live.Snapshot()
		}
		if _, err := live.Update(ctx, "chain", &stochastic.ChainState{I: trajectory[i]}); err != nil {
			t.Fatal(err)
		}
	}
	if snapAt >= crashAt {
		snap = live.Snapshot()
	}
	_ = sub // the live engine is now abandoned: the crash

	// Recovery: restore the snapshot, replay the whole journal (events the
	// snapshot already covers are skipped by LSN), then keep serving.
	recovered := NewEngine(Config{Exec: backend})
	if err := recovered.Restore(snap, chainResolver); err != nil {
		t.Fatal(err)
	}
	for _, je := range journal.events {
		if err := recovered.Apply(ctx, je.lsn, je.ev, chainResolver); err != nil {
			t.Fatalf("replaying lsn %d (%T): %v", je.lsn, je.ev, err)
		}
	}

	rsub := recovered.findSub(sub.ID())
	if rsub == nil {
		t.Fatal("recovered engine lost the subscription")
	}
	// The answer standing after recovery must match the uninterrupted
	// engine's answer at the crash tick (reference[0] is the subscribe
	// answer, reference[i+1] the answer after tick i).
	answersEqual(t, "answer at crash tick", rsub.Answer(), reference[crashAt])

	// And every subsequent tick must stay bit-for-bit identical.
	for i := crashAt; i < len(trajectory); i++ {
		refreshes, err := recovered.Update(ctx, "chain", &stochastic.ChainState{I: trajectory[i]})
		if err != nil {
			t.Fatal(err)
		}
		if len(refreshes) != 1 || refreshes[0].Err != nil {
			t.Fatalf("refreshes %+v", refreshes)
		}
		answersEqual(t, "post-recovery tick", refreshes[0].Answer, reference[i+1])
	}
}

// A recovered engine must produce bit-for-bit the answers of an engine
// that never died — the repo's determinism guarantee extended across
// restarts. The trajectory includes drift, revisits and a bucket crossing,
// and the crash point leaves a non-empty WAL tail after the snapshot.
func TestRecoveryDeterminismLocal(t *testing.T) {
	trajectory := []int{0, 1, 0, 1, 2, 3, 2, 1, 0, 3, 4, 2, 1}
	runRecovery(t, exec.Local{}, trajectory, 4, 9)
}

// Recovery straight off a checkpoint (empty WAL tail).
func TestRecoveryDeterminismAtCheckpoint(t *testing.T) {
	trajectory := []int{0, 1, 2, 1, 0, 2, 3}
	runRecovery(t, exec.Local{}, trajectory, 4, 4)
}

// The same guarantee on the cluster backend: a recovered engine refreshing
// over a worker fleet matches the uninterrupted fleet bit for bit.
func TestRecoveryDeterminismCluster(t *testing.T) {
	backend := exec.NewCluster(startChainWorkers(t, 2)...)
	defer backend.Close()
	trajectory := []int{0, 1, 0, 2, 3, 2, 1, 0, 3}
	runRecovery(t, backend, trajectory, 3, 6)
}

// Closes must journal and replay: a subscription closed before the crash
// must stay closed after recovery, while the survivor keeps its answers.
func TestRecoveryReplaysClose(t *testing.T) {
	ctx := context.Background()
	env := newChainEnv()
	journal := &memJournal{}
	live := NewEngine(Config{})
	live.SetJournal(journal)
	if err := live.Register("chain", env.proc, &stochastic.ChainState{I: 0}); err != nil {
		t.Fatal(err)
	}
	doomed, err := live.Subscribe(ctx, env.spec())
	if err != nil {
		t.Fatal(err)
	}
	spec2 := env.spec()
	spec2.Seed = 11
	survivor, err := live.Subscribe(ctx, spec2)
	if err != nil {
		t.Fatal(err)
	}
	snap := live.Snapshot()
	if _, err := live.Update(ctx, "chain", &stochastic.ChainState{I: 1}); err != nil {
		t.Fatal(err)
	}
	doomed.Close()

	recovered := NewEngine(Config{})
	if err := recovered.Restore(snap, chainResolver); err != nil {
		t.Fatal(err)
	}
	for _, je := range journal.events {
		if err := recovered.Apply(ctx, je.lsn, je.ev, chainResolver); err != nil {
			t.Fatal(err)
		}
	}
	if recovered.findSub(doomed.ID()) != nil {
		t.Fatal("closed subscription resurrected by recovery")
	}
	rsub := recovered.findSub(survivor.ID())
	if rsub == nil {
		t.Fatal("surviving subscription lost")
	}
	answersEqual(t, "survivor", rsub.Answer(), survivor.Answer())
}

// Restore must refuse a snapshot maintained under different engine
// numerics instead of silently replaying a different trajectory.
func TestRestoreRejectsConfigMismatch(t *testing.T) {
	env := newChainEnv()
	eng := NewEngine(Config{})
	if err := eng.Register("chain", env.proc, &stochastic.ChainState{I: 0}); err != nil {
		t.Fatal(err)
	}
	snap := eng.Snapshot()

	other := NewEngine(Config{DriftTol: 2 * DefaultDriftTol})
	if err := other.Restore(snap, chainResolver); err == nil {
		t.Fatal("Restore accepted a snapshot from different engine settings")
	}
}

// Restore must name the missing observer when a subscription's ObserverID
// cannot be resolved, rather than panicking later mid-refresh.
func TestRestoreRejectsUnknownObserver(t *testing.T) {
	ctx := context.Background()
	env := newChainEnv()
	eng := NewEngine(Config{})
	if err := eng.Register("chain", env.proc, &stochastic.ChainState{I: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Subscribe(ctx, env.spec()); err != nil {
		t.Fatal(err)
	}
	snap := eng.Snapshot()

	bare := func(stream, modelID string) (stochastic.Process, map[string]stochastic.Observer, error) {
		return env.proc, map[string]stochastic.Observer{}, nil
	}
	recovered := NewEngine(Config{})
	if err := recovered.Restore(snap, bare); err == nil {
		t.Fatal("Restore accepted a subscription with an unresolvable observer")
	}
}

// Restore only fills empty engines: recovering onto one already serving
// would splice two histories.
func TestRestoreRequiresEmptyEngine(t *testing.T) {
	env := newChainEnv()
	eng := NewEngine(Config{})
	if err := eng.Register("chain", env.proc, &stochastic.ChainState{I: 0}); err != nil {
		t.Fatal(err)
	}
	snap := eng.Snapshot()
	if err := eng.Restore(snap, chainResolver); err == nil {
		t.Fatal("Restore accepted a non-empty engine")
	}
}

// A data directory written while refreshes bootstrapped their variance
// holds batches of bootstrap groups and no moments. Its snapshot must
// still decode, and Restore must refuse it by naming that cause rather
// than as a settings mismatch. The fixture is a real snapshot from that
// engine: a chain subscription after two ticks, gob-encoded.
func TestRestoreRefusesBootstrapSnapshot(t *testing.T) {
	raw, err := os.ReadFile("testdata/pre-moments-snapshot.gob")
	if err != nil {
		t.Fatal(err)
	}
	var snap EngineSnapshot
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&snap); err != nil {
		t.Fatalf("pre-moments snapshot no longer decodes: %v", err)
	}
	if snap.Config.GroupRoots != 16 || snap.Config.BootstrapReps != 200 || len(snap.Streams) != 1 || len(snap.Streams[0].Subs[0].Batches) == 0 {
		t.Fatalf("fixture is not the expected pre-moments snapshot: %+v", snap.Config)
	}
	err = NewEngine(Config{}).Restore(snap, chainResolver)
	if err == nil {
		t.Fatal("Restore accepted a snapshot whose batches carry bootstrap groups")
	}
	if msg := err.Error(); !strings.Contains(msg, "bootstrap groups") || strings.Contains(msg, "original settings") {
		t.Fatalf("refusal does not name the cause: %v", err)
	}
}

// shardRecorder is an executor that keeps every shard it returns.
type shardRecorder struct {
	exec.Local
	shards []core.ShardResult
}

func (r *shardRecorder) RunRoots(ctx context.Context, task exec.Task, lo, hi int64, rootsPerGroup int) (core.ShardResult, error) {
	res, err := r.Local.RunRoots(ctx, task, lo, hi, rootsPerGroup)
	r.shards = append(r.shards, res)
	return res, err
}

// A shard's aggregate and per-root units are carved from one backing
// array. A batch that kept a slice of it would pin every unit for the
// batch's lifetime, so stored batches must share no backing with the
// shards they came from: overwriting every shard after the refresh
// leaves every batch, and the answer they evaluate to, unchanged.
func TestStoredBatchSharesNoBackingWithShard(t *testing.T) {
	ctx := context.Background()
	env := newChainEnv()
	rec := &shardRecorder{}
	eng := NewEngine(Config{Exec: rec})
	if err := eng.Register("chain", env.proc, &stochastic.ChainState{I: 0}); err != nil {
		t.Fatal(err)
	}
	sub, err := eng.Subscribe(ctx, env.spec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Update(ctx, "chain", &stochastic.ChainState{I: 1}); err != nil {
		t.Fatal(err)
	}
	sub.ls.mu.Lock()
	defer sub.ls.mu.Unlock()
	if len(rec.shards) == 0 || len(sub.batches) == 0 {
		t.Fatalf("no top-ups recorded (%d shards, %d batches)", len(rec.shards), len(sub.batches))
	}
	m := sub.plan.M()
	initLevel := sub.batches[len(sub.batches)-1].initLevel
	evaluate := func() mc.Result {
		pool := core.NewPool(m, initLevel)
		for _, b := range sub.batches {
			pool.Merge(&b.Pool)
		}
		return pool.Result(m)
	}
	before := make([]core.Pool, len(sub.batches))
	for i, b := range sub.batches {
		before[i] = core.NewPool(m, b.initLevel)
		before[i].Merge(&b.Pool) // into empty: a copy
	}
	want := evaluate()

	poison := func(c core.Counters) {
		for _, s := range [][]float64{c.Land, c.Skip, c.Mu} {
			for i := range s {
				s[i] = math.NaN()
			}
		}
	}
	for _, sh := range rec.shards {
		poison(sh.Agg)
		for _, u := range sh.Groups {
			poison(u)
		}
	}
	for i, b := range sub.batches {
		if !reflect.DeepEqual(b.Pool, before[i]) {
			t.Fatalf("batch %d changed when its shard was overwritten: it shares the shard's backing array", i)
		}
	}
	if got := evaluate(); got != want {
		t.Fatalf("answer moved after the shards were overwritten: %+v, was %+v", got, want)
	}
}
