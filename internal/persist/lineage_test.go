package persist_test

import (
	"bytes"
	"context"
	"encoding/gob"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"durability/internal/mc"
	"durability/internal/persist"
	"durability/internal/replicate"
	"durability/internal/rng"
	"durability/internal/serve"
	"durability/internal/stochastic"
	"durability/internal/stream"
)

// lineageModel is the one model of these tests: a gbm feed whose
// observer is its price.
func lineageModel(string, string) (stochastic.Process, map[string]stochastic.Observer, error) {
	return &stochastic.GBM{S0: 100, Mu: 0.0002, Sigma: 0.02}, map[string]stochastic.Observer{"price": stochastic.ScalarValue}, nil
}

// newLineage is an empty engine with its own plan cache, as a lineage
// over st (nil for a follower's).
func newLineage(st *persist.Store) *persist.Lineage {
	runner := &serve.Runner{Cache: serve.NewPlanCache(0)}
	return &persist.Lineage{
		Store:   st,
		Engine:  stream.NewEngine(stream.Config{Runner: runner}),
		Plans:   runner.Cache,
		Resolve: lineageModel,
	}
}

// writeJournal drives one lineage under root/shard-0000: a registration,
// two subscriptions, ticks, a mid-run checkpoint, more ticks and a
// close. The store is then released without a final checkpoint, so the
// log holds a snapshot plus a tail. It returns the engine's final
// snapshot and plans.
func writeJournal(t *testing.T, root string) (stream.EngineSnapshot, []serve.WarmPlan) {
	t.Helper()
	ctx := context.Background()
	st, err := persist.Open(filepath.Join(root, persist.ShardStoreName(0)), persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	l := newLineage(st)
	if n, err := l.Recover(); err != nil || n != 0 {
		t.Fatalf("recovering a new store: %d records, %v", n, err)
	}
	l.Engine.SetJournal(persist.EngineJournal{Store: st})
	proc, obs, _ := lineageModel("", "")
	feed := proc.Initial()
	if err := l.Engine.RegisterModel("gbm", "gbm", proc, feed.Clone()); err != nil {
		t.Fatal(err)
	}
	var subs []*stream.Subscription
	for i, beta := range []float64{104, 108} {
		sub, err := l.Engine.Subscribe(ctx, stream.SubSpec{
			Stream: "gbm", Obs: obs["price"], ObserverID: "price", Beta: beta, Horizon: 50,
			Seed: uint64(7 + i), Stop: mc.Any{mc.RETarget{Target: 0.3}},
		})
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
	}
	src := rng.NewStream(3, 1)
	tick := func(k int) {
		proc.Step(feed, k, src)
		if _, err := l.Engine.Update(ctx, "gbm", feed.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	for k := 1; k <= 3; k++ {
		tick(k)
	}
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for k := 4; k <= 6; k++ {
		tick(k)
	}
	subs[0].Close()
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	return l.Engine.Snapshot(), l.Plans.Export()
}

func gobBytes(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// One journal rebuilds the same engine whether a restart recovers it
// (Lineage.Recover) or a follower ships and replays it through hooks
// that are the lineage's RestoreFile and Apply: byte-identical engine
// snapshots and equal plan caches, both equal to the writer's.
func TestLineageRecoverMatchesFollower(t *testing.T) {
	root := t.TempDir()
	wantSnap, wantPlans := writeJournal(t, root)
	if len(wantPlans) == 0 {
		t.Fatal("the journal's engine warmed no plans; the test would compare nothing")
	}

	st, err := persist.Open(filepath.Join(root, persist.ShardStoreName(0)), persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	recovered := newLineage(st)
	replayed, err := recovered.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if replayed == 0 {
		t.Fatal("recovery replayed no records; the checkpoint left no tail")
	}

	followed := newLineage(nil)
	f := replicate.NewFollower(replicate.Config{
		Source: replicate.DirSource{Root: root, Stores: []string{persist.ShardStoreName(0)}},
		Dir:    t.TempDir(),
		Hooks: func(string) (replicate.StoreHooks, bool) {
			return replicate.StoreHooks{Restore: followed.RestoreFile, Apply: followed.Apply}, true
		},
	})
	defer f.Close()
	if err := f.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	want := gobBytes(t, wantSnap)
	for _, c := range []struct {
		name string
		l    *persist.Lineage
	}{{"recovered", recovered}, {"followed", followed}} {
		if got := gobBytes(t, c.l.Engine.Snapshot()); !bytes.Equal(got, want) {
			t.Errorf("%s engine snapshot (%d gob bytes) differs from the writer's (%d)", c.name, len(got), len(want))
		}
		if got := c.l.Plans.Export(); !reflect.DeepEqual(got, wantPlans) {
			t.Errorf("%s plans %+v, writer's %+v", c.name, got, wantPlans)
		}
	}
}

// Apply refuses a record that is not an engine event, naming its type.
func TestLineageApplyRefusesForeignRecord(t *testing.T) {
	type foreign struct{ N int }
	err := newLineage(nil).Apply(1, foreign{N: 1})
	if err == nil || !strings.Contains(err.Error(), "persist_test.foreign") {
		t.Fatalf("Apply(foreign record) = %v, want a refusal naming persist_test.foreign", err)
	}
}
