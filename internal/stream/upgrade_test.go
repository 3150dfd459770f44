package stream_test

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"durability/internal/persist"
	"durability/internal/stochastic"
	"durability/internal/stream"
)

// The fixtures under testdata/ are persist stores written by the engine
// that journaled commands (EvSubscribed, EvUpdated) instead of refresh
// outcomes: a chain stream with one subscription (β 7, horizon 50, seed 7,
// RE 0.10) ticked to states 1 and 2. command-log/ was left by a crash, so
// its log tail holds those records; command-log-checkpointed/ was left by
// a clean shutdown — a final checkpoint and an empty tail — and
// command-log-checkpointed.next.json holds what that engine answered on
// the next two ticks.

func chainResolver(_, _ string) (stochastic.Process, map[string]stochastic.Observer, error) {
	return stochastic.BirthDeathChain(10, 0.45, 0), map[string]stochastic.Observer{"index": stochastic.ChainIndex}, nil
}

// recoverFixture copies a fixture store and recovers it into a new engine.
func recoverFixture(t *testing.T, name string) (*stream.Engine, int, error) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), name)
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", name))); err != nil {
		t.Fatal(err)
	}
	st, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	eng := stream.NewEngine(stream.Config{})
	var snap stream.EngineSnapshot
	_, n, err := st.Recover(&snap,
		func(found bool) error {
			if !found {
				return nil
			}
			return eng.Restore(snap, chainResolver)
		},
		func(lsn int64, ev any) error {
			return eng.Apply(context.Background(), lsn, ev.(stream.JournalEvent), chainResolver)
		})
	return eng, n, err
}

// A log tail of command records cannot be replayed without re-running
// refreshes, so recovery refuses it, naming the cause and the remedy.
func TestRecoveryRefusesCommandLog(t *testing.T) {
	_, _, err := recoverFixture(t, "command-log")
	if err == nil {
		t.Fatal("recovery replayed a command-log tail")
	}
	msg := err.Error()
	for _, want := range []string{"predates refresh-outcome records", "checkpoint the data directory with the previous binary", "move it aside"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("refusal %q does not say %q", msg, want)
		}
	}
}

// A cleanly shut down data directory has nothing to replay: it upgrades,
// and serves on exactly as the engine that wrote it would have.
func TestRecoveryUpgradesCheckpointedCommandLog(t *testing.T) {
	eng, replayed, err := recoverFixture(t, "command-log-checkpointed")
	if err != nil {
		t.Fatalf("recovering a clean shutdown's data directory: %v", err)
	}
	if replayed != 0 {
		t.Fatalf("replayed %d records from an empty tail", replayed)
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "command-log-checkpointed.next.json"))
	if err != nil {
		t.Fatal(err)
	}
	var next []struct {
		I              int
		PBits, VarBits uint64
		FreshSteps     int64
		Roots          int64 `json:"PoolRoots"`
	}
	if err := json.Unmarshal(raw, &next); err != nil {
		t.Fatal(err)
	}
	for _, w := range next {
		rs, err := eng.Update(context.Background(), "chain", &stochastic.ChainState{I: w.I})
		if err != nil {
			t.Fatal(err)
		}
		if len(rs) != 1 || rs[0].Err != nil {
			t.Fatalf("state %d: refreshes %+v", w.I, rs)
		}
		a := rs[0].Answer
		if math.Float64bits(a.Result.P) != w.PBits || math.Float64bits(a.Result.Variance) != w.VarBits ||
			a.FreshSteps != w.FreshSteps || a.PoolRoots != w.Roots {
			t.Fatalf("state %d: answer %+v differs from the writing engine's (P bits %d, variance bits %d, fresh steps %d, pool %d)",
				w.I, a, w.PBits, w.VarBits, w.FreshSteps, w.Roots)
		}
	}
}
