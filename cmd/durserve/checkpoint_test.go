package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"durability/internal/persist"
)

// smallTrigger is a size trigger driveReplicaSubs' drive trips every few
// ticks on the shard holding most subscriptions (about 300 B a tick) and
// every dozen or so on one holding none (about 100 B), so the checkpoint
// tests see many generations, placed unevenly across shards.
var smallTrigger = persist.Options{MaxWALBytes: 2 << 10}

// snapNames lists the snapshot files in one shard store directory.
func snapNames(t *testing.T, dir string, shard int) []string {
	t.Helper()
	files, err := persist.ListDir(persist.OSFS, filepath.Join(dir, persist.ShardStoreName(shard)))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range files {
		if kind, _, _ := persist.ParseFileName(f.Name); kind == persist.SnapFile {
			names = append(names, f.Name)
		}
	}
	return names
}

// checkpointCount reads how many checkpoints shard i's lineage has
// attempted, from durserve_checkpoint_duration_seconds.
func checkpointCount(h *streamHub, i int) uint64 {
	return h.timing.checkpoint[persist.ShardStoreName(i)].Snapshot().Count
}

// tickStream names the stream tick i of the checkpoint tests advances.
func tickStream(i int) string {
	if i%3 == 2 {
		return "queue"
	}
	return "walk"
}

// Two daemons driven alike, each waiting for every tick's checkpoint
// pass, write the same snapshot generations on the same ticks: placement
// follows the update stream, not the clock.
func TestCheckpointPlacementFollowsTicks(t *testing.T) {
	const shards, ticks = 2, 48
	dirs := []string{t.TempDir(), t.TempDir()}
	var stacks []*replicaStack
	for _, dir := range dirs {
		s := durableShardedOpts(t, dir, shards, smallTrigger)
		driveReplicaSubs(t, s.ts)
		stacks = append(stacks, s)
	}
	for i := 0; i < ticks; i++ {
		for k, s := range stacks {
			tickRaw(t, s.ts, tickStream(i))
			s.hub.passes.Wait()
			if k == 0 {
				continue
			}
			for shard := 0; shard < shards; shard++ {
				a, b := snapNames(t, dirs[0], shard), snapNames(t, dirs[k], shard)
				if !slices.Equal(a, b) {
					t.Fatalf("after tick %d, %s holds %v in one daemon and %v in the other", i+1, persist.ShardStoreName(shard), a, b)
				}
			}
		}
	}
	for shard := 0; shard < shards; shard++ {
		// The boot checkpoint is one; the trigger must have written more.
		if n := checkpointCount(stacks[0].hub, shard); n < 3 {
			t.Fatalf("%s checkpointed %d times in %d ticks under a %d-byte trigger, want at least 3", persist.ShardStoreName(shard), n, ticks, smallTrigger.MaxWALBytes)
		}
	}
}

// A pass checkpoints exactly the shards whose logs tripped: holding the
// checkpoint lock freezes each tick's pass until the test has read every
// shard's trigger, and only the shards found due gain a generation.
func TestCheckpointPassSkipsUntrippedShards(t *testing.T) {
	const shards, ticks = 2, 24
	s := durableShardedOpts(t, t.TempDir(), shards, smallTrigger)
	driveReplicaSubs(t, s.ts)
	mixed := false
	for i := 0; i < ticks; i++ {
		before := make([]uint64, shards)
		due := make([]bool, shards)
		s.hub.ckptMu.Lock()
		tickRaw(t, s.ts, tickStream(i))
		for shard, st := range s.stores {
			before[shard] = checkpointCount(s.hub, shard)
			due[shard] = st.NeedCheckpoint()
		}
		s.hub.ckptMu.Unlock()
		s.hub.passes.Wait()
		for shard := range s.stores {
			wrote := checkpointCount(s.hub, shard) - before[shard]
			if want := map[bool]uint64{false: 0, true: 1}[due[shard]]; wrote != want {
				t.Fatalf("tick %d: %s (trigger tripped: %v) checkpointed %d times, want %d", i+1, persist.ShardStoreName(shard), due[shard], wrote, want)
			}
			if s.stores[shard].NeedCheckpoint() {
				t.Fatalf("tick %d: %s still due after its pass", i+1, persist.ShardStoreName(shard))
			}
		}
		mixed = mixed || due[0] != due[1]
	}
	if !mixed {
		t.Fatal("no tick tripped one shard's trigger but not the other's; the drive does not exercise a skipped shard")
	}
}

// A follower has no lineages until promotion, so its ticks — which
// arrive through replication — start no pass: every snapshot in its
// mirror is a byte copy of one the primary wrote.
func TestFollowerWritesNoCheckpoint(t *testing.T) {
	const shards = 2
	primaryDir, mirror := t.TempDir(), t.TempDir()
	primary := durableShardedOpts(t, primaryDir, shards, smallTrigger)
	fs := startTestFollower(t, primary.ts.URL, mirror, shards)
	driveReplicaSubs(t, primary.ts)
	// The follower catches up after every tick: at a 2 KB trigger the
	// primary checkpoints every few ticks, and a follower two
	// generations behind has fallen behind compaction.
	for i := 0; i < 12; i++ {
		tickRaw(t, primary.ts, tickStream(i))
		primary.hub.passes.Wait()
		waitCaughtUp(t, fs, primary.hub)
	}
	fs.hub.startCheckpointPass()
	fs.hub.passes.Wait()
	if fs.hub.attached() != nil {
		t.Fatal("an unpromoted follower has lineages attached")
	}
	compared := 0
	for shard := 0; shard < shards; shard++ {
		if n := checkpointCount(fs.hub, shard); n != 0 {
			t.Fatalf("follower checkpointed %s %d times before promotion", persist.ShardStoreName(shard), n)
		}
		for _, name := range snapNames(t, mirror, shard) {
			store := persist.ShardStoreName(shard)
			want, err := os.ReadFile(filepath.Join(primaryDir, store, name))
			if os.IsNotExist(err) {
				continue // compacted on the primary since it shipped
			}
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(mirror, store, name))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("mirrored %s/%s differs from the primary's", store, name)
			}
			compared++
		}
	}
	if compared == 0 {
		t.Fatal("the mirror holds no snapshot the primary still has; nothing was compared")
	}
}

// Shutdown waits for a running pass before it checkpoints or closes the
// stores, and no pass starts once it has begun: a tick that trips a
// trigger afterwards leaves the trigger tripped.
func TestShutdownWaitsForCheckpointPass(t *testing.T) {
	for _, tc := range []struct {
		name  string
		final bool // finalShutdown; else closeStores
	}{{"finalShutdown", true}, {"closeStores", false}} {
		t.Run(tc.name, func(t *testing.T) {
			const shards = 2
			s := durableShardedOpts(t, t.TempDir(), shards, smallTrigger)
			driveReplicaSubs(t, s.ts)

			// Tick under the checkpoint lock until a shard is due: its
			// pass is then started and blocked.
			s.hub.ckptMu.Lock()
			due := make([]bool, shards)
			for i := 0; !slices.Contains(due, true); i++ {
				if i == 50 {
					s.hub.ckptMu.Unlock()
					t.Fatal("no shard tripped its trigger in 50 ticks")
				}
				tickRaw(t, s.ts, tickStream(i))
				for shard, st := range s.stores {
					due[shard] = st.NeedCheckpoint()
				}
			}
			before := make([]uint64, shards)
			for shard := range before {
				before[shard] = checkpointCount(s.hub, shard)
			}
			done := make(chan error, 1)
			go func() {
				if tc.final {
					done <- finalShutdown(s.hub, s.acks, 0)
				} else {
					s.hub.closeStores()
					done <- nil
				}
			}()
			select {
			case <-done:
				s.hub.ckptMu.Unlock()
				t.Fatalf("%s returned while a checkpoint pass was still running", tc.name)
			case <-time.After(100 * time.Millisecond):
			}
			s.hub.ckptMu.Unlock()
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			for shard := range before {
				want := before[shard]
				if due[shard] {
					want++ // the pass
				}
				if tc.final {
					want++ // the final checkpoint
				}
				if got := checkpointCount(s.hub, shard); got != want {
					t.Fatalf("%s checkpointed %d times across the shutdown, want %d", persist.ShardStoreName(shard), got-before[shard], want-before[shard])
				}
			}
			if !tc.final {
				return
			}

			// The stores stay open after finalShutdown; ticks still
			// append, but none starts a pass.
			after := make([]uint64, shards)
			for shard := range after {
				after[shard] = checkpointCount(s.hub, shard)
			}
			tripped := false
			for i := 0; i < 50 && !tripped; i++ {
				tickRaw(t, s.ts, tickStream(i))
				s.hub.passes.Wait()
				for _, st := range s.stores {
					tripped = tripped || st.NeedCheckpoint()
				}
			}
			for shard := range after {
				if got := checkpointCount(s.hub, shard); got != after[shard] {
					t.Fatalf("%s checkpointed %d times after shutdown began", persist.ShardStoreName(shard), got-after[shard])
				}
			}
			if !tripped {
				t.Fatal("no shard tripped its trigger in 50 ticks after shutdown")
			}
		})
	}
}

// Checkpoint passes run beside concurrent ticks on two streams: the
// journal they leave recovers every tick and subscription.
func TestCheckpointPassesBesideConcurrentTicks(t *testing.T) {
	const shards, tickers, perTicker = 2, 4, 8
	dir := t.TempDir()
	s := durableShardedOpts(t, dir, shards, smallTrigger)
	driveReplicaSubs(t, s.ts)
	var wg sync.WaitGroup
	for g := 0; g < tickers; g++ {
		wg.Add(1)
		go func(stream string) {
			defer wg.Done()
			for i := 0; i < perTicker; i++ {
				if _, _, err := s.hub.tick(context.Background(), tickRequest{Stream: stream}); err != nil {
					t.Errorf("tick %s: %v", stream, err)
					return
				}
			}
		}([]string{"walk", "queue"}[g%2])
	}
	wg.Wait()
	s.hub.passes.Wait()
	triggered := false
	for shard := 0; shard < shards; shard++ {
		triggered = triggered || checkpointCount(s.hub, shard) > 1
	}
	if !triggered {
		t.Fatal("no shard checkpointed past its boot checkpoint")
	}
	s.ts.Close()
	s.hub.closeStores()

	restarted := durableShardedOpts(t, dir, shards, smallTrigger)
	if n := restarted.hub.stats().Subscriptions; n != 3 {
		t.Fatalf("recovered %d subscriptions, want 3", n)
	}
	for _, stream := range []string{"walk", "queue"} {
		ticks, _ := restarted.hub.engine.ShardTicks(stream)
		for shard, tk := range ticks {
			if want := int64(tickers / 2 * perTicker); tk != want {
				t.Fatalf("%s recovered %s at tick %d, want %d", persist.ShardStoreName(shard), stream, tk, want)
			}
		}
	}
}
