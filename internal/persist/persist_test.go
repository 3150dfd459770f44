package persist

import (
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testEvent is the WAL payload for these tests; registered like real
// event types are.
type testEvent struct {
	N int
}

// testSnap is the snapshot payload: the last event folded in, so replay
// correctness is visible as plain data.
type testSnap struct {
	Applied int
}

func init() {
	gob.Register(testEvent{})
}

// replayInto collects replayed events, asserting LSNs arrive in order.
func replayInto(t *testing.T, got *[]testEvent) func(lsn int64, ev any) error {
	t.Helper()
	var prev int64
	return func(lsn int64, ev any) error {
		if lsn <= prev {
			t.Fatalf("replay lsn %d after %d", lsn, prev)
		}
		prev = lsn
		te, ok := ev.(testEvent)
		if !ok {
			return fmt.Errorf("unexpected event %T", ev)
		}
		*got = append(*got, te)
		return nil
	}
}

func openStore(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	st, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestFreshDirRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, Options{})
	var snap testSnap
	found, replayed, err := st.Recover(&snap, nil, nil)
	if err != nil || found || replayed != 0 {
		t.Fatalf("fresh Recover = (%v, %d, %v)", found, replayed, err)
	}
	for i := 1; i <= 5; i++ {
		lsn, err := st.Append(testEvent{N: i})
		if err != nil {
			t.Fatal(err)
		}
		if lsn != int64(i) {
			t.Fatalf("lsn %d, want %d", lsn, i)
		}
	}
	if err := st.Checkpoint(func() (any, error) { return &testSnap{Applied: 5}, nil }); err != nil {
		t.Fatal(err)
	}
	// Tail after the checkpoint.
	for i := 6; i <= 8; i++ {
		if _, err := st.Append(testEvent{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery: snapshot holds 5, tail replays 6..8.
	st2 := openStore(t, dir, Options{})
	var got []testEvent
	var snap2 testSnap
	found, replayed, err = st2.Recover(&snap2, nil, replayInto(t, &got))
	if err != nil {
		t.Fatal(err)
	}
	if !found || snap2.Applied != 5 {
		t.Fatalf("recovered snapshot %+v (found=%v), want Applied=5", snap2, found)
	}
	if replayed != 3 || len(got) != 3 || got[0].N != 6 || got[2].N != 8 {
		t.Fatalf("replayed %d events %v, want 6..8", replayed, got)
	}
	// Appends continue the LSN chain.
	lsn, err := st2.Append(testEvent{N: 9})
	if err != nil || lsn != 9 {
		t.Fatalf("post-recovery Append = (%d, %v), want lsn 9", lsn, err)
	}
	st2.Close()
}

// A crash mid-write leaves a torn final record; replay must stop cleanly
// at the last complete entry, truncate the garbage, and keep appending.
func TestTornTailTruncation(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, Options{})
	var snap testSnap
	if _, _, err := st.Recover(&snap, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(func() (any, error) { return &testSnap{Applied: 0}, nil }); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		if _, err := st.Append(testEvent{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	// Tear the last record: chop a few bytes off the segment's tail.
	walPath := filepath.Join(dir, fmt.Sprintf("wal-%016d", 2))
	info, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, info.Size()-3); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir, Options{})
	var got []testEvent
	var snap2 testSnap
	found, replayed, err := st2.Recover(&snap2, nil, replayInto(t, &got))
	if err != nil {
		t.Fatal(err)
	}
	if !found || replayed != 3 {
		t.Fatalf("recovered (found=%v, replayed=%d), want torn tail to stop after 3", found, replayed)
	}
	if len(got) != 3 || got[2].N != 3 {
		t.Fatalf("replayed %v, want events 1..3", got)
	}
	// The torn record is gone: the next append reuses its LSN and a third
	// recovery sees a fully well-formed log.
	if lsn, err := st2.Append(testEvent{N: 40}); err != nil || lsn != 4 {
		t.Fatalf("append after truncation = (%d, %v), want lsn 4", lsn, err)
	}
	st2.Close()

	st3 := openStore(t, dir, Options{})
	got = nil
	found, replayed, err = st3.Recover(&snap2, nil, replayInto(t, &got))
	if err != nil || !found || replayed != 4 {
		t.Fatalf("third recovery = (%v, %d, %v), want 4 events", found, replayed, err)
	}
	if got[3].N != 40 {
		t.Fatalf("restored tail %v, want last event N=40", got)
	}
	st3.Close()
}

// Checkpoints compact: with the default Keep of 1, old generations and
// their segments are deleted once the new snapshot is durable.
func TestCheckpointCompacts(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, Options{})
	var snap testSnap
	if _, _, err := st.Recover(&snap, nil, nil); err != nil {
		t.Fatal(err)
	}
	for gen := 1; gen <= 3; gen++ {
		if _, err := st.Append(testEvent{N: gen}); err != nil {
			t.Fatal(err)
		}
		if err := st.Checkpoint(func() (any, error) { return &testSnap{Applied: gen}, nil }); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) != 2 {
		t.Fatalf("after 3 checkpoints the dir holds %v, want exactly the newest snapshot and its segment", names)
	}
	st2 := openStore(t, dir, Options{})
	var snap2 testSnap
	found, replayed, err := st2.Recover(&snap2, nil, replayInto(t, &[]testEvent{}))
	if err != nil || !found || replayed != 0 || snap2.Applied != 3 {
		t.Fatalf("recovery after compaction = (%v, %d, %v) snap %+v", found, replayed, err, snap2)
	}
	st2.Close()
}

// A crash between log rotation and snapshot publication leaves a new
// segment without its snapshot; recovery must fall back to the previous
// generation and replay across both segments.
func TestRecoverySpansSegmentsWhenSnapshotMissing(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, Options{})
	var snap testSnap
	if _, _, err := st.Recover(&snap, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(func() (any, error) { return &testSnap{Applied: 0}, nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append(testEvent{N: 1}); err != nil {
		t.Fatal(err)
	}
	// The crash: rotation succeeds, snapshot assembly fails.
	boom := fmt.Errorf("assembly died")
	if err := st.Checkpoint(func() (any, error) { return nil, boom }); err == nil {
		t.Fatal("Checkpoint swallowed the assembly failure")
	}
	if _, err := st.Append(testEvent{N: 2}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2 := openStore(t, dir, Options{})
	var got []testEvent
	var snap2 testSnap
	found, replayed, err := st2.Recover(&snap2, nil, replayInto(t, &got))
	if err != nil {
		t.Fatal(err)
	}
	if !found || snap2.Applied != 0 {
		t.Fatalf("fallback snapshot %+v (found=%v)", snap2, found)
	}
	if replayed != 2 || got[0].N != 1 || got[1].N != 2 {
		t.Fatalf("replayed %v, want events from both segments", got)
	}
	st2.Close()
}

// A segment missing between two others is lost history: with lsn 1–6
// over wal-1..3 and wal-2 deleted, recovery must refuse wal-3 by name
// before applying any of its records, not replay [1 2 5 6].
func TestRecoveryRefusesSegmentGap(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, Options{})
	if _, _, err := st.Recover(&testSnap{}, nil, nil); err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 6; n++ {
		if _, err := st.Append(testEvent{N: n}); err != nil {
			t.Fatal(err)
		}
		if n%2 == 0 && n < 6 {
			// Rotate without a snapshot, so every segment stays on disk.
			if err := st.Checkpoint(func() (any, error) { return nil, fmt.Errorf("no snapshot") }); err == nil {
				t.Fatal("Checkpoint swallowed the assembly failure")
			}
		}
	}
	st.Close()
	for seq := uint64(1); seq <= 3; seq++ {
		if _, err := os.Stat(filepath.Join(dir, FileName(WALFile, seq))); err != nil {
			t.Fatalf("segment %d: %v", seq, err)
		}
	}
	if err := os.Remove(filepath.Join(dir, FileName(WALFile, 2))); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir, Options{})
	defer st2.Close()
	var got []testEvent
	_, _, err := st2.Recover(&testSnap{}, nil, replayInto(t, &got))
	if err == nil {
		t.Fatalf("recovery across a missing segment succeeded, replaying %v", got)
	}
	if name := FileName(WALFile, 3); !strings.Contains(err.Error(), name) {
		t.Fatalf("error %q does not name %s", err, name)
	}
	if len(got) != 2 || got[0].N != 1 || got[1].N != 2 {
		t.Fatalf("applied %v before refusing, want only wal-1's [1 2]", got)
	}
}

// A corrupted newest snapshot falls back to the previous generation (when
// kept) instead of serving from garbage.
func TestCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, Options{Keep: 2})
	var snap testSnap
	if _, _, err := st.Recover(&snap, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(func() (any, error) { return &testSnap{Applied: 1}, nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append(testEvent{N: 10}); err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(func() (any, error) { return &testSnap{Applied: 2}, nil }); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Flip a payload byte in the newest snapshot.
	newest := filepath.Join(dir, fmt.Sprintf("snap-%016d", 3))
	blob, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-1] ^= 0xFF
	if err := os.WriteFile(newest, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir, Options{Keep: 2})
	var got []testEvent
	var snap2 testSnap
	found, replayed, err := st2.Recover(&snap2, nil, replayInto(t, &got))
	if err != nil {
		t.Fatal(err)
	}
	if !found || snap2.Applied != 1 {
		t.Fatalf("fallback snapshot %+v (found=%v), want generation 1", snap2, found)
	}
	if replayed != 1 || got[0].N != 10 {
		t.Fatalf("replayed %v, want the event between the generations", got)
	}
	st2.Close()
}

func TestNeedCheckpointSizeTrigger(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, Options{MaxWALBytes: 256})
	var snap testSnap
	if _, _, err := st.Recover(&snap, nil, nil); err != nil {
		t.Fatal(err)
	}
	if st.NeedCheckpoint() {
		t.Fatal("NeedCheckpoint true on an empty segment")
	}
	for i := 0; i < 64; i++ {
		if _, err := st.Append(testEvent{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	if !st.NeedCheckpoint() {
		t.Fatal("NeedCheckpoint false after outgrowing MaxWALBytes")
	}
	if err := st.Checkpoint(func() (any, error) { return &testSnap{}, nil }); err != nil {
		t.Fatal(err)
	}
	if st.NeedCheckpoint() {
		t.Fatal("NeedCheckpoint still true after a checkpoint")
	}
	st.Close()
}

func TestAppendBeforeRecoverRejected(t *testing.T) {
	st := openStore(t, t.TempDir(), Options{})
	if _, err := st.Append(testEvent{}); err == nil {
		t.Fatal("Append before Recover accepted")
	}
	if err := st.Checkpoint(func() (any, error) { return &testSnap{}, nil }); err == nil {
		t.Fatal("Checkpoint before Recover accepted")
	}
}
