package replicate

import (
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"durability/internal/persist"
)

// repEv is the journal event of these tests; repSnap the checkpoint.
type repEv struct{ N int }

type repSnap struct {
	LSN  int64
	Vals []int
}

func init() { gob.Register(repEv{}) }

// intLog is a store's applied state: the snapshot-then-WAL reduction a
// real engine performs, shrunk to an integer log with LSN skipping.
type intLog struct {
	mu       sync.Mutex
	lsn      int64
	vals     []int
	restores int
	found    bool
}

func (l *intLog) hooks() StoreHooks {
	return StoreHooks{
		Restore: func(snapPath string, found bool) error {
			l.mu.Lock()
			defer l.mu.Unlock()
			l.restores++
			l.found = found
			if !found {
				return nil
			}
			var s repSnap
			ok, err := persist.ReadSnapshotFile(nil, snapPath, &s)
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("chosen snapshot %s is unreadable", snapPath)
			}
			l.lsn = s.LSN
			l.vals = append([]int(nil), s.Vals...)
			return nil
		},
		Apply: func(lsn int64, ev any) error {
			l.mu.Lock()
			defer l.mu.Unlock()
			if lsn <= l.lsn {
				return nil // covered by the snapshot
			}
			e, ok := ev.(repEv)
			if !ok {
				return fmt.Errorf("unexpected event %T", ev)
			}
			l.vals = append(l.vals, e.N)
			l.lsn = lsn
			return nil
		},
	}
}

func (l *intLog) state() (int64, []int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lsn, append([]int(nil), l.vals...)
}

func hooksFor(logs map[string]*intLog) func(string) (StoreHooks, bool) {
	return func(store string) (StoreHooks, bool) {
		l, ok := logs[store]
		if !ok {
			return StoreHooks{}, false
		}
		return l.hooks(), true
	}
}

// openPrimary opens (or reopens) a store under root/name, tracking the
// last appended LSN for checkpoint assembly.
type primaryStore struct {
	st   *persist.Store
	lsn  int64
	vals []int
}

func openPrimary(t *testing.T, root, name string) *primaryStore {
	t.Helper()
	st, err := persist.Open(filepath.Join(root, name), persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := &primaryStore{st: st}
	if _, _, err := st.Recover(&repSnap{}, func(found bool) error { return nil },
		func(lsn int64, ev any) error { return nil }); err != nil {
		t.Fatal(err)
	}
	return p
}

func (p *primaryStore) append(t *testing.T, vals ...int) {
	t.Helper()
	for _, v := range vals {
		lsn, err := p.st.Append(repEv{N: v})
		if err != nil {
			t.Fatal(err)
		}
		p.lsn = lsn
		p.vals = append(p.vals, v)
	}
}

func (p *primaryStore) checkpoint(t *testing.T) {
	t.Helper()
	if err := p.st.Checkpoint(func() (any, error) {
		return repSnap{LSN: p.lsn, Vals: append([]int(nil), p.vals...)}, nil
	}); err != nil {
		t.Fatal(err)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// A follower over a bare directory applies everything the primary
// journals — across appends, a checkpoint's rotation, and more appends
// — and reports zero byte lag once caught up.
func TestFollowerMirrorsAndApplies(t *testing.T) {
	ctx := context.Background()
	root, mirror := t.TempDir(), t.TempDir()
	p := openPrimary(t, root, "main")
	p.append(t, 1, 2, 3)

	log := &intLog{}
	f := NewFollower(Config{
		Source: DirSource{Root: root, Stores: []string{"main"}},
		Dir:    mirror,
		Hooks:  hooksFor(map[string]*intLog{"main": log}),
	})
	defer f.Close()
	if _, err := f.syncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if lsn, vals := log.state(); lsn != 3 || !equalInts(vals, []int{1, 2, 3}) {
		t.Fatalf("after first sync: lsn=%d vals=%v", lsn, vals)
	}
	if log.found {
		t.Fatal("restore claimed a snapshot before any checkpoint existed")
	}

	p.checkpoint(t) // rotation: wal-2 appears, snap-2 lands, wal-1 compacts away
	p.append(t, 4, 5, 6)
	if _, err := f.syncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if lsn, vals := log.state(); lsn != 6 || !equalInts(vals, []int{1, 2, 3, 4, 5, 6}) {
		t.Fatalf("after rotation sync: lsn=%d vals=%v", lsn, vals)
	}
	lag := f.Lags()["main"]
	if lag.Bytes != 0 || lag.AppliedLSN != 6 || !lag.Restored {
		t.Fatalf("lag %+v, want fully applied", lag)
	}
	// The snapshot must be mirrored byte-for-byte too: promotion depends
	// on the mirror being a complete data directory.
	src, err := os.ReadFile(filepath.Join(root, "main", "snap-0000000000000002"))
	if err != nil {
		t.Fatal(err)
	}
	dst, err := os.ReadFile(filepath.Join(mirror, "main", "snap-0000000000000002"))
	if err != nil {
		t.Fatal(err)
	}
	if string(src) != string(dst) {
		t.Fatal("mirrored snapshot differs from the primary's")
	}
}

// A follower that lost records to the primary's compaction — it
// restored at genesis, and a checkpoint folded records it never shipped
// into a snapshot it cannot splice into warm engines — must fail loudly
// on the LSN chain, never skip history silently.
func TestFollowerFellBehindCompactionIsLoud(t *testing.T) {
	ctx := context.Background()
	root, mirror := t.TempDir(), t.TempDir()
	p := openPrimary(t, root, "main")
	p.append(t, 1, 2, 3)

	log := &intLog{}
	f := NewFollower(Config{
		Source: DirSource{Root: root, Stores: []string{"main"}},
		Dir:    mirror,
		Hooks:  hooksFor(map[string]*intLog{"main": log}),
	})
	defer f.Close()
	if _, err := f.syncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	// Records 4 and 5 are appended and immediately checkpointed: the
	// follower never sees their WAL frames, only the snapshot.
	p.append(t, 4, 5)
	p.checkpoint(t)
	p.append(t, 6)
	_, err := f.syncOnce(ctx)
	if err == nil {
		t.Fatal("follower silently skipped compacted records")
	}
	if IsTransient(err) {
		t.Fatalf("fell-behind must be fatal, got transient: %v", err)
	}
}

// A follower arriving after checkpoints restores from the newest
// snapshot and only applies the WAL tail beyond it.
func TestFollowerRestoresFromSnapshot(t *testing.T) {
	ctx := context.Background()
	root, mirror := t.TempDir(), t.TempDir()
	p := openPrimary(t, root, "main")
	p.append(t, 1, 2, 3)
	p.checkpoint(t)
	p.append(t, 4, 5)

	log := &intLog{}
	f := NewFollower(Config{
		Source: StoreSource{Stores: map[string]*persist.Store{"main": p.st}},
		Dir:    mirror,
		Hooks:  hooksFor(map[string]*intLog{"main": log}),
	})
	defer f.Close()
	if _, err := f.syncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if lsn, vals := log.state(); lsn != 5 || !equalInts(vals, []int{1, 2, 3, 4, 5}) {
		t.Fatalf("lsn=%d vals=%v", lsn, vals)
	}
	if !log.found || log.restores != 1 {
		t.Fatalf("restore found=%v count=%d, want snapshot restore exactly once", log.found, log.restores)
	}
	lag := f.Lags()["main"]
	if lag.SourceLSN != 5 || lag.Records != 0 || lag.Bytes != 0 {
		t.Fatalf("lag %+v, want zero against a live source", lag)
	}
}

// The primary dies leaving a torn record; its restart truncates and
// rewrites that suffix. The follower, which had already shipped the
// torn bytes, must converge on the repaired history rather than keep
// the garbage.
func TestFollowerSurvivesPrimaryTornTailRepair(t *testing.T) {
	ctx := context.Background()
	root, mirror := t.TempDir(), t.TempDir()
	p := openPrimary(t, root, "main")
	p.append(t, 1, 2, 3)

	log := &intLog{}
	f := NewFollower(Config{
		Source: DirSource{Root: root, Stores: []string{"main"}},
		Dir:    mirror,
		Hooks:  hooksFor(map[string]*intLog{"main": log}),
	})
	defer f.Close()
	if _, err := f.syncOnce(ctx); err != nil {
		t.Fatal(err)
	}

	// Crash: close the store, then tear the tail by hand — a partial
	// frame the next recovery will truncate.
	if err := p.st.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(root, "main", "wal-0000000000000001")
	h, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Write([]byte{100, 0, 0, 0, 7, 7, 7}); err != nil {
		t.Fatal(err)
	}
	h.Close()

	// The follower ships the torn bytes; the tailer just waits on them.
	if _, err := f.syncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if lsn, _ := log.state(); lsn != 3 {
		t.Fatalf("applied through torn tail: lsn=%d", lsn)
	}

	// Primary restarts: recovery truncates the torn suffix, then serves on.
	p2 := openPrimary(t, root, "main")
	p2.lsn, p2.vals = 3, []int{1, 2, 3}
	p2.append(t, 4)

	if _, err := f.syncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if lsn, vals := log.state(); lsn != 4 || !equalInts(vals, []int{1, 2, 3, 4}) {
		t.Fatalf("after repair: lsn=%d vals=%v", lsn, vals)
	}
	src, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := os.ReadFile(filepath.Join(mirror, "main", "wal-0000000000000001"))
	if err != nil {
		t.Fatal(err)
	}
	if string(src) != string(dst) {
		t.Fatal("mirror diverged from the repaired segment")
	}
}

// countingSource wraps a Source counting fetches — restart-adoption
// coverage: a follower reopening an existing mirror re-applies from
// local bytes without re-shipping them.
type countingSource struct {
	Source
	fetches atomic.Int64
}

func (c *countingSource) Fetch(ctx context.Context, store, file string, off, max int64) ([]byte, error) {
	c.fetches.Add(1)
	return c.Source.Fetch(ctx, store, file, off, max)
}

func TestFollowerRestartAdoptsMirror(t *testing.T) {
	ctx := context.Background()
	root, mirror := t.TempDir(), t.TempDir()
	p := openPrimary(t, root, "main")
	p.append(t, 1, 2, 3, 4)

	src := &countingSource{Source: DirSource{Root: root, Stores: []string{"main"}}}
	log1 := &intLog{}
	f1 := NewFollower(Config{Source: src, Dir: mirror, Hooks: hooksFor(map[string]*intLog{"main": log1})})
	if _, err := f1.syncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	f1.Close()
	before := src.fetches.Load()

	log2 := &intLog{}
	f2 := NewFollower(Config{Source: src, Dir: mirror, Hooks: hooksFor(map[string]*intLog{"main": log2})})
	defer f2.Close()
	if _, err := f2.syncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if lsn, vals := log2.state(); lsn != 4 || !equalInts(vals, []int{1, 2, 3, 4}) {
		t.Fatalf("restarted follower: lsn=%d vals=%v", lsn, vals)
	}
	if got := src.fetches.Load(); got != before {
		t.Fatalf("restarted follower re-fetched %d ranges; the mirror already had every byte", got-before)
	}
}

// The HTTP transport round-trips manifests, bytes and acks.
func TestFollowerOverHTTP(t *testing.T) {
	ctx := context.Background()
	root, mirror := t.TempDir(), t.TempDir()
	p := openPrimary(t, root, "main")
	p.append(t, 1, 2, 3)
	p.checkpoint(t)
	p.append(t, 4)

	var mu sync.Mutex
	acked := map[string]int64{}
	srv := httptest.NewServer(NewHandler(
		StoreSource{Stores: map[string]*persist.Store{"main": p.st}},
		func(applied map[string]int64) {
			mu.Lock()
			defer mu.Unlock()
			//durlint:ignore maporder test bookkeeping
			for k, v := range applied {
				acked[k] = v
			}
		}))
	defer srv.Close()

	log := &intLog{}
	f := NewFollower(Config{
		Source: HTTPSource{Base: srv.URL},
		Dir:    mirror,
		Hooks:  hooksFor(map[string]*intLog{"main": log}),
		// A tiny chunk forces the ranged-fetch loop through many rounds.
		ChunkBytes: 16,
	})
	defer f.Close()
	if _, err := f.syncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if lsn, vals := log.state(); lsn != 4 || !equalInts(vals, []int{1, 2, 3, 4}) {
		t.Fatalf("lsn=%d vals=%v", lsn, vals)
	}
	mu.Lock()
	got := acked["main"]
	mu.Unlock()
	if got != 4 {
		t.Fatalf("primary saw ack lsn %d, want 4", got)
	}

	// Path traversal must die at the handler.
	resp, err := srv.Client().Get(srv.URL + "/replicate/file?store=..&name=wal-0000000000000001&off=0&max=10")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("traversal store name got %d, want 400", resp.StatusCode)
	}
	_ = ctx
}

// flakySource serves n successful manifests, then fails forever — the
// primary dying from the follower's point of view.
type flakySource struct {
	Source
	ok atomic.Int64
}

func (s *flakySource) Manifest(ctx context.Context) (Manifest, error) {
	if s.ok.Add(-1) < 0 {
		return Manifest{}, errors.New("connection refused")
	}
	return s.Source.Manifest(ctx)
}

// Run holds its lease through manifest fetches and expires it — firing
// OnLeaseExpired exactly once — when the primary stays unreachable.
func TestFollowerLeaseExpiry(t *testing.T) {
	root, mirror := t.TempDir(), t.TempDir()
	p := openPrimary(t, root, "main")
	p.append(t, 1, 2)

	src := &flakySource{Source: DirSource{Root: root, Stores: []string{"main"}}}
	src.ok.Store(3)
	var expired atomic.Int64
	log := &intLog{}
	f := NewFollower(Config{
		Source:         src,
		Dir:            mirror,
		Hooks:          hooksFor(map[string]*intLog{"main": log}),
		Interval:       5 * time.Millisecond,
		Lease:          60 * time.Millisecond,
		OnLeaseExpired: func() { expired.Add(1) },
	})
	defer f.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := f.Run(ctx)
	if !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("Run returned %v, want ErrLeaseExpired", err)
	}
	if n := expired.Load(); n != 1 {
		t.Fatalf("OnLeaseExpired fired %d times", n)
	}
	if lsn, _ := log.state(); lsn != 2 {
		t.Fatalf("follower applied lsn %d before expiry, want 2", lsn)
	}
}

// Drain finishes once everything the (dead) source left behind is
// applied — including when the source's last bytes are a torn frame
// that will never complete.
func TestDrainConvergesOnTornTail(t *testing.T) {
	root, mirror := t.TempDir(), t.TempDir()
	p := openPrimary(t, root, "main")
	p.append(t, 1, 2, 3)
	if err := p.st.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(root, "main", "wal-0000000000000001")
	h, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Write([]byte{42, 0, 0, 0, 9}); err != nil {
		t.Fatal(err)
	}
	h.Close()

	log := &intLog{}
	f := NewFollower(Config{
		Source: DirSource{Root: root, Stores: []string{"main"}},
		Dir:    mirror,
		Hooks:  hooksFor(map[string]*intLog{"main": log}),
	})
	defer f.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := f.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if lsn, vals := log.state(); lsn != 3 || !equalInts(vals, []int{1, 2, 3}) {
		t.Fatalf("drained lsn=%d vals=%v", lsn, vals)
	}
	// Promotion over the mirror must repair the torn tail and serve on.
	st, err := persist.Open(filepath.Join(mirror, "main"), persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var replayed []int
	if _, _, err := st.Recover(&repSnap{}, func(bool) error { return nil },
		func(lsn int64, ev any) error {
			replayed = append(replayed, ev.(repEv).N)
			return nil
		}); err != nil {
		t.Fatal(err)
	}
	if !equalInts(replayed, []int{1, 2, 3}) {
		t.Fatalf("promoted store replayed %v", replayed)
	}
	if lsn, err := st.Append(repEv{N: 4}); err != nil || lsn != 4 {
		t.Fatalf("promoted store Append = (%d, %v), want lsn 4", lsn, err)
	}
}

// keepAllFS is a mirror filesystem that never deletes: a follower over
// it keeps every file it ever shipped, the unpruned control.
type keepAllFS struct{ persist.FS }

func (keepAllFS) Remove(string) error { return nil }

// promote opens a mirror store as a promoted primary would and returns
// the state its recovery reaches.
func promote(t *testing.T, dir string) (int64, []int) {
	t.Helper()
	st, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var snap repSnap
	var vals []int
	if _, _, err := st.Recover(&snap, func(bool) error {
		vals = append(vals, snap.Vals...)
		return nil
	}, func(lsn int64, ev any) error {
		if lsn > snap.LSN {
			vals = append(vals, ev.(repEv).N)
			snap.LSN = lsn
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return snap.LSN, vals
}

// mirrorFiles lists a mirror store's snap-/wal- files.
func mirrorFiles(t *testing.T, dir string) map[string]bool {
	t.Helper()
	files, err := persist.ListDir(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, f := range files {
		out[f.Name] = true
	}
	return out
}

// A follower drops what the primary's compaction drops: after many
// checkpoints of a primary that keeps two generations, the mirror holds
// exactly the manifest's files, and a promotion from it recovers what a
// promotion from an unpruned mirror recovers.
func TestFollowerPrunesCompactedFiles(t *testing.T) {
	ctx := context.Background()
	root, mirror, control := t.TempDir(), t.TempDir(), t.TempDir()
	st, err := persist.Open(filepath.Join(root, "main"), persist.Options{Keep: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Recover(&repSnap{}, func(bool) error { return nil },
		func(int64, any) error { return nil }); err != nil {
		t.Fatal(err)
	}
	p := &primaryStore{st: st}
	defer st.Close()

	src := DirSource{Root: root, Stores: []string{"main"}}
	pruned := NewFollower(Config{Source: src, Dir: mirror,
		Hooks: hooksFor(map[string]*intLog{"main": {}})})
	defer pruned.Close()
	unpruned := NewFollower(Config{Source: src, Dir: control, FS: keepAllFS{persist.OSFS},
		Hooks: hooksFor(map[string]*intLog{"main": {}})})
	defer unpruned.Close()
	for i := 0; i < 8; i++ {
		p.append(t, 3*i, 3*i+1)
		for _, f := range []*Follower{pruned, unpruned} {
			if _, err := f.syncOnce(ctx); err != nil {
				t.Fatal(err)
			}
		}
		p.checkpoint(t)
		p.append(t, 3*i+2)
		for _, f := range []*Follower{pruned, unpruned} {
			if _, err := f.syncOnce(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}

	m, err := src.Manifest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, file := range m.Stores[0].Files {
		want[file.Name] = true
	}
	got := mirrorFiles(t, filepath.Join(mirror, "main"))
	if len(got) != len(want) {
		t.Fatalf("mirror holds %v, manifest lists %v", got, want)
	}
	for name := range want {
		if !got[name] {
			t.Fatalf("mirror holds %v, manifest lists %v", got, want)
		}
	}
	if kept := mirrorFiles(t, filepath.Join(control, "main")); len(kept) <= len(want) {
		t.Fatalf("unpruned control holds %d files, manifest %d: the drill compacted nothing", len(kept), len(want))
	}

	pruned.Close()
	unpruned.Close()
	lsn, vals := promote(t, filepath.Join(mirror, "main"))
	clsn, cvals := promote(t, filepath.Join(control, "main"))
	if lsn != clsn || !equalInts(vals, cvals) {
		t.Fatalf("promoted from pruned mirror: lsn=%d vals=%v; from unpruned: lsn=%d vals=%v", lsn, vals, clsn, cvals)
	}
	if lsn != p.lsn || !equalInts(vals, p.vals) {
		t.Fatalf("promoted lsn=%d vals=%v, primary lsn=%d vals=%v", lsn, vals, p.lsn, p.vals)
	}
}

// Recovery's directory scan and DirSource list the same store files when
// the directory also holds names just outside the store grammar: a
// 17-digit sequence (here a copy of a real segment, which a scan that
// accepted it would take for the newest), a signed sequence and temp
// files.
func TestRecoveryAndDirSourceListTheSameFiles(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "main")
	st, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var snap repSnap
	if _, _, err := st.Recover(&snap, nil, nil); err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 5; n++ {
		if _, err := st.Append(repEv{N: n}); err != nil {
			t.Fatal(err)
		}
		if n == 3 {
			if err := st.Checkpoint(func() (any, error) { return &repSnap{LSN: 3, Vals: []int{1, 2, 3}}, nil }); err != nil {
				t.Fatal(err)
			}
		}
	}
	st.Close()
	live, err := os.ReadFile(filepath.Join(dir, persist.FileName(persist.WALFile, 2)))
	if err != nil {
		t.Fatal(err)
	}
	edge := []string{"wal-12345678901234567", "snap-+000000000000003", "snap-0000000000000003.tmp", "wal-0000000000000002.tmp"}
	for _, name := range edge {
		if err := os.WriteFile(filepath.Join(dir, name), live, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	st, err = persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	snap = repSnap{}
	var replayed []int
	if _, _, err := st.Recover(&snap, nil, func(lsn int64, ev any) error {
		if lsn > snap.LSN {
			replayed = append(replayed, ev.(repEv).N)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if snap.LSN != 3 || fmt.Sprint(replayed) != "[4 5]" {
		t.Fatalf("recovered snapshot at lsn %d and replayed %v, want lsn 3 and [4 5]", snap.LSN, replayed)
	}
	l, err := st.Listing()
	if err != nil {
		t.Fatal(err)
	}
	m, err := DirSource{Root: root, Stores: []string{"main"}}.Manifest(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Stores) != 1 || fmt.Sprint(m.Stores[0].Files) != fmt.Sprint(l.Files) {
		t.Fatalf("DirSource lists %+v, recovery's scan %+v", m.Stores, l.Files)
	}
	for _, f := range l.Files {
		if _, _, ok := persist.ParseFileName(f.Name); !ok {
			t.Fatalf("a listing holds %q, outside the store grammar", f.Name)
		}
	}
	if len(l.Files) < 2 {
		t.Fatalf("listing %+v lacks the snapshot and segment", l.Files)
	}
}

// Recovery and a follower over DirSource agree on store directories that
// hold several segments: on a history with a segment dropped from the
// middle or the end, or a segment whose header's LSN skips, both apply
// the same records, and where one refuses the directory, both do, each
// naming the segment and where it starts.
func TestRecoveryAndFollowerAgreeOnSegmentChains(t *testing.T) {
	seg := func(seq uint64) string { return persist.FileName(persist.WALFile, seq) }
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, dir string)
		want   []int  // records both apply
		refuse string // the segment both name in refusing, or "" for none
	}{
		{
			name: "dropped-middle-segment",
			damage: func(t *testing.T, dir string) {
				if err := os.Remove(filepath.Join(dir, seg(2))); err != nil {
					t.Fatal(err)
				}
			},
			want:   []int{1, 2},
			refuse: seg(3),
		},
		{
			// Nothing after wal-2 names wal-3, so the shorter history
			// is indistinguishable from one that was never longer.
			name: "dropped-last-segment",
			damage: func(t *testing.T, dir string) {
				if err := os.Remove(filepath.Join(dir, seg(3))); err != nil {
					t.Fatal(err)
				}
			},
			want: []int{1, 2, 3, 4},
		},
		{
			name: "header-lsn-skips",
			damage: func(t *testing.T, dir string) {
				f, err := os.OpenFile(filepath.Join(dir, seg(2)), os.O_RDWR, 0)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				var lsn [8]byte
				binary.LittleEndian.PutUint64(lsn[:], 5) // the segment holds lsn 3 and 4
				if _, err := f.WriteAt(lsn[:], 8); err != nil {
					t.Fatal(err)
				}
			},
			want:   []int{1, 2},
			refuse: seg(2),
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			dir := filepath.Join(root, "main")
			// Three segments, lsn 1–2, 3–4 and 5–6: each failed checkpoint
			// rotates without a snapshot, so every segment stays on disk.
			p := openPrimary(t, root, "main")
			for n := 1; n <= 6; n++ {
				p.append(t, n)
				if n%2 == 0 && n < 6 {
					if err := p.st.Checkpoint(func() (any, error) { return nil, errors.New("no snapshot") }); err == nil {
						t.Fatal("Checkpoint swallowed the assembly failure")
					}
				}
			}
			p.st.Close()
			tc.damage(t, dir)

			// Recovery reads a copy, since it truncates torn tails in place.
			copyDir := filepath.Join(t.TempDir(), "main")
			if err := os.CopyFS(copyDir, os.DirFS(dir)); err != nil {
				t.Fatal(err)
			}
			st, err := persist.Open(copyDir, persist.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			var recovered []int
			_, _, recErr := st.Recover(&repSnap{}, nil, func(lsn int64, ev any) error {
				recovered = append(recovered, ev.(repEv).N)
				return nil
			})

			log := &intLog{}
			f := NewFollower(Config{
				Source: DirSource{Root: root, Stores: []string{"main"}},
				Dir:    t.TempDir(),
				Hooks:  hooksFor(map[string]*intLog{"main": log}),
			})
			defer f.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			folErr := f.Drain(ctx)
			_, followed := log.state()

			if !equalInts(recovered, tc.want) || !equalInts(followed, tc.want) {
				t.Fatalf("recovery applied %v and the follower %v, want %v for both", recovered, followed, tc.want)
			}
			for _, r := range []struct {
				who string
				err error
			}{{"recovery", recErr}, {"follower", folErr}} {
				switch {
				case tc.refuse == "" && r.err != nil:
					t.Errorf("%s refused an intact chain: %v", r.who, r.err)
				case tc.refuse != "" && (r.err == nil || !strings.Contains(r.err.Error(), tc.refuse) || !strings.Contains(r.err.Error(), "starts at lsn 5")):
					t.Errorf("%s: err %v, want a refusal naming %s and its first lsn 5", r.who, r.err, tc.refuse)
				}
			}
		})
	}
}
