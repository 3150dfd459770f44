package replicate

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"durability/internal/persist"
)

// ErrLeaseExpired is returned by Run when the primary has been
// unreachable for longer than the configured lease: the signal to
// promote. The follower holds its lease by fetching manifests — a
// primary that can still answer a manifest request is still the
// primary, even if it is slow; one that cannot has lost the lease.
var ErrLeaseExpired = errors.New("replicate: primary lease expired")

// StoreHooks is how one mirrored store feeds a live engine. Restore is
// called exactly once, before any Apply, with the local path of the
// best fully-shipped snapshot (found=false and an empty path when the
// primary has never checkpointed). Apply receives every complete WAL
// record from there on, in LSN order; records the snapshot already
// covers must be idempotent no-ops for the hook (the engine's per-stream
// LSNs make them so).
type StoreHooks struct {
	Restore func(snapPath string, found bool) error
	Apply   func(lsn int64, ev any) error
}

// Config wires a Follower.
type Config struct {
	Source Source
	Dir    string // local mirror root; becomes a valid data dir
	// Hooks resolves a store name to its apply hooks; ok=false ignores
	// the store (ship nothing, apply nothing).
	Hooks func(store string) (h StoreHooks, ok bool)

	Interval       time.Duration // poll period for Run (default 200ms)
	Lease          time.Duration // 0 disables lease expiry
	OnLeaseExpired func()        // called once, just before Run returns ErrLeaseExpired

	FS         persist.FS // local mirror filesystem (default OSFS)
	ChunkBytes int64      // max bytes per Fetch (default 1MiB)
}

// Lag is one store's replication lag as of the last successful sync.
type Lag struct {
	AppliedLSN int64 // last LSN applied (or covered by the restored snapshot)
	SourceLSN  int64 // primary's last LSN from the manifest; 0 = source doesn't know
	Records    int64 // SourceLSN - AppliedLSN when SourceLSN is known, else 0
	Bytes      int64 // manifest WAL bytes not yet applied (authoritative convergence signal)
	Restored   bool  // the store's snapshot (or empty genesis) has been restored
}

// Follower mirrors a primary's stores and applies their WAL records to
// live engines as they ship. Run/Drain drive it from one goroutine;
// Lags is safe to call concurrently (the /metrics scrape path).
type Follower struct {
	cfg    Config
	mu     sync.Mutex
	stores map[string]*followerStore
	lags   map[string]Lag
}

// followerStore is the per-store shipping and tailing state. It is only
// touched by the sync goroutine that owns the store for the round.
type followerStore struct {
	name, dir string
	hooks     StoreHooks

	inited   bool
	restored bool
	unlisted bool             // the last manifest listed no file of the store
	copied   map[string]int64 // local bytes per file

	tailSeq      uint64 // segment currently tailed
	tailer       *persist.Tailer
	startChecked bool  // this segment's first LSN verified against expectNext
	expectNext   int64 // LSN the next segment must start at (0 = unknown)
	applied      int64 // last applied (or snapshot-covered) LSN
	copyLag      int64 // manifest bytes not yet shipped, as of last round
}

// NewFollower builds a follower over cfg.
func NewFollower(cfg Config) *Follower {
	if cfg.FS == nil {
		cfg.FS = persist.OSFS
	}
	if cfg.ChunkBytes <= 0 {
		cfg.ChunkBytes = 1 << 20
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 200 * time.Millisecond
	}
	return &Follower{
		cfg:    cfg,
		stores: make(map[string]*followerStore),
		lags:   make(map[string]Lag),
	}
}

// transientError marks failures worth retrying — the source being slow,
// partitioned or mid-restart — as opposed to corruption or hook
// failures, which stop the follower.
type transientError struct{ err error }

func (e transientError) Error() string { return e.err.Error() }
func (e transientError) Unwrap() error { return e.err }

// IsTransient reports whether err is a retryable source failure rather
// than a fatal one.
func IsTransient(err error) bool {
	var te transientError
	return errors.As(err, &te)
}

// Lags returns the per-store lag as of the last successful sync round.
func (f *Follower) Lags() map[string]Lag {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]Lag, len(f.lags))
	//durlint:ignore maporder snapshot copy; callers order it
	for k, v := range f.lags {
		out[k] = v
	}
	return out
}

// Run polls the source until the context ends, a fatal error surfaces,
// or the lease expires. It returns ErrLeaseExpired after calling
// OnLeaseExpired when the primary has been unreachable past the lease.
func (f *Follower) Run(ctx context.Context) error {
	lastOK := time.Now()
	for {
		_, err := f.syncOnce(ctx)
		switch {
		case err == nil:
			lastOK = time.Now()
		case !IsTransient(err):
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		}
		if f.cfg.Lease > 0 && time.Since(lastOK) > f.cfg.Lease {
			if f.cfg.OnLeaseExpired != nil {
				f.cfg.OnLeaseExpired()
			}
			return ErrLeaseExpired
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(f.cfg.Interval):
		}
	}
}

// Drain syncs until everything the source has is applied: apply lag
// zero, or — when the source's final segment ends in a torn frame that
// can never complete (the primary died mid-write) — until every
// manifest byte is shipped and a full round applies nothing new. A store
// the source lists no file of has nothing to apply. After
// Drain, promotion via persist.Open on the mirror loses nothing.
func (f *Follower) Drain(ctx context.Context) error {
	for {
		progressed, err := f.syncOnce(ctx)
		if err != nil && !IsTransient(err) {
			return err
		}
		if err == nil {
			f.mu.Lock()
			applyLag, copyLag := int64(0), int64(0)
			allRestored := true
			//durlint:ignore maporder aggregate only
			for name, l := range f.lags {
				applyLag += l.Bytes
				if !l.Restored && !f.stores[name].unlisted {
					allRestored = false
				}
			}
			for _, fs := range f.stores {
				copyLag += fs.copyLag
			}
			f.mu.Unlock()
			if allRestored && applyLag == 0 {
				return nil
			}
			if allRestored && copyLag == 0 && !progressed {
				return nil // only a torn, never-completable tail remains
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// Close releases the open tailers. The follower is not usable after.
func (f *Follower) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	var first error
	//durlint:ignore maporder close order is irrelevant
	for _, fs := range f.stores {
		if fs.tailer != nil {
			if err := fs.tailer.Close(); err != nil && first == nil {
				first = err
			}
			fs.tailer = nil
		}
	}
	return first
}

// syncOnce runs one full round: manifest, then per-store ship+apply
// concurrently, then lag bookkeeping and (when the source supports it)
// an ack of applied LSNs. progressed reports whether any store shipped
// or applied anything.
func (f *Follower) syncOnce(ctx context.Context) (progressed bool, err error) {
	m, err := f.cfg.Source.Manifest(ctx)
	if err != nil {
		return false, transientError{fmt.Errorf("replicate: manifest: %w", err)}
	}
	type result struct {
		progressed bool
		lag        Lag
		err        error
	}
	stores := make([]*followerStore, 0, len(m.Stores))
	manifests := make([]StoreManifest, 0, len(m.Stores))
	for _, sm := range m.Stores {
		if err := validNames(sm.Name, ""); err != nil {
			return false, err
		}
		fs, ok := f.storeFor(sm.Name)
		if !ok {
			continue
		}
		stores = append(stores, fs)
		manifests = append(manifests, sm)
	}
	results := make([]result, len(stores))
	var wg sync.WaitGroup
	for i := range stores {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, lag, err := f.syncStore(ctx, stores[i], manifests[i])
			results[i] = result{p, lag, err}
		}(i)
	}
	wg.Wait()

	applied := make(map[string]int64, len(stores))
	var errs []error
	f.mu.Lock()
	for i, r := range results {
		if r.err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", stores[i].name, r.err))
			continue
		}
		f.lags[stores[i].name] = r.lag
		if r.lag.Restored {
			applied[stores[i].name] = r.lag.AppliedLSN
		}
		progressed = progressed || r.progressed
	}
	f.mu.Unlock()
	if len(errs) > 0 {
		joined := errors.Join(errs...)
		for _, e := range errs {
			if !IsTransient(e) {
				return progressed, joined
			}
		}
		return progressed, transientError{joined}
	}
	if acker, ok := f.cfg.Source.(Acker); ok && len(applied) > 0 {
		if err := acker.Ack(ctx, applied); err != nil {
			return progressed, transientError{fmt.Errorf("replicate: ack: %w", err)}
		}
	}
	return progressed, nil
}

// storeFor returns (creating if needed) the state for one store name.
func (f *Follower) storeFor(name string) (*followerStore, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if fs, ok := f.stores[name]; ok {
		return fs, true
	}
	hooks, ok := f.cfg.Hooks(name)
	if !ok {
		return nil, false
	}
	fs := &followerStore{
		name:   name,
		dir:    filepath.Join(f.cfg.Dir, name),
		hooks:  hooks,
		copied: make(map[string]int64),
	}
	f.stores[name] = fs
	return fs, true
}

// tailName is the name of the segment the store tails.
func (fs *followerStore) tailName() string { return persist.FileName(persist.WALFile, fs.tailSeq) }

// firstWAL returns the lowest segment sequence at or above min that sm
// lists.
func firstWAL(sm StoreManifest, min uint64) (seq uint64, ok bool) {
	for _, file := range sm.Files {
		kind, n, _ := persist.ParseFileName(file.Name)
		if kind == persist.WALFile && n >= min && (!ok || n < seq) {
			seq, ok = n, true
		}
	}
	return seq, ok
}

// syncStore runs one store's round: ship missing bytes, restore once a
// snapshot is fully local, pump complete records into the hooks, prune
// what the primary has compacted away.
func (f *Follower) syncStore(ctx context.Context, fs *followerStore, sm StoreManifest) (progressed bool, lag Lag, err error) {
	if !fs.inited {
		if err := f.initStore(fs); err != nil {
			return false, Lag{}, err
		}
	}
	fs.unlisted = len(sm.Files) == 0
	shipped, err := f.ship(ctx, fs, sm)
	if err != nil {
		return shipped, Lag{}, err
	}
	progressed = shipped
	if !fs.restored {
		if err := f.restore(fs, sm); err != nil {
			return progressed, Lag{}, err
		}
		progressed = progressed || fs.restored
	}
	if fs.restored {
		applied, err := f.pump(fs, sm)
		if err != nil {
			return progressed, Lag{}, err
		}
		progressed = progressed || applied
		if err := f.prune(fs, sm); err != nil {
			return progressed, Lag{}, err
		}
	}
	return progressed, f.lagOf(fs, sm), nil
}

// prune deletes the mirrored files the primary has compacted away: those
// the manifest no longer lists whose sequence is below the segment being
// tailed. Every record in them is applied, and the primary itself can no
// longer recover from them, so a promotion from the mirror never needs
// them either.
func (f *Follower) prune(fs *followerStore, sm StoreManifest) error {
	listed := make(map[string]bool, len(sm.Files))
	for _, file := range sm.Files {
		listed[file.Name] = true
	}
	//durlint:ignore maporder removal order is irrelevant
	for name := range fs.copied {
		if _, seq, _ := persist.ParseFileName(name); listed[name] || seq >= fs.tailSeq {
			continue
		}
		if err := f.cfg.FS.Remove(filepath.Join(fs.dir, name)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("replicate: %w", err)
		}
		delete(fs.copied, name)
	}
	return nil
}

// initStore prepares the local mirror directory and, after a follower
// restart, adopts bytes already shipped by the previous process.
func (f *Follower) initStore(fs *followerStore) error {
	if err := f.cfg.FS.MkdirAll(fs.dir, 0o755); err != nil {
		return fmt.Errorf("replicate: %w", err)
	}
	files, err := persist.ListDir(f.cfg.FS, fs.dir)
	if err != nil {
		return fmt.Errorf("replicate: %w", err)
	}
	for _, file := range files {
		fs.copied[file.Name] = file.Size
	}
	fs.inited = true
	return nil
}

// ship copies every manifest byte the mirror lacks, and truncates local
// files the source has truncated (the primary repairing its own torn
// tail during crash recovery).
func (f *Follower) ship(ctx context.Context, fs *followerStore, sm StoreManifest) (progressed bool, err error) {
	var copyLag int64
	for _, file := range sm.Files {
		if err := validNames(sm.Name, file.Name); err != nil {
			return progressed, err
		}
		local := fs.copied[file.Name]
		high := local // previous high-water mark, for progress accounting
		if file.Size < high {
			progressed = true // the source shrank; mirroring that is progress
		}
		// Bytes past the tailer's committed offset are shipped but not
		// yet CRC-verified: a primary that crashed mid-write truncates
		// and rewrites exactly that suffix during its own recovery, so
		// never trust it across rounds — drop it and re-ship from the
		// verified boundary. The suffix is at most one partial frame,
		// so in steady state this truncates and re-fetches nothing.
		verified := local
		if fs.tailer != nil && file.Name == fs.tailName() && fs.tailer.Offset() < verified {
			verified = fs.tailer.Offset()
		}
		if file.Size < verified {
			// The source rewound this file below bytes we parsed and
			// applied: replicated history was rewritten under us.
			return progressed, fmt.Errorf("replicate: %s/%s shrank to %d below verified offset %d — replicated history rewritten",
				sm.Name, file.Name, file.Size, verified)
		}
		if local > verified || local > file.Size {
			cut := verified
			if file.Size < cut {
				cut = file.Size
			}
			h, err := f.cfg.FS.OpenFile(filepath.Join(fs.dir, file.Name), os.O_RDWR, 0)
			if err != nil {
				return progressed, fmt.Errorf("replicate: %w", err)
			}
			terr := h.Truncate(cut)
			h.Close()
			if terr != nil {
				return progressed, fmt.Errorf("replicate: %w", terr)
			}
			local = cut
			fs.copied[file.Name] = local
		}
		if _, mirrored := fs.copied[file.Name]; file.Size > local || !mirrored {
			// An empty file is mirrored too: a sealed empty segment is
			// history that pump must refuse, not wait for.
			n, err := f.shipFile(ctx, fs, sm.Name, file, local)
			fs.copied[file.Name] = local + n
			copyLag += file.Size - (local + n)
			// Only a new high-water mark is progress: re-shipping the
			// same unverified suffix round after round (a dead source's
			// torn tail) must let Drain's no-progress exit fire.
			if local+n > high {
				progressed = true
			}
			if err != nil {
				fs.copyLag = copyLag
				return progressed, err
			}
		}
	}
	fs.copyLag = copyLag
	return progressed, nil
}

// shipFile appends the [local, file.Size) range of one source file to
// its mirror, returning how many bytes landed.
func (f *Follower) shipFile(ctx context.Context, fs *followerStore, store string, file persist.FileInfo, local int64) (int64, error) {
	h, err := f.cfg.FS.OpenFile(filepath.Join(fs.dir, file.Name), os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return 0, fmt.Errorf("replicate: %w", err)
	}
	defer h.Close()
	if _, err := h.Seek(local, 0); err != nil {
		return 0, fmt.Errorf("replicate: %w", err)
	}
	var n int64
	for local+n < file.Size {
		if ctx.Err() != nil {
			return n, transientError{ctx.Err()}
		}
		want := file.Size - (local + n)
		if want > f.cfg.ChunkBytes {
			want = f.cfg.ChunkBytes
		}
		b, err := f.cfg.Source.Fetch(ctx, store, file.Name, local+n, want)
		if err != nil {
			return n, transientError{err}
		}
		if len(b) == 0 {
			// The source has fewer bytes than its manifest promised —
			// a stale manifest racing compaction. Retry next round.
			return n, nil
		}
		if int64(len(b)) > want {
			b = b[:want]
		}
		if _, err := h.Write(b); err != nil {
			return n, fmt.Errorf("replicate: %w", err)
		}
		n += int64(len(b))
	}
	if n > 0 {
		if err := h.Sync(); err != nil {
			return n, fmt.Errorf("replicate: %w", err)
		}
	}
	return n, nil
}

// restore picks the newest fully-shipped snapshot and hands it to the
// store's Restore hook, positioning the tail at the matching segment.
// With snapshots in the manifest but none fully local yet, it waits;
// with none at all, it restores empty genesis and tails from the first
// segment.
func (f *Follower) restore(fs *followerStore, sm StoreManifest) error {
	var bestSnap uint64
	haveSnaps := false
	for _, file := range sm.Files {
		kind, seq, _ := persist.ParseFileName(file.Name)
		if kind != persist.SnapFile {
			continue
		}
		haveSnaps = true
		if fs.copied[file.Name] == file.Size && seq > bestSnap {
			bestSnap = seq
		}
	}
	if haveSnaps && bestSnap == 0 {
		return nil // snapshots exist but none fully shipped yet; wait
	}
	seq, ok := firstWAL(sm, bestSnap)
	if !ok {
		return nil // nothing at all yet, or snap-N durable but wal-N not listed yet
	}
	if bestSnap > 0 {
		name := persist.FileName(persist.SnapFile, bestSnap)
		if err := fs.hooks.Restore(filepath.Join(fs.dir, name), true); err != nil {
			return fmt.Errorf("replicate: restoring %s: %w", name, err)
		}
	} else {
		if err := fs.hooks.Restore("", false); err != nil {
			return fmt.Errorf("replicate: restoring genesis: %w", err)
		}
	}
	fs.restored = true
	fs.tailSeq = seq
	return nil
}

// pump applies every complete record available locally, advancing to
// the next segment when the current one is sealed (a newer segment
// exists and every manifest byte of this one is parsed). Segment
// boundaries are verified against the LSN chain: the next segment must
// begin exactly where this one ended, so falling behind compaction is
// an error, never a silent gap.
func (f *Follower) pump(fs *followerStore, sm StoreManifest) (progressed bool, err error) {
	sizeOf := func(name string) (int64, bool) {
		for _, file := range sm.Files {
			if file.Name == name {
				return file.Size, true
			}
		}
		return 0, false
	}
	for {
		if fs.tailer == nil {
			if _, ok := fs.copied[fs.tailName()]; !ok {
				return progressed, nil // not shipped yet
			}
			t, err := persist.OpenTailer(f.cfg.FS, filepath.Join(fs.dir, fs.tailName()))
			if err != nil {
				return progressed, err
			}
			fs.tailer = t
			fs.startChecked = false
		}
		for {
			lsn, ev, ok, err := fs.tailer.Next()
			if errors.Is(err, persist.ErrBadFrame) {
				// Recovery ends the final segment at a bad frame as at a
				// torn one, and refuses one in an earlier segment: wait
				// here likewise, and the sealed-segment check refuses.
				err = nil
			}
			if !fs.startChecked {
				// The header's LSN, once parsed, is checked before any
				// record, as recovery checks it; an empty segment's too.
				first := fs.tailer.NextLSN()
				if ok {
					first = lsn
				}
				if first > 0 {
					if fs.expectNext > 0 && first != fs.expectNext {
						return progressed, fmt.Errorf("replicate: %s/%s starts at lsn %d, expected %d — fell behind the primary's compaction; restart the follower with a fresh mirror",
							fs.name, fs.tailName(), first, fs.expectNext)
					}
					fs.startChecked = true
				}
			}
			if err != nil {
				return progressed, err
			}
			if !ok {
				break
			}
			if err := fs.hooks.Apply(lsn, ev); err != nil {
				return progressed, fmt.Errorf("replicate: applying %s lsn %d: %w", fs.name, lsn, err)
			}
			fs.applied = lsn
			progressed = true
		}
		if fs.tailer.NextLSN() > fs.applied+1 {
			// Records before the segment's first LSN are covered by the
			// restored snapshot; count them as applied for lag purposes.
			fs.applied = fs.tailer.NextLSN() - 1
		}
		next, ok := firstWAL(sm, fs.tailSeq+1)
		if !ok {
			return progressed, nil // still on the live segment
		}
		msize, known := sizeOf(fs.tailName())
		if known && fs.copied[fs.tailName()] < msize {
			return progressed, nil // current segment not fully shipped yet
		}
		if known && (fs.tailer.NextLSN() == 0 || fs.tailer.Offset() < msize) {
			// Every byte is here and parsed up to a header or frame that
			// cannot complete: a newer segment exists, so no write will
			// finish it. Recovery refuses the same directory.
			return progressed, fmt.Errorf("replicate: %s/%s: torn at offset %d of a sealed %d-byte segment — history is incomplete",
				fs.name, fs.tailName(), fs.tailer.Offset(), msize)
		}
		if n := fs.tailer.NextLSN(); n > 0 {
			fs.expectNext = n
		}
		fs.tailer.Close()
		fs.tailer = nil
		fs.tailSeq = next
	}
}

// lagOf computes the store's lag against the manifest just synced.
func (f *Follower) lagOf(fs *followerStore, sm StoreManifest) Lag {
	lag := Lag{AppliedLSN: fs.applied, Restored: fs.restored}
	for _, file := range sm.Files {
		kind, seq, _ := persist.ParseFileName(file.Name)
		if kind != persist.WALFile {
			continue
		}
		switch {
		case !fs.restored:
			lag.Bytes += file.Size
		case seq > fs.tailSeq:
			lag.Bytes += file.Size
		case seq == fs.tailSeq && fs.tailer != nil:
			if off := fs.tailer.Offset(); off < file.Size {
				lag.Bytes += file.Size - off
			}
		case seq == fs.tailSeq && fs.tailer == nil:
			lag.Bytes += file.Size
		}
	}
	if sm.NextLSN > 0 {
		lag.SourceLSN = sm.NextLSN - 1
		if fs.restored && lag.SourceLSN > fs.applied {
			lag.Records = lag.SourceLSN - fs.applied
		}
	}
	return lag
}
