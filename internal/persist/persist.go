// Package persist is the durability substrate for serving state: a
// snapshot + write-ahead-log store that lets a serving process survive
// crashes and deploys without discarding the amortized state its whole
// value rests on — standing subscriptions, their surviving root-path
// batches (the g-MLSS sufficient statistics), live-state clocks and warm
// level plans.
//
// The design is the classical checkpoint/redo-log pair, specialised by
// one property of this repository: every serving mutation is
// deterministic given the prior state (root path i draws substream i,
// plan searches are pure functions of their cache key and the searching
// state, moment folds run in root order). The WAL therefore
// records *logical* events — subscribe, close, publish ticks — not
// physical state diffs: replaying the tail re-runs the same refresh code
// live traffic ran, and determinism guarantees the recovered in-memory
// state is bit-for-bit the pre-crash one. Recovery is
//
//	state = decode(latest valid snapshot) + replay(WAL tail)
//
// Each WAL record is independently framed (length, CRC, sequence number,
// gob payload) so a torn final record — the normal shape of a crash mid-
// write — is detected and the log cleanly truncated to the last complete
// entry. Snapshots are written to a temp file and atomically renamed, and
// are CRC-guarded, so a crash mid-checkpoint can never leave a half
// snapshot as the latest: recovery falls back to the previous generation,
// whose WAL is only compacted away after the next snapshot is durable.
//
// Concurrency contract with the serving layers: appends may race a
// checkpoint. Checkpoint rotates the log *before* assembling the
// snapshot, so no event can land in a segment that is about to be
// deleted; events that land in the new segment while the snapshot is
// assembled are also captured by it, and the per-stream sequence numbers
// carried inside the snapshot (see internal/stream.StreamState.LSN) let
// replay skip exactly those double-covered events.
package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Defaults for Options fields left zero.
const (
	// DefaultMaxWALBytes triggers a checkpoint once the live segment
	// outgrows it; replay cost is proportional to segment size, so this
	// bounds recovery time.
	DefaultMaxWALBytes = 4 << 20
	// DefaultMaxWALAge triggers a checkpoint once the live segment has
	// been collecting events this long, bounding recovery of a low-rate
	// server whose log grows slowly.
	DefaultMaxWALAge = 5 * time.Minute
	// DefaultKeep is how many checkpoint generations compaction retains.
	DefaultKeep = 1
)

// maxRecordBytes bounds a single WAL record; a length prefix beyond it is
// treated as corruption rather than an allocation request.
const maxRecordBytes = 1 << 30

var (
	walMagic  = []byte("DURWAL1\n")
	snapMagic = []byte("DURSNP1\n")
)

// crcTable is the Castagnoli polynomial, hardware-accelerated on the
// platforms this serves from.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Options tunes a Store. The zero value selects every default.
type Options struct {
	MaxWALBytes int64         // checkpoint trigger: live-segment size (default DefaultMaxWALBytes)
	MaxWALAge   time.Duration // checkpoint trigger: live-segment age (default DefaultMaxWALAge)
	Keep        int           // checkpoint generations retained by compaction (default DefaultKeep)
	FS          FS            // filesystem seam (default OSFS); tests inject faults here
}

func (o Options) withDefaults() Options {
	if o.MaxWALBytes <= 0 {
		o.MaxWALBytes = DefaultMaxWALBytes
	}
	if o.MaxWALAge <= 0 {
		o.MaxWALAge = DefaultMaxWALAge
	}
	if o.Keep <= 0 {
		o.Keep = DefaultKeep
	}
	if o.FS == nil {
		o.FS = OSFS
	}
	return o
}

// Store is one serving process's durable state directory: numbered
// snapshot generations (snap-N) paired with WAL segments (wal-N holds the
// events after snap-N). A Store is safe for concurrent use. The lifecycle
// is Open → Recover (exactly once, even on a fresh directory) → any mix
// of Append / Checkpoint / NeedCheckpoint → Close.
type Store struct {
	dir  string
	opts Options
	fs   FS

	mu        sync.Mutex
	recovered bool
	seq       uint64 // segment currently appended to
	snapSeq   uint64 // latest durable snapshot generation (0 = none)
	nextLSN   int64
	wal       File
	walBytes  int64
	walSince  time.Time // when the live segment took its first record
	walDirty  bool      // live segment holds at least one record
	sticky    error     // first append/IO failure; surfaced by Append and Checkpoint
}

// Open prepares the directory (creating it if needed). No file is read
// until Recover.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, errors.New("persist: empty data directory")
	}
	opts = opts.withDefaults()
	if err := opts.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	return &Store{dir: dir, opts: opts, fs: opts.FS}, nil
}

func (s *Store) snapPath(seq uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("snap-%016d", seq))
}

func (s *Store) walPath(seq uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("wal-%016d", seq))
}

// scan lists the snapshot and segment sequence numbers present on disk.
func (s *Store) scan() (snaps, wals []uint64, err error) {
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("persist: %w", err)
	}
	for _, e := range entries {
		var seq uint64
		if n, _ := fmt.Sscanf(e.Name(), "snap-%d", &seq); n == 1 && e.Name() == fmt.Sprintf("snap-%016d", seq) {
			snaps = append(snaps, seq)
		}
		if n, _ := fmt.Sscanf(e.Name(), "wal-%d", &seq); n == 1 && e.Name() == fmt.Sprintf("wal-%016d", seq) {
			wals = append(wals, seq)
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	sort.Slice(wals, func(i, j int) bool { return wals[i] < wals[j] })
	return snaps, wals, nil
}

// Recover loads the latest valid snapshot into snap (a pointer to the
// caller's snapshot type), calls prepare (when non-nil) so the caller can
// rebuild its in-memory state from the decoded snapshot, and then replays
// every WAL event recorded after it through apply, in log order, passing
// each event's sequence number. It reports whether a snapshot was found
// (false on a fresh directory, whose replay count is 0) and leaves the
// store ready to Append.
//
// A torn final record — the footprint of a crash mid-write — ends replay
// cleanly at the last complete entry and is truncated away, so subsequent
// appends extend a well-formed log. Corruption anywhere else (a torn
// record *before* the end, a CRC mismatch mid-segment) is an error: it
// means history was lost, and serving from a silently gappy history would
// break the determinism guarantee recovery exists to uphold.
func (s *Store) Recover(snap any, prepare func(found bool) error, apply func(lsn int64, ev any) error) (found bool, replayed int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.recovered {
		return false, 0, errors.New("persist: Recover called twice")
	}

	snaps, wals, err := s.scan()
	if err != nil {
		return false, 0, err
	}

	// Latest CRC-valid snapshot wins; earlier generations are the
	// fallback when the newest write never completed its rename or its
	// payload fails the checksum.
	for i := len(snaps) - 1; i >= 0; i-- {
		ok, derr := readSnapshot(s.fs, s.snapPath(snaps[i]), snap)
		if derr != nil {
			return false, 0, derr
		}
		if ok {
			found = true
			s.snapSeq = snaps[i]
			break
		}
	}
	if prepare != nil {
		if err := prepare(found); err != nil {
			return found, 0, fmt.Errorf("persist: restoring snapshot state: %w", err)
		}
	}

	// Replay every segment at or after the chosen snapshot generation.
	// (A crash between rotation and snapshot write leaves wal-(N+1)
	// without snap-(N+1); recovery then starts from snap-N and must walk
	// both segments.)
	s.nextLSN = 1
	for wi, seq := range wals {
		if seq < s.snapSeq {
			continue
		}
		last := wi == len(wals)-1
		n, next, err := s.replaySegment(seq, last, apply)
		if err != nil {
			return found, replayed, err
		}
		replayed += n
		if next > 0 {
			s.nextLSN = next
		}
	}

	// Append into the newest existing segment, or open the first one.
	s.seq = s.snapSeq
	if len(wals) > 0 && wals[len(wals)-1] > s.seq {
		s.seq = wals[len(wals)-1]
	}
	if s.seq == 0 {
		s.seq = 1
	}
	if err := s.openSegmentLocked(s.seq); err != nil {
		return found, replayed, err
	}
	s.recovered = true
	return found, replayed, nil
}

// replaySegment reads one WAL segment, calling apply per record. Only the
// final segment may end in a torn record, which is truncated; it returns
// the record count and the LSN following the last applied record (0 when
// the segment is empty).
func (s *Store) replaySegment(seq uint64, last bool, apply func(lsn int64, ev any) error) (n int, nextLSN int64, err error) {
	path := s.walPath(seq)
	f, err := s.fs.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return 0, 0, fmt.Errorf("persist: %w", err)
	}
	defer f.Close()

	header := make([]byte, len(walMagic)+8)
	if _, err := io.ReadFull(f, header); err != nil {
		// A crash during rotation can tear the 16-byte header itself,
		// leaving a short final segment that never took a record. That is
		// a normal crash footprint: truncate it to empty and let
		// openSegmentLocked rewrite the header. A short header anywhere
		// but the final segment is lost history.
		if last && (err == io.EOF || err == io.ErrUnexpectedEOF) {
			if terr := f.Truncate(0); terr != nil {
				return 0, 0, fmt.Errorf("persist: truncating torn header of %s: %w", path, terr)
			}
			return 0, 0, nil
		}
		return 0, 0, fmt.Errorf("persist: %s: reading segment header: %w", path, err)
	}
	if !bytes.Equal(header[:len(walMagic)], walMagic) {
		return 0, 0, fmt.Errorf("persist: %s is not a WAL segment", path)
	}
	lsn := int64(binary.LittleEndian.Uint64(header[len(walMagic):]))
	offset := int64(len(header))

	r := &countingReader{r: f}
	for {
		ev, status, err := readRecord(r, lsn)
		if err != nil {
			return n, 0, fmt.Errorf("persist: %s: record %d (lsn %d): %w", path, n, lsn, err)
		}
		if status == readEOF {
			break
		}
		if status == readTorn {
			// A torn record at the end of the final segment is the
			// expected crash footprint: truncate to the last complete
			// record and carry on. Anywhere else it is lost history.
			if !last {
				return n, 0, fmt.Errorf("persist: %s: torn record %d in a non-final segment — history is incomplete", path, n)
			}
			if err := f.Truncate(offset); err != nil {
				return n, 0, fmt.Errorf("persist: truncating torn tail of %s: %w", path, err)
			}
			break
		}
		if apply != nil {
			if err := apply(lsn, ev); err != nil {
				return n, 0, fmt.Errorf("persist: applying lsn %d: %w", lsn, err)
			}
		}
		n++
		lsn++
		offset += r.n
		r.n = 0
	}
	return n, lsn, nil
}

// countingReader tracks bytes consumed, so truncation lands exactly after
// the last complete record.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// openSegmentLocked opens (or creates, with a header carrying the next
// LSN) the given segment for appending and primes the trigger bookkeeping.
func (s *Store) openSegmentLocked(seq uint64) error {
	path := s.walPath(seq)
	f, err := s.fs.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("persist: %w", err)
	}
	size := st.Size()
	if size > 0 && size < int64(len(walMagic)+8) {
		// A crash tore the header write of a segment that never took a
		// record (Recover truncates this shape to 0 for the final
		// segment); start it over rather than appending after garbage.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return fmt.Errorf("persist: %w", err)
		}
		size = 0
	}
	if size == 0 {
		header := make([]byte, len(walMagic)+8)
		copy(header, walMagic)
		binary.LittleEndian.PutUint64(header[len(walMagic):], uint64(s.nextLSN))
		if _, err := f.Write(header); err != nil {
			f.Close()
			return fmt.Errorf("persist: %w", err)
		}
		size = int64(len(header))
	} else if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return fmt.Errorf("persist: %w", err)
	}
	if s.wal != nil {
		s.wal.Close()
	}
	s.wal = f
	s.walBytes = size
	s.walDirty = size > int64(len(walMagic)+8)
	s.walSince = time.Now()
	return nil
}

// Append journals one event and returns its log sequence number. The
// event's concrete type must be gob-registered (it travels as an
// interface value). Writes go straight to the file — a killed process
// loses at most the record being written, which recovery detects and
// truncates — but are not fsynced per record; call Checkpoint for a
// durability point.
func (s *Store) Append(ev any) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.recovered {
		return 0, errors.New("persist: Append before Recover")
	}
	if s.sticky != nil {
		return 0, s.sticky
	}
	lsn := s.nextLSN
	frame, err := encodeRecord(lsn, ev)
	if err != nil {
		return 0, err
	}
	if _, err := s.wal.Write(frame); err != nil {
		s.sticky = fmt.Errorf("persist: appending to %s: %w", s.wal.Name(), err)
		return 0, s.sticky
	}
	if !s.walDirty {
		s.walSince = time.Now()
	}
	s.walDirty = true
	s.walBytes += int64(len(frame))
	s.nextLSN++
	return lsn, nil
}

// NeedCheckpoint reports whether the live segment has outgrown the size
// trigger or outlived the age trigger. The serving layer polls it after
// mutations and checkpoints outside its own locks.
func (s *Store) NeedCheckpoint() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.recovered || !s.walDirty {
		return false
	}
	return s.walBytes >= s.opts.MaxWALBytes || time.Since(s.walSince) >= s.opts.MaxWALAge
}

// Err returns the store's sticky I/O failure, if any — the trace of an
// append that could not be written (Subscription.Close, for one, cannot
// surface errors itself).
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sticky
}

// Checkpoint writes a new snapshot generation and compacts the log. The
// order is the correctness of the whole store:
//
//  1. rotate — a fresh segment starts taking appends, so nothing more
//     lands in segments the compaction below will delete;
//  2. assemble — the caller captures its state. Events appended after
//     rotation may or may not make it in; the sequence numbers inside the
//     snapshot let replay skip the ones that did;
//  3. publish — the snapshot is written, CRC-sealed, fsynced and
//     atomically renamed into place;
//  4. compact — older generations and their segments are deleted (the
//     newest Keep generations survive).
//
// assemble runs without store locks held, so live traffic keeps flowing
// through Append while the snapshot is taken.
func (s *Store) Checkpoint(assemble func() (any, error)) error {
	s.mu.Lock()
	if !s.recovered {
		s.mu.Unlock()
		return errors.New("persist: Checkpoint before Recover")
	}
	if s.sticky != nil {
		err := s.sticky
		s.mu.Unlock()
		return err
	}
	if err := s.wal.Sync(); err != nil {
		s.mu.Unlock()
		return fmt.Errorf("persist: syncing %s: %w", s.wal.Name(), err)
	}
	newSeq := s.seq + 1
	if err := s.openSegmentLocked(newSeq); err != nil {
		s.mu.Unlock()
		return err
	}
	s.seq = newSeq
	s.mu.Unlock()

	snap, err := assemble()
	if err != nil {
		// The rotation stands — harmless: the old snapshot plus both
		// segments still replay to the live state.
		return fmt.Errorf("persist: assembling snapshot: %w", err)
	}
	if err := writeSnapshot(s.fs, s.snapPath(newSeq), snap); err != nil {
		return err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.snapSeq = newSeq
	s.compactLocked()
	return nil
}

// compactLocked deletes generations older than the newest Keep. A
// segment is deleted only when a strictly newer durable snapshot exists,
// so recovery never needs a file compaction removed.
func (s *Store) compactLocked() {
	snaps, wals, err := s.scan()
	if err != nil {
		return // compaction is best-effort; stale files only cost disk
	}
	var floor uint64
	if n := len(snaps); n > s.opts.Keep {
		floor = snaps[n-s.opts.Keep]
	} else if n > 0 {
		floor = snaps[0]
	} else {
		return
	}
	for _, seq := range snaps {
		if seq < floor {
			s.fs.Remove(s.snapPath(seq))
		}
	}
	for _, seq := range wals {
		// wal-N holds the events after snap-N; it is dead once a newer
		// snapshot is durable.
		if seq < floor && seq < s.snapSeq {
			s.fs.Remove(s.walPath(seq))
		}
	}
}

// Close syncs and closes the live segment. The store is not usable after.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	//durlint:ignore locksafe final close: the store mutex serializes all WAL operations by design and nothing else runs after Close
	err := s.wal.Sync()
	if cerr := s.wal.Close(); err == nil {
		err = cerr
	}
	s.wal = nil
	return err
}

// Dir returns the store's data directory.
func (s *Store) Dir() string { return s.dir }
