// Package persist is the durability substrate for serving state: a
// snapshot + write-ahead-log store that lets a serving process survive
// crashes and deploys without discarding the amortized state its whole
// value rests on — standing subscriptions, their surviving root-path
// batches (the g-MLSS sufficient statistics), live-state clocks and warm
// level plans.
//
// The design is the classical checkpoint/redo-log pair. The WAL records
// *logical* events, not physical state diffs: registrations, closes, and
// for every subscribe and publish tick what each refresh decided — the
// plan it resolved, the fresh root batches it simulated (their g-MLSS
// counters and moments), how it ended. Replaying the tail installs those
// outcomes through the engine's own refresh code without searching or
// simulating again, so the recovered in-memory state is bit-for-bit the
// pre-crash one even where a live refresh failed. Recovery is
//
//	state = decode(latest valid snapshot) + replay(WAL tail)
//
// Each WAL record is independently framed (length, CRC, sequence number,
// gob payload) so a torn final record — the normal shape of a crash mid-
// write — is detected and the log cleanly truncated to the last complete
// entry. A segment's payloads continue one gob stream, so each type's
// descriptors are written once per segment rather than once per record
// (see wal.go). Snapshots are written to a temp file and atomically
// renamed, and are CRC-guarded, so a crash mid-checkpoint can never leave
// a half snapshot as the latest: recovery falls back to the previous
// generation, whose WAL is only compacted away after the next snapshot is
// durable.
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
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
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
	walMagic   = []byte("DURWAL2\n") // the payloads of a segment continue one gob stream
	walMagicV1 = []byte("DURWAL1\n") // every payload its own gob stream; read, never written
	snapMagic  = []byte("DURSNP1\n")
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
	enc       *segmentEncoder // the live segment's gob stream; nil when the next Append must start a fresh segment
	walBytes  int64
	walSince  time.Time // when the live segment took its first record
	walDirty  bool      // live segment holds at least one record
	appended  int64     // record frame bytes appended since Open
	sticky    error     // first append/IO failure; surfaced by Append and Checkpoint

	// snaps and wals are the snapshot and segment files on disk, in
	// sequence order. Recover lists the directory once; publish,
	// rotation and compaction keep them current, so Listing never scans
	// it. The live segment's entry lags its appends; walBytes is current.
	snaps, wals []storeFile
}

// storeFile is one snapshot or segment file on disk.
type storeFile struct {
	seq uint64
	FileInfo
}

// noteFile records a file and its size in a sequence-ordered list.
func noteFile(list []storeFile, seq uint64, name string, size int64) []storeFile {
	i, found := slices.BinarySearchFunc(list, seq, func(f storeFile, seq uint64) int { return cmp.Compare(f.seq, seq) })
	if found {
		list[i].Size = size
		return list
	}
	return slices.Insert(list, i, storeFile{seq, FileInfo{Name: name, Size: size}})
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

func (s *Store) snapPath(seq uint64) string { return filepath.Join(s.dir, FileName(SnapFile, seq)) }
func (s *Store) walPath(seq uint64) string  { return filepath.Join(s.dir, FileName(WALFile, seq)) }

// diskFiles lists the directory's snapshot and segment files, each list
// in sequence order, with their sizes: the one scan Recover makes, which
// the store's own bookkeeping stands in for afterwards.
func (s *Store) diskFiles() (snaps, wals []storeFile, err error) {
	files, err := ListDir(s.fs, s.dir)
	if err != nil {
		return nil, nil, err
	}
	for _, f := range files {
		kind, seq, _ := ParseFileName(f.Name)
		if kind == SnapFile {
			snaps = append(snaps, storeFile{seq, f})
		} else {
			wals = append(wals, storeFile{seq, f})
		}
	}
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
// record *before* the end, a CRC mismatch mid-segment, a segment that
// does not start where the one before it ended) is an error: it
// means history was lost, and serving from a silently gappy history would
// break the determinism guarantee recovery exists to uphold.
func (s *Store) Recover(snap any, prepare func(found bool) error, apply func(lsn int64, ev any) error) (found bool, replayed int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.recovered {
		return false, 0, errors.New("persist: Recover called twice")
	}

	snaps, wals, err := s.diskFiles()
	if err != nil {
		return false, 0, err
	}

	// Latest CRC-valid snapshot wins; earlier generations are the
	// fallback when the newest write never completed its rename or its
	// payload fails the checksum.
	for i := len(snaps) - 1; i >= 0; i-- {
		ok, derr := readSnapshot(s.fs, s.snapPath(snaps[i].seq), snap)
		if derr != nil {
			return false, 0, derr
		}
		if ok {
			found = true
			s.snapSeq = snaps[i].seq
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
	// Each segment after the first replayed one must start where the
	// one before it ended: a missing segment is lost history.
	s.nextLSN = 1
	want := int64(0)
	for wi, w := range wals {
		if w.seq < s.snapSeq {
			continue
		}
		last := wi == len(wals)-1
		n, next, err := s.replaySegment(w, last, want, apply)
		if err != nil {
			return found, replayed, err
		}
		replayed += n
		if next > 0 {
			s.nextLSN, want = next, next
		}
	}

	// Append into the newest existing segment, or open the first one.
	// Only that segment can have changed size since the scan (truncated,
	// or created), and opening it lists it afresh.
	s.snaps, s.wals = snaps, wals
	seq := s.snapSeq
	if len(wals) > 0 && wals[len(wals)-1].seq > seq {
		seq = wals[len(wals)-1].seq
	}
	if seq == 0 {
		seq = 1
	}
	if err := s.openSegmentLocked(seq); err != nil {
		return found, replayed, err
	}
	s.recovered = true
	return found, replayed, nil
}

// replaySegment reads one WAL segment, of the size the directory scan
// found, calling apply per record. Only the final segment may end torn —
// in its header (a crash during rotation, before the segment took a
// record) or in a record — and is truncated to its last complete record;
// it returns the record count and the LSN following the last applied
// record (0 when the header is torn). A positive want is the LSN the
// segment must start at.
func (s *Store) replaySegment(w storeFile, last bool, want int64, apply func(lsn int64, ev any) error) (n int, nextLSN int64, err error) {
	path := s.walPath(w.seq)
	f, err := s.fs.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return 0, 0, fmt.Errorf("persist: %w", err)
	}
	defer f.Close()

	seg, err := readSegment(f, w.Size, path, want, apply)
	if err != nil {
		return seg.n, 0, err
	}
	if seg.stop != frameOK {
		// The expected crash footprint at the end of the final segment;
		// anywhere else it is lost history.
		if !last {
			return seg.n, 0, fmt.Errorf("persist: %s: torn record %d in a non-final segment — history is incomplete", path, seg.n)
		}
		if err := f.Truncate(seg.end); err != nil {
			return seg.n, 0, fmt.Errorf("persist: truncating torn tail of %s: %w", path, err)
		}
	}
	return seg.n, seg.next, nil
}

// openSegmentLocked makes seq the live segment: it opens the file, or
// creates it with a header carrying the next LSN, and primes the trigger
// bookkeeping. A segment that holds no records starts a fresh gob
// stream. One that already does (recovered from disk), or that an
// earlier build wrote as DURWAL1, leaves enc nil, so the next Append
// starts a fresh segment: an encoder cannot continue a stream it did not
// write.
func (s *Store) openSegmentLocked(seq uint64) error {
	f, err := s.fs.OpenFile(s.walPath(seq), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	size, fresh, err := s.prepareSegment(f)
	if err != nil {
		// The file exists now, whatever it holds; list it as it is.
		if st, serr := f.Stat(); serr == nil {
			s.wals = noteFile(s.wals, seq, FileName(WALFile, seq), st.Size())
		}
		f.Close()
		return fmt.Errorf("persist: %w", err)
	}
	if s.wal != nil {
		s.wals = noteFile(s.wals, s.seq, FileName(WALFile, s.seq), s.walBytes)
		s.wal.Close()
	}
	s.wal, s.seq = f, seq
	s.wals = noteFile(s.wals, seq, FileName(WALFile, seq), size)
	s.enc = nil
	if fresh {
		s.enc = newSegmentEncoder()
	}
	s.walBytes = size
	s.walDirty = size > segmentHeaderLen
	s.walSince = time.Now()
	return nil
}

// prepareSegment readies an opened segment for appending: it writes the
// header of an empty segment, or positions at the end of an existing
// one. It reports the segment's size and whether it can take a fresh gob
// stream (a DURWAL2 header and no records).
func (s *Store) prepareSegment(f File) (size int64, fresh bool, err error) {
	st, err := f.Stat()
	if err != nil {
		return 0, false, err
	}
	size = st.Size()
	if size > 0 && size < segmentHeaderLen {
		// A crash tore the header write of a segment that never took a
		// record (Recover truncates this shape to 0 for the final
		// segment); start it over rather than appending after garbage.
		if err := f.Truncate(0); err != nil {
			return 0, false, err
		}
		size = 0
	}
	if size == 0 {
		header := make([]byte, segmentHeaderLen)
		copy(header, walMagic)
		binary.LittleEndian.PutUint64(header[len(walMagic):], uint64(s.nextLSN))
		if _, err := f.Write(header); err != nil {
			return 0, false, err
		}
		return segmentHeaderLen, true, nil
	}
	if size == segmentHeaderLen {
		magic := make([]byte, len(walMagic))
		if _, err := io.ReadFull(f, magic); err != nil {
			return 0, false, err
		}
		fresh = bytes.Equal(magic, walMagic)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		return 0, false, err
	}
	return size, fresh, nil
}

// rotateLocked seals the live segment, synced so that no crash can lose
// records the next segment's history follows, and starts the next one.
func (s *Store) rotateLocked() error {
	if err := s.wal.Sync(); err != nil {
		return fmt.Errorf("persist: syncing %s: %w", s.wal.Name(), err)
	}
	return s.openSegmentLocked(s.seq + 1)
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
	if s.enc == nil {
		// The live segment's stream is not this encoder's to continue
		// (see openSegmentLocked), or a failed encode broke it.
		if err := s.rotateLocked(); err != nil {
			return 0, err
		}
	}
	lsn := s.nextLSN
	frame, err := s.enc.frame(lsn, ev)
	if err != nil {
		// The stream may have marked descriptors as sent that no
		// record carries: the next record starts a fresh segment.
		s.enc = nil
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
	s.appended += int64(len(frame))
	s.nextLSN++
	return lsn, nil
}

// AppendedBytes reports the record frame bytes Append has written since
// Open — segment headers excluded, so the count is a function of the
// records alone.
func (s *Store) AppendedBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appended
}

// NeedCheckpoint reports whether the live segment has outgrown the size
// trigger or outlived the age trigger. Lineage.CheckpointIfDue checks it
// once a tick's appends are done, so an idle store's age trigger fires
// at its next tick.
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
	if err := s.rotateLocked(); err != nil {
		s.mu.Unlock()
		return err
	}
	newSeq := s.seq
	s.mu.Unlock()

	snap, err := assemble()
	if err != nil {
		// The rotation stands — harmless: the old snapshot plus both
		// segments still replay to the live state.
		return fmt.Errorf("persist: assembling snapshot: %w", err)
	}
	size, err := writeSnapshot(s.fs, s.snapPath(newSeq), snap)
	if err != nil {
		return err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.snaps = noteFile(s.snaps, newSeq, FileName(SnapFile, newSeq), size)
	s.snapSeq = newSeq
	s.compactLocked()
	return nil
}

// compactLocked deletes generations older than the newest Keep. A
// segment is deleted only when a strictly newer durable snapshot exists,
// so recovery never needs a file compaction removed.
func (s *Store) compactLocked() {
	n := len(s.snaps)
	if n == 0 {
		return
	}
	floor := s.snaps[max(n-s.opts.Keep, 0)].seq
	s.snaps = s.removeBelow(s.snaps, floor, s.snapPath)
	// wal-N holds the events after snap-N; it is dead once a newer
	// snapshot is durable.
	s.wals = s.removeBelow(s.wals, min(floor, s.snapSeq), s.walPath)
}

// removeBelow deletes the files of list below sequence floor and returns
// those still on disk. Compaction is best-effort: a file whose Remove
// failed stays listed, costs only disk, and is retried next time.
func (s *Store) removeBelow(list []storeFile, floor uint64, path func(uint64) string) []storeFile {
	kept := list[:0]
	for _, f := range list {
		if f.seq < floor {
			if err := s.fs.Remove(path(f.seq)); err == nil || errors.Is(err, os.ErrNotExist) {
				continue
			}
		}
		kept = append(kept, f)
	}
	return kept
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
