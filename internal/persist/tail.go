package persist

import (
	"errors"
	"fmt"
	"io"
	"os"
)

// This file is the replication surface of the store: a consistent listing
// of its files for a shipper to copy, and a Tailer that parses complete
// records out of a segment as bytes arrive — the follower's read path.

// Listing is a point-in-time view of the store's snapshot and WAL files.
// The live segment's size is reported at the last complete record
// boundary, so a shipper copying up to Size never captures half a frame
// the primary is still writing.
type Listing struct {
	Files   []FileInfo
	NextLSN int64 // LSN the next Append will take; NextLSN-1 is the last durable record
}

// Listing reads the store's own file bookkeeping under the store lock;
// it touches no file. It is only valid after Recover.
func (s *Store) Listing() (Listing, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.recovered {
		return Listing{}, errors.New("persist: Listing before Recover")
	}
	out := Listing{NextLSN: s.nextLSN, Files: make([]FileInfo, 0, len(s.snaps)+len(s.wals))}
	for _, f := range s.snaps {
		out.Files = append(out.Files, f.FileInfo)
	}
	for _, f := range s.wals {
		if f.seq == s.seq {
			f.Size = s.walBytes // live segment: walBytes is maintained at frame boundaries
		}
		out.Files = append(out.Files, f.FileInfo)
	}
	return out, nil
}

// LastLSN returns the sequence number of the last appended record (0 when
// the store has never taken one). A follower that has applied up to
// LastLSN holds everything the primary wrote.
func (s *Store) LastLSN() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextLSN - 1
}

// ReadSnapshotFile decodes a snapshot file into snap. ok == false with a
// nil error means the file is missing, incomplete or fails its checksum.
// A nil fsys reads through OSFS.
func ReadSnapshotFile(fsys FS, path string, snap any) (ok bool, err error) {
	if fsys == nil {
		fsys = OSFS
	}
	return readSnapshot(fsys, path, snap)
}

// ErrBadFrame is the error Tailer.Next wraps for a complete frame that
// fails its length cap or checksum. Recovery reads such a frame in a
// store's final segment as a crash footprint and truncates it there.
var ErrBadFrame = errors.New("fails its length cap or checksum")

// Tailer incrementally parses records out of one WAL segment file that
// another process (a shipper) is appending to, from the segment's first
// record, as a DURWAL2 segment's gob stream requires. Next returns
// records as they become complete; an incomplete tail is "not ready yet", never an
// error, because more bytes may still arrive. Bytes already parsed are
// immutable by the append-only contract, so a checksum failure on a
// complete frame is real corruption.
type Tailer struct {
	path string
	f    File

	dec  *segmentDecoder // set once the segment header is parsed
	next int64           // LSN expected at off
	off  int64           // committed frame-boundary offset
}

// OpenTailer opens a segment for tailing. The file must exist; it may
// still be empty (even its header not yet shipped).
func OpenTailer(fsys FS, path string) (*Tailer, error) {
	if fsys == nil {
		fsys = OSFS
	}
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	return &Tailer{path: path, f: f}, nil
}

// Next parses the next complete record. ok == false means the segment
// currently ends mid-frame (or before its header): call again after more
// bytes have been shipped. err reports genuine corruption — a bad magic,
// a complete frame that fails its length cap or checksum, or a broken
// LSN chain.
func (t *Tailer) Next() (lsn int64, ev any, ok bool, err error) {
	st, err := t.f.Stat()
	if err != nil {
		return 0, nil, false, fmt.Errorf("persist: %w", err)
	}
	size := st.Size()
	if size < t.off {
		return 0, nil, false, fmt.Errorf("persist: %s shrank below parsed offset %d — replicated history rewritten", t.path, t.off)
	}
	if _, err := t.f.Seek(t.off, io.SeekStart); err != nil {
		return 0, nil, false, fmt.Errorf("persist: %w", err)
	}
	if t.dec == nil {
		dec, first, ok, err := readSegmentHeader(t.f, size, t.path)
		if !ok {
			return 0, nil, false, err
		}
		t.dec, t.next, t.off = dec, first, segmentHeaderLen
	}
	ev, n, status, err := readRecord(t.f, size-t.off, t.next, t.dec)
	switch {
	case err != nil:
		return 0, nil, false, fmt.Errorf("persist: %s: record at %d (lsn %d): %w", t.path, t.off, t.next, err)
	case status == frameShort:
		return 0, nil, false, nil
	case status == frameBad:
		return 0, nil, false, fmt.Errorf("persist: %s: the complete record at %d %w", t.path, t.off, ErrBadFrame)
	}
	lsn = t.next
	t.off += n
	t.next++
	return lsn, ev, true, nil
}

// Offset returns the committed frame-boundary offset reached so far.
func (t *Tailer) Offset() int64 { return t.off }

// NextLSN returns the LSN the next complete record will carry (0 until
// the segment header has been parsed).
func (t *Tailer) NextLSN() int64 { return t.next }

// Close releases the underlying file.
func (t *Tailer) Close() error { return t.f.Close() }
