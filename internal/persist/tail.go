package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// This file is the replication surface of the store: a consistent listing
// of its files for a shipper to copy, and a Tailer that parses complete
// records out of a segment as bytes arrive — the follower's read path.

// FileInfo names one store file and its size.
type FileInfo struct {
	Name string
	Size int64
}

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

// Tailer incrementally parses records out of one WAL segment file that
// another process (a shipper) is appending to, from the segment's first
// record, as a DURWAL2 segment's gob stream requires. Next returns
// records as they become complete; an incomplete tail is "not ready yet", never an
// error, because more bytes may still arrive. Bytes already parsed are
// immutable by the append-only contract, so a checksum failure on a
// complete frame is real corruption.
type Tailer struct {
	fsys FS
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
	return &Tailer{fsys: fsys, path: path, f: f}, nil
}

// size returns the current byte length of the underlying file.
func (t *Tailer) size() (int64, error) {
	st, err := t.f.Stat()
	if err != nil {
		return 0, fmt.Errorf("persist: %w", err)
	}
	return st.Size(), nil
}

// readAt fills buf from the given offset.
func (t *Tailer) readAt(buf []byte, off int64) error {
	if _, err := t.f.Seek(off, io.SeekStart); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if _, err := io.ReadFull(t.f, buf); err != nil {
		return fmt.Errorf("persist: %s: %w", t.path, err)
	}
	return nil
}

// Next parses the next complete record. ok == false means the segment
// currently ends mid-frame (or before its header): call again after more
// bytes have been shipped. err reports genuine corruption — a bad magic,
// a checksum failure on a complete frame, or a broken LSN chain.
func (t *Tailer) Next() (lsn int64, ev any, ok bool, err error) {
	size, err := t.size()
	if err != nil {
		return 0, nil, false, err
	}
	if t.dec == nil {
		headerLen := int64(len(walMagic) + 8)
		if size < headerLen {
			return 0, nil, false, nil
		}
		header := make([]byte, headerLen)
		if err := t.readAt(header, 0); err != nil {
			return 0, nil, false, err
		}
		dec, err := segmentFormat(t.path, header[:len(walMagic)])
		if err != nil {
			return 0, nil, false, err
		}
		t.dec = dec
		t.next = int64(binary.LittleEndian.Uint64(header[len(walMagic):]))
		t.off = headerLen
	}
	if size < t.off {
		return 0, nil, false, fmt.Errorf("persist: %s shrank below parsed offset %d — replicated history rewritten", t.path, t.off)
	}
	if size < t.off+frameHeaderLen {
		return 0, nil, false, nil
	}
	header := make([]byte, frameHeaderLen)
	if err := t.readAt(header, t.off); err != nil {
		return 0, nil, false, err
	}
	length := binary.LittleEndian.Uint32(header[0:])
	if length > maxRecordBytes {
		return 0, nil, false, fmt.Errorf("persist: %s: record at %d has impossible length %d", t.path, t.off, length)
	}
	if size < t.off+frameHeaderLen+int64(length) {
		return 0, nil, false, nil
	}
	payload := make([]byte, length)
	if err := t.readAt(payload, t.off+frameHeaderLen); err != nil {
		return 0, nil, false, err
	}
	crc := crc32.Update(0, crcTable, header[8:])
	crc = crc32.Update(crc, crcTable, payload)
	if crc != binary.LittleEndian.Uint32(header[4:]) {
		return 0, nil, false, fmt.Errorf("persist: %s: checksum failure on complete record at %d", t.path, t.off)
	}
	lsn = int64(binary.LittleEndian.Uint64(header[8:]))
	if lsn != t.next {
		return 0, nil, false, fmt.Errorf("persist: %s: record carries lsn %d, expected %d", t.path, lsn, t.next)
	}
	ev, err = t.dec.decode(payload)
	if err != nil {
		return 0, nil, false, fmt.Errorf("persist: %s: decoding record lsn %d: %w", t.path, lsn, err)
	}
	t.off += frameHeaderLen + int64(length)
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
