package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// envelope wraps a WAL event so gob carries it as an interface value;
// concrete event types register themselves (internal/stream does, and
// front ends register their own).
type envelope struct {
	E any
}

// Segment and record layout:
//
//	segment: [8B magic][8B lsn of the first record][record]...
//	record:  [4B payload length][4B CRC32C of lsn+payload][8B lsn][payload]
//
// In a DURWAL2 segment the payloads are the successive messages of one
// gob stream, written by one encoder: the first record of each type
// carries that type's descriptors and later records carry only values,
// so a reader decodes a segment's records in order from its first. A
// torn frame fails its length or checksum before it reaches the
// decoder, so it never confuses the stream. In a DURWAL1 segment,
// written by earlier builds and still read, every payload is a
// self-contained gob stream.

const frameHeaderLen = 4 + 4 + 8

// keptRecordBuffer caps the frame buffer a segment encoder keeps
// between records; a rare larger record is framed in a buffer that is
// then dropped.
const keptRecordBuffer = 64 << 10

// segmentEncoder frames records into one DURWAL2 segment's gob stream.
type segmentEncoder struct {
	buf bytes.Buffer // the frame being built: header room, then the payload
	enc *gob.Encoder // writes into buf
}

func newSegmentEncoder() *segmentEncoder {
	e := &segmentEncoder{}
	e.enc = gob.NewEncoder(&e.buf)
	return e
}

// frame encodes ev as the stream's next message and returns the whole
// frame, which aliases the encoder's buffer until the next call. After
// an error the stream may have marked descriptors as sent that no
// written record carries, so the encoder must not be used again.
func (e *segmentEncoder) frame(lsn int64, ev any) ([]byte, error) {
	if e.buf.Cap() > keptRecordBuffer {
		e.buf = bytes.Buffer{}
	}
	e.buf.Reset()
	var room [frameHeaderLen]byte
	e.buf.Write(room[:])
	if err := e.enc.Encode(envelope{E: ev}); err != nil {
		return nil, fmt.Errorf("persist: encoding %T: %w", ev, err)
	}
	frame := e.buf.Bytes()
	binary.LittleEndian.PutUint32(frame[0:], uint32(len(frame)-frameHeaderLen))
	binary.LittleEndian.PutUint64(frame[8:], uint64(lsn))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Update(0, crcTable, frame[8:]))
	return frame, nil
}

// segmentDecoder decodes one segment's record payloads, in order.
type segmentDecoder struct {
	stream bool         // DURWAL2: the payloads continue one gob stream
	src    bytes.Reader // the payload the stream decoder reads next
	dec    *gob.Decoder
}

// segmentFormat reads a segment header's magic and returns the decoder
// for its records.
func segmentFormat(path string, magic []byte) (*segmentDecoder, error) {
	switch {
	case bytes.Equal(magic, walMagic):
		return &segmentDecoder{stream: true}, nil
	case bytes.Equal(magic, walMagicV1):
		return &segmentDecoder{}, nil
	}
	return nil, fmt.Errorf("persist: %s: unknown WAL segment format %q (this build reads %q and %q)",
		path, magic, walMagicV1, walMagic)
}

func (d *segmentDecoder) decode(payload []byte) (any, error) {
	var env envelope
	if !d.stream {
		err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&env)
		return env.E, err
	}
	d.src.Reset(payload)
	if d.dec == nil {
		// src is an io.ByteReader, so gob reads exactly the messages
		// one record holds and buffers nothing past them.
		d.dec = gob.NewDecoder(&d.src)
	}
	if err := d.dec.Decode(&env); err != nil {
		return nil, err
	}
	if d.src.Len() > 0 {
		return nil, fmt.Errorf("%d bytes follow the record's value", d.src.Len())
	}
	return env.E, nil
}

// readStatus is the outcome of one frame read.
type readStatus int

const (
	readOK   readStatus = iota // a complete, valid record
	readEOF                    // stream ended cleanly at a frame boundary
	readTorn                   // incomplete or checksum-failed record: a crash footprint
)

// readRecord reads one frame. readEOF and readTorn end the stream; the
// caller decides whether a torn record is acceptable (it is only at the
// very end of the final segment). Only an EOF-shaped short read counts
// as torn — a genuine I/O failure (EIO, a vanished file) is an error,
// never a truncation point: mistaking one for a torn tail would
// silently discard committed history. A record that checksums correctly
// but will not decode, or whose sequence number breaks the chain, is
// likewise corruption beyond a torn tail and reports an error.
func readRecord(r io.Reader, wantLSN int64, dec *segmentDecoder) (ev any, status readStatus, err error) {
	var header [frameHeaderLen]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		switch err {
		case io.EOF:
			return nil, readEOF, nil
		case io.ErrUnexpectedEOF:
			return nil, readTorn, nil // short header
		}
		return nil, readTorn, fmt.Errorf("reading record header: %w", err)
	}
	length := binary.LittleEndian.Uint32(header[0:])
	if length > maxRecordBytes {
		return nil, readTorn, nil // garbage length
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, readTorn, nil // short payload
		}
		return nil, readTorn, fmt.Errorf("reading record payload: %w", err)
	}
	crc := crc32.Update(0, crcTable, header[8:])
	crc = crc32.Update(crc, crcTable, payload)
	if crc != binary.LittleEndian.Uint32(header[4:]) {
		return nil, readTorn, nil // torn or bit-rotted record
	}
	lsn := int64(binary.LittleEndian.Uint64(header[8:]))
	if lsn != wantLSN {
		return nil, readTorn, fmt.Errorf("record carries lsn %d, expected %d", lsn, wantLSN)
	}
	ev, err = dec.decode(payload)
	if err != nil {
		return nil, readTorn, fmt.Errorf("decoding record: %w", err)
	}
	return ev, readOK, nil
}

// segmentRead is how far readSegment got through one segment.
type segmentRead struct {
	n    int   // complete records applied
	next int64 // LSN following the last one: the header's LSN when n == 0, 0 when the header itself is torn
	end  int64 // byte offset after the last complete record (0 when the header is torn)
	torn bool  // stopped at a torn header or record rather than a clean end
}

// readSegment reads one WAL segment from its start, calling apply per
// complete record, and stops at the clean end or at the first torn
// record; the caller decides whether a torn stop is acceptable and
// truncates at end. path names the segment in errors.
func readSegment(r io.Reader, path string, apply func(lsn int64, ev any) error) (segmentRead, error) {
	var seg segmentRead
	header := make([]byte, len(walMagic)+8)
	if _, err := io.ReadFull(r, header); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			seg.torn = true
			return seg, nil
		}
		return seg, fmt.Errorf("persist: %s: reading segment header: %w", path, err)
	}
	dec, err := segmentFormat(path, header[:len(walMagic)])
	if err != nil {
		return seg, err
	}
	seg.next = int64(binary.LittleEndian.Uint64(header[len(walMagic):]))
	seg.end = int64(len(header))

	cr := &countingReader{r: r}
	for {
		ev, status, err := readRecord(cr, seg.next, dec)
		if err != nil {
			return seg, fmt.Errorf("persist: %s: record %d (lsn %d): %w", path, seg.n, seg.next, err)
		}
		if status != readOK {
			seg.torn = status == readTorn
			return seg, nil
		}
		if apply != nil {
			if err := apply(seg.next, ev); err != nil {
				return seg, fmt.Errorf("persist: applying lsn %d: %w", seg.next, err)
			}
		}
		seg.n++
		seg.next++
		seg.end += cr.n
		cr.n = 0
	}
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

// Snapshot file layout:
//
//	[8B magic][4B CRC32C of payload][8B payload length][payload]
//
// The file is written to a temp name, fsynced and atomically renamed, so
// the latest snap-N is either complete or absent; the checksum guards the
// payload against anything subtler.

// writeSnapshot atomically publishes a snapshot file and returns its
// size.
func writeSnapshot(fsys FS, path string, snap any) (int64, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(snap); err != nil {
		return 0, fmt.Errorf("persist: encoding snapshot %T: %w", snap, err)
	}
	header := make([]byte, len(snapMagic)+4+8)
	copy(header, snapMagic)
	binary.LittleEndian.PutUint32(header[len(snapMagic):], crc32.Checksum(payload.Bytes(), crcTable))
	binary.LittleEndian.PutUint64(header[len(snapMagic)+4:], uint64(payload.Len()))

	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, fmt.Errorf("persist: %w", err)
	}
	_, err = f.Write(header)
	if err == nil {
		_, err = f.Write(payload.Bytes())
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fsys.Remove(tmp)
		return 0, fmt.Errorf("persist: writing %s: %w", tmp, err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return 0, fmt.Errorf("persist: %w", err)
	}
	// Make the rename itself durable.
	if dir, err := fsys.OpenFile(filepath.Dir(path), os.O_RDONLY, 0); err == nil {
		dir.Sync()
		dir.Close()
	}
	return int64(len(header) + payload.Len()), nil
}

// readSnapshot decodes a snapshot file into snap (a pointer to the
// caller's snapshot type). ok == false with a nil error means the file is
// missing, incomplete or fails its checksum — recovery falls back to an
// older generation. A checksum-valid payload that will not decode is a
// programming error (an unregistered type, a changed snapshot struct) and
// is reported, not masked.
func readSnapshot(fsys FS, path string, snap any) (ok bool, err error) {
	blob, err := fsys.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return false, nil
		}
		return false, fmt.Errorf("persist: %w", err)
	}
	headerLen := len(snapMagic) + 4 + 8
	if len(blob) < headerLen || !bytes.Equal(blob[:len(snapMagic)], snapMagic) {
		return false, nil
	}
	crc := binary.LittleEndian.Uint32(blob[len(snapMagic):])
	length := binary.LittleEndian.Uint64(blob[len(snapMagic)+4:])
	payload := blob[headerLen:]
	if uint64(len(payload)) != length || crc32.Checksum(payload, crcTable) != crc {
		return false, nil
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(snap); err != nil {
		return false, fmt.Errorf("persist: decoding snapshot %s: %w", path, err)
	}
	return true, nil
}
