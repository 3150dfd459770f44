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

const (
	segmentHeaderLen = 8 + 8     // magic, then the LSN of the segment's first record
	frameHeaderLen   = 4 + 4 + 8 // payload length, CRC32C, LSN
)

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

// readSegmentHeader reads a segment's header from r, which holds avail
// more bytes, and returns the decoder for the segment's records and the
// LSN of its first. ok == false with a nil error means the header is
// incomplete; a magic this build does not know is an error naming it.
// path names the segment in errors.
func readSegmentHeader(r io.Reader, avail int64, path string) (dec *segmentDecoder, first int64, ok bool, err error) {
	if avail < segmentHeaderLen {
		return nil, 0, false, nil
	}
	header := make([]byte, segmentHeaderLen)
	if ok, err := readFull(r, header); !ok {
		if err != nil {
			err = fmt.Errorf("persist: %s: reading segment header: %w", path, err)
		}
		return nil, 0, false, err
	}
	switch magic := header[:len(walMagic)]; {
	case bytes.Equal(magic, walMagic):
		dec = &segmentDecoder{stream: true}
	case bytes.Equal(magic, walMagicV1):
		dec = &segmentDecoder{}
	default:
		return nil, 0, false, fmt.Errorf("persist: %s: unknown WAL segment format %q (this build reads %q and %q)",
			path, magic, walMagicV1, walMagic)
	}
	return dec, int64(binary.LittleEndian.Uint64(header[len(walMagic):])), true, nil
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

// frameStatus is what one frame read found.
type frameStatus int

const (
	frameOK    frameStatus = iota // a complete, valid frame
	frameShort                    // an incomplete frame: it runs past the bytes available
	frameBad                      // a complete frame that fails its length cap or checksum
)

// readFull fills buf from r. ok == false with a nil error means r ended
// first, which only an incomplete frame explains. Any other failure
// (EIO, a vanished file) is an error, never a truncation point:
// mistaking one for a torn tail would silently discard committed
// history.
func readFull(r io.Reader, buf []byte) (ok bool, err error) {
	_, err = io.ReadFull(r, buf)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return false, nil
	}
	return err == nil, err
}

// readRecord reads one frame from r, which holds avail more bytes, as
// the record numbered wantLSN, and returns the frame's size with its
// status: frameOK with the decoded record; frameShort when the frame
// runs past avail (nothing past its header is read); frameBad when the
// complete frame fails its length cap or checksum. Its two callers hold
// different policies for the two failures — recovery truncates either
// as a torn tail, a tailer waits on a short frame for more bytes and
// reports a bad one as corruption — over one reading. A frame that
// checksums correctly but breaks the LSN chain or will not decode is
// corruption to both and returns an error, as an I/O failure does.
func readRecord(r io.Reader, avail, wantLSN int64, dec *segmentDecoder) (ev any, size int64, status frameStatus, err error) {
	if avail < frameHeaderLen {
		return nil, 0, frameShort, nil
	}
	header := make([]byte, frameHeaderLen)
	if ok, err := readFull(r, header); !ok {
		return nil, 0, frameShort, err
	}
	length := binary.LittleEndian.Uint32(header[0:])
	if length > maxRecordBytes {
		return nil, 0, frameBad, nil
	}
	size = frameHeaderLen + int64(length)
	if avail < size {
		return nil, 0, frameShort, nil
	}
	payload := make([]byte, length)
	if ok, err := readFull(r, payload); !ok {
		return nil, 0, frameShort, err
	}
	crc := crc32.Update(0, crcTable, header[8:])
	crc = crc32.Update(crc, crcTable, payload)
	if crc != binary.LittleEndian.Uint32(header[4:]) {
		return nil, size, frameBad, nil
	}
	if lsn := int64(binary.LittleEndian.Uint64(header[8:])); lsn != wantLSN {
		return nil, size, frameOK, fmt.Errorf("record carries lsn %d, expected %d", lsn, wantLSN)
	}
	if ev, err = dec.decode(payload); err != nil {
		return nil, size, frameOK, fmt.Errorf("decoding record: %w", err)
	}
	return ev, size, frameOK, nil
}

// segmentRead is how far readSegment got through one segment.
type segmentRead struct {
	n    int         // complete records applied
	next int64       // LSN following the last one: the header's LSN when n == 0, 0 when the header is incomplete
	end  int64       // byte offset after the last complete record (0 when the header is incomplete)
	stop frameStatus // frameOK at the segment's end, else the torn header or record it stopped at
}

// readSegment reads one WAL segment of size bytes from r's start,
// calling apply per complete record, and stops at the segment's end or
// at the first short or bad frame: a torn stop, which the caller
// accepts only at the end of the final segment, truncating at end. path
// names the segment in errors. A positive want is the LSN the header must
// carry, the one after the previous segment's last record: a segment that
// starts elsewhere is refused before any of its records is applied.
func readSegment(r io.Reader, size int64, path string, want int64, apply func(lsn int64, ev any) error) (segmentRead, error) {
	var seg segmentRead
	dec, first, ok, err := readSegmentHeader(r, size, path)
	if !ok {
		seg.stop = frameShort
		return seg, err
	}
	if want > 0 && first != want {
		return seg, fmt.Errorf("persist: %s: segment starts at lsn %d, but the segment before it ends at lsn %d — history is missing", path, first, want-1)
	}
	seg.next, seg.end = first, segmentHeaderLen
	for seg.end < size {
		ev, n, status, err := readRecord(r, size-seg.end, seg.next, dec)
		if err != nil {
			return seg, fmt.Errorf("persist: %s: record %d (lsn %d): %w", path, seg.n, seg.next, err)
		}
		if status != frameOK {
			seg.stop = status
			return seg, nil
		}
		if apply != nil {
			if err := apply(seg.next, ev); err != nil {
				return seg, fmt.Errorf("persist: applying lsn %d: %w", seg.next, err)
			}
		}
		seg.n++
		seg.next++
		seg.end += n
	}
	return seg, nil
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
