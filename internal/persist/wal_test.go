package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// testTag is a second registered event type, so a segment's stream
// carries more than one type's descriptors.
type testTag struct {
	Label string
	Vals  []float64
}

// unregisteredEvent is never gob-registered: appending it fails to
// encode.
type unregisteredEvent struct {
	N int
}

func init() {
	gob.Register(testTag{})
}

// segmentMagic reads the format magic of a store's segment.
func segmentMagic(t *testing.T, dir string, seq uint64) string {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join(dir, FileName(WALFile, seq)))
	if err != nil {
		t.Fatal(err)
	}
	return string(blob[:len(walMagic)])
}

// recoverEvents opens and recovers dir, returning the store, the
// recovered snapshot and the replayed events.
func recoverEvents(t *testing.T, dir string) (*Store, testSnap, []any) {
	t.Helper()
	st := openStore(t, dir, Options{})
	var snap testSnap
	var got []any
	if _, _, err := st.Recover(&snap, nil, func(_ int64, ev any) error {
		got = append(got, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return st, snap, got
}

// tailAll reads every complete record of a segment through a Tailer.
func tailAll(t *testing.T, dir string, seq uint64) []any {
	t.Helper()
	tl, err := OpenTailer(nil, filepath.Join(dir, FileName(WALFile, seq)))
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	var got []any
	for {
		_, ev, ok, err := tl.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return got
		}
		got = append(got, ev)
	}
}

func mustAppend(t *testing.T, st *Store, evs ...any) {
	t.Helper()
	for _, ev := range evs {
		if _, err := st.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
}

// A torn final frame of a stream segment is truncated; the next append
// cannot continue that stream, so it lands in a fresh segment, and every
// record replays.
func TestTornStreamTailStartsFreshSegment(t *testing.T) {
	dir := t.TempDir()
	st, _, _ := recoverEvents(t, dir)
	mustAppend(t, st, testEvent{N: 1}, testTag{Label: "a", Vals: []float64{1.5}}, testEvent{N: 2}, testEvent{N: 3})
	st.Close()

	path := filepath.Join(dir, FileName(WALFile, 1))
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-3); err != nil {
		t.Fatal(err)
	}

	st2, _, got := recoverEvents(t, dir)
	want := []any{testEvent{N: 1}, testTag{Label: "a", Vals: []float64{1.5}}, testEvent{N: 2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed %v, want %v", got, want)
	}
	if lsn, err := st2.Append(testEvent{N: 40}); err != nil || lsn != 4 {
		t.Fatalf("append after truncation = (%d, %v), want lsn 4", lsn, err)
	}
	mustAppend(t, st2, testTag{Label: "b"})
	st2.Close()
	if _, err := os.Stat(filepath.Join(dir, FileName(WALFile, 2))); err != nil {
		t.Fatalf("the append after a recovered stream did not start a fresh segment: %v", err)
	}
	if m := segmentMagic(t, dir, 2); m != string(walMagic) {
		t.Fatalf("fresh segment has magic %q", m)
	}

	st3, _, got := recoverEvents(t, dir)
	defer st3.Close()
	want = append(want, testEvent{N: 40}, testTag{Label: "b"})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("second recovery replayed %v, want %v", got, want)
	}
	if tailed := append(tailAll(t, dir, 1), tailAll(t, dir, 2)...); !reflect.DeepEqual(tailed, want) {
		t.Fatalf("tailers read %v, want %v", tailed, want)
	}
}

// An Append whose event does not encode returns the error, and the
// appends after it — including one right after a failure on a segment's
// very first record, where the failed encode marked the envelope's
// descriptors as sent — still replay and tail.
func TestEncodeErrorStartsFreshSegment(t *testing.T) {
	dir := t.TempDir()
	st, _, _ := recoverEvents(t, dir)
	if _, err := st.Append(unregisteredEvent{N: 1}); err == nil {
		t.Fatal("Append of an unregistered type succeeded")
	}
	mustAppend(t, st, testEvent{N: 1}, testTag{Label: "x"})
	if _, err := st.Append(unregisteredEvent{N: 2}); err == nil {
		t.Fatal("Append of an unregistered type succeeded")
	}
	if lsn, err := st.Append(testEvent{N: 2}); err != nil || lsn != 3 {
		t.Fatalf("append after a failed encode = (%d, %v), want lsn 3", lsn, err)
	}
	mustAppend(t, st, testTag{Label: "y", Vals: []float64{2}})
	st.Close()

	want := []any{testEvent{N: 1}, testTag{Label: "x"}, testEvent{N: 2}, testTag{Label: "y", Vals: []float64{2}}}
	st2, _, got := recoverEvents(t, dir)
	st2.Close()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed %v, want %v", got, want)
	}
	var tailed []any
	for seq := uint64(1); seq <= 3; seq++ {
		tailed = append(tailed, tailAll(t, dir, seq)...)
	}
	if !reflect.DeepEqual(tailed, want) {
		t.Fatalf("tailers read %v, want %v", tailed, want)
	}
}

// A Tailer opened on a segment that already holds records decodes from
// the first one (which carries the stream's descriptors) and keeps up
// with later appends.
func TestTailerOpenedAfterRecords(t *testing.T) {
	dir := t.TempDir()
	st, _, _ := recoverEvents(t, dir)
	defer st.Close()
	var want []any
	for i := 1; i <= 5; i++ {
		want = append(want, testEvent{N: i})
	}
	mustAppend(t, st, want...)

	tl, err := OpenTailer(nil, filepath.Join(dir, FileName(WALFile, 1)))
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	var got []any
	next := func() {
		for {
			lsn, ev, ok, err := tl.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return
			}
			if lsn != int64(len(got)+1) {
				t.Fatalf("tailed lsn %d, want %d", lsn, len(got)+1)
			}
			got = append(got, ev)
		}
	}
	next()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tailed %v, want %v", got, want)
	}
	more := []any{testTag{Label: "late"}, testEvent{N: 6}}
	mustAppend(t, st, more...)
	next()
	if want = append(want, more...); !reflect.DeepEqual(got, want) {
		t.Fatalf("tailed %v, want %v", got, want)
	}
}

// opCounts tallies the calls a Tailer makes on its file.
type opCounts struct{ stat, seek, read int }

type countingFS struct {
	FS
	n *opCounts
}

func (c countingFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	return countingFile{f, c.n}, err
}

type countingFile struct {
	File
	n *opCounts
}

func (f countingFile) Stat() (os.FileInfo, error) { f.n.stat++; return f.File.Stat() }
func (f countingFile) Read(p []byte) (int, error) { f.n.read++; return f.File.Read(p) }
func (f countingFile) Seek(off int64, whence int) (int64, error) {
	f.n.seek++
	return f.File.Seek(off, whence)
}

// A Tailer reads a record with one Stat, one Seek and two Reads (the
// frame header, then the payload); the segment header costs one more
// Read, and a call that finds no new frame a Stat and a Seek.
func TestTailerFileOpsPerRecord(t *testing.T) {
	dir := t.TempDir()
	st, _, _ := recoverEvents(t, dir)
	defer st.Close()
	const records = 20
	for i := 1; i <= records; i++ {
		mustAppend(t, st, testEvent{N: i})
	}
	var n opCounts
	tl, err := OpenTailer(countingFS{OSFS, &n}, filepath.Join(dir, FileName(WALFile, 1)))
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	got := 0
	for {
		_, _, ok, err := tl.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got++
	}
	if got != records {
		t.Fatalf("tailed %d records, want %d", got, records)
	}
	if want := (opCounts{stat: records + 1, seek: records + 1, read: 2*records + 1}); n != want {
		t.Fatalf("tailing %d records took %+v, want %+v", records, n, want)
	}
}

// copyDir copies a flat directory of fixture files.
func copyDir(t *testing.T, from, to string) {
	t.Helper()
	entries, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		blob, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// testdata/durwal1 is a store an earlier build wrote in the DURWAL1
// format (one gob stream per record): snap-2 holds Applied=3, and wal-2
// holds events 4..6. It recovers, takes appends into a fresh DURWAL2
// segment, and recovers again to the same state plus those appends.
func TestRecoverDURWAL1Store(t *testing.T) {
	dir := t.TempDir()
	copyDir(t, filepath.Join("testdata", "durwal1"), dir)
	if m := segmentMagic(t, dir, 2); m != string(walMagicV1) {
		t.Fatalf("fixture segment has magic %q, want %q", m, walMagicV1)
	}
	v1, err := os.ReadFile(filepath.Join(dir, FileName(WALFile, 2)))
	if err != nil {
		t.Fatal(err)
	}

	st, snap, got := recoverEvents(t, dir)
	want := []any{testEvent{N: 4}, testEvent{N: 5}, testEvent{N: 6}}
	if snap.Applied != 3 || !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered snapshot %+v and events %v, want Applied=3 and %v", snap, got, want)
	}
	if tailed := tailAll(t, dir, 2); !reflect.DeepEqual(tailed, want) {
		t.Fatalf("tailer read %v from the DURWAL1 segment, want %v", tailed, want)
	}
	if lsn, err := st.Append(testEvent{N: 7}); err != nil || lsn != 7 {
		t.Fatalf("append after recovering a DURWAL1 store = (%d, %v), want lsn 7", lsn, err)
	}
	mustAppend(t, st, testTag{Label: "v2"})
	st.Close()

	if m := segmentMagic(t, dir, 3); m != string(walMagic) {
		t.Fatalf("appends landed in a segment with magic %q, want %q", m, walMagic)
	}
	if after, err := os.ReadFile(filepath.Join(dir, FileName(WALFile, 2))); err != nil || !bytes.Equal(after, v1) {
		t.Fatalf("the DURWAL1 segment changed (err %v)", err)
	}
	st2, snap2, got2 := recoverEvents(t, dir)
	defer st2.Close()
	want = append(want, testEvent{N: 7}, testTag{Label: "v2"})
	if snap2 != snap || !reflect.DeepEqual(got2, want) {
		t.Fatalf("second recovery gave snapshot %+v and events %v, want %+v and %v", snap2, got2, snap, want)
	}
}

// A segment in a format this build does not know is refused by name, by
// recovery and by a tailer alike.
func TestUnknownSegmentFormatRefused(t *testing.T) {
	dir := t.TempDir()
	header := make([]byte, segmentHeaderLen)
	copy(header, "DURWAL3\n")
	binary.LittleEndian.PutUint64(header[len(walMagic):], 1)
	if err := os.WriteFile(filepath.Join(dir, FileName(WALFile, 1)), header, 0o644); err != nil {
		t.Fatal(err)
	}
	st := openStore(t, dir, Options{})
	var snap testSnap
	_, _, err := st.Recover(&snap, nil, nil)
	if err == nil || !strings.Contains(err.Error(), `"DURWAL3\n"`) || !strings.Contains(err.Error(), "format") {
		t.Fatalf("Recover of a DURWAL3 segment: %v, want an error naming the format", err)
	}
	tl, err := OpenTailer(nil, filepath.Join(dir, FileName(WALFile, 1)))
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	if _, _, _, err := tl.Next(); err == nil || !strings.Contains(err.Error(), `"DURWAL3\n"`) {
		t.Fatalf("Tailer on a DURWAL3 segment: %v, want an error naming the format", err)
	}
}

// fuzzEvents are the records of FuzzReplaySegment's segment.
var fuzzEvents = []any{
	testEvent{N: 1},
	testTag{Label: "a", Vals: []float64{1.5, -2}},
	testEvent{N: 2},
	testTag{Label: "b"},
	testEvent{N: 3},
}

// streamSegment builds a DURWAL2 segment holding evs from lsn 1.
func streamSegment(tb testing.TB, evs []any) []byte {
	tb.Helper()
	seg := make([]byte, segmentHeaderLen)
	copy(seg, walMagic)
	binary.LittleEndian.PutUint64(seg[len(walMagic):], 1)
	enc := newSegmentEncoder()
	for i, ev := range evs {
		frame, err := enc.frame(int64(i+1), ev)
		if err != nil {
			tb.Fatal(err)
		}
		seg = append(seg, frame...)
	}
	return seg
}

// growingFS serves one segment file whose visible length the test
// raises, as a shipper appending to a follower's mirror does.
type growingFS struct {
	FS   // nil: a Tailer calls only OpenFile
	data []byte
	n    int // bytes shipped so far
}

func (g *growingFS) OpenFile(string, int, os.FileMode) (File, error) {
	return &growingFile{fs: g}, nil
}

type growingFile struct {
	File // nil: a Tailer calls only Stat, Seek, Read and Close
	fs   *growingFS
	off  int64
}

func (f *growingFile) Read(p []byte) (int, error) {
	if f.off >= int64(f.fs.n) {
		return 0, io.EOF
	}
	n := copy(p, f.fs.data[f.off:f.fs.n])
	f.off += int64(n)
	return n, nil
}

func (f *growingFile) Seek(off int64, _ int) (int64, error) { f.off = off; return off, nil }
func (f *growingFile) Stat() (os.FileInfo, error)           { return sizeInfo(f.fs.n), nil }
func (f *growingFile) Close() error                         { return nil }

type sizeInfo int64

func (sizeInfo) Name() string       { return "fuzz" }
func (s sizeInfo) Size() int64      { return int64(s) }
func (sizeInfo) Mode() os.FileMode  { return 0 }
func (sizeInfo) ModTime() time.Time { return time.Time{} }
func (sizeInfo) IsDir() bool        { return false }
func (sizeInfo) Sys() any           { return nil }

// tailSegment ships seg to a Tailer inc bytes at a time, draining the
// tailer after each increment, and returns the records it yields and
// the error that stopped it.
func tailSegment(t *testing.T, seg []byte, inc int) (evs []any, err error) {
	g := &growingFS{data: seg}
	tl, err := OpenTailer(g, "fuzz")
	if err != nil {
		t.Fatal(err)
	}
	for {
		for {
			_, ev, ok, err := tl.Next()
			if err != nil {
				return evs, err
			}
			if !ok {
				break
			}
			evs = append(evs, ev)
		}
		if g.n == len(seg) {
			return evs, nil
		}
		g.n = min(g.n+inc, len(seg))
	}
}

// FuzzReplaySegment cuts a DURWAL2 segment short and flips one of its
// bytes: reading it must yield a prefix of the appended events, ended
// cleanly or by an error — never a panic, and never an event that was
// not appended at that position. A Tailer fed the same bytes, whole and
// step+1 bytes at a time, must yield exactly recovery's records, wait
// where recovery stops at a short frame, and fail where recovery stops
// at a complete bad frame or fails itself.
func FuzzReplaySegment(f *testing.F) {
	seg := streamSegment(f, fuzzEvents)
	f.Add(uint16(len(seg)), uint16(0), byte(0), byte(0))
	for i, cut := range []int{0, 7, 16, 17, 40, len(seg) / 2, len(seg) - 1} {
		f.Add(uint16(cut), uint16(0), byte(0), byte(i*5))
	}
	for i, at := range []int{0, 6, 8, 16, 20, 24, 40, len(seg) / 2, len(seg) - 1} {
		f.Add(uint16(len(seg)), uint16(at), byte(0x01), byte(i*3))
	}
	f.Add(uint16(len(seg)), uint16(6), byte(0x03), byte(15)) // DURWAL2 → DURWAL1
	f.Fuzz(func(t *testing.T, cut, at uint16, flip, step byte) {
		mut := append([]byte(nil), seg[:min(int(cut), len(seg))]...)
		if len(mut) > 0 {
			mut[int(at)%len(mut)] ^= flip
		}
		var got []any
		read, err := readSegment(bytes.NewReader(mut), int64(len(mut)), "fuzz", 0, func(lsn int64, ev any) error {
			if i := len(got); lsn != int64(i+1) || i >= len(fuzzEvents) || !reflect.DeepEqual(ev, fuzzEvents[i]) {
				t.Fatalf("record %d read as lsn %d %#v", i, lsn, ev)
			}
			got = append(got, ev)
			return nil
		})
		if read.n != len(got) {
			t.Fatalf("readSegment counted %d records, applied %d", read.n, len(got))
		}
		torn := read.stop != frameOK
		if err == nil && !torn && len(got) != len(fuzzEvents) && len(mut) == len(seg) {
			t.Fatalf("a whole segment read cleanly as %d of %d records", len(got), len(fuzzEvents))
		}
		if flip == 0 && len(mut) == len(seg) && (err != nil || torn || len(got) != len(fuzzEvents)) {
			t.Fatalf("the intact segment read %d records, stop %d, err %v", len(got), read.stop, err)
		}

		wantFail := err != nil || read.stop == frameBad
		for _, inc := range []int{len(mut), int(step) + 1} {
			tailed, terr := tailSegment(t, mut, inc)
			if !reflect.DeepEqual(tailed, got) {
				t.Fatalf("tailer fed %d bytes at a time read %v, recovery read %v", inc, tailed, got)
			}
			if (terr != nil) != wantFail {
				t.Fatalf("tailer fed %d bytes at a time stopped with %v; recovery stopped with status %d, err %v", inc, terr, read.stop, err)
			}
		}
	})
}
