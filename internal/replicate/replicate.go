// Package replicate ships persist store bytes from a primary to a warm
// follower. The primary exposes its stores — one per engine shard —
// through a Source: a consistent manifest of files and sizes plus ranged
// byte fetches. The follower mirrors those bytes
// into a local directory laid out exactly like the primary's data dir,
// and applies complete WAL records through a persist.Tailer as they
// arrive, so its engines track the primary tick by tick. A shard record
// carries each refresh's outcome (see internal/stream), so applying it
// installs the primary's plans and fresh batches: a follower never
// searches or simulates, and costs a fraction of the primary. On promotion
// the mirror IS a valid data directory: persist.Open recovers it like
// any other, torn tails and all.
//
// The protocol leans on two properties of the persist layer. Segments
// are append-only, so a byte once shipped is immutable and a checksum
// failure on a complete frame is real corruption, not a race; and the
// primary only ever truncates the torn tail of its final segment during
// its own crash recovery, which the follower mirrors by truncating its
// local copy when the manifest shrinks. Everything else — which records
// a snapshot covers, which replayed events are no-ops — is settled by
// the LSNs inside the files, not by the shipping layer.
package replicate

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"durability/internal/persist"
)

// StoreManifest lists one store's files at a point in time. NextLSN is
// the LSN the store's next append will take, when the source knows it
// (a live primary does; a post-mortem directory scan reports 0 =
// unknown, and followers fall back to byte lag).
type StoreManifest struct {
	Name    string
	Files   []persist.FileInfo
	NextLSN int64
}

// Manifest is a point-in-time view of every replicated store.
type Manifest struct {
	Stores []StoreManifest
}

// Source is where a follower pulls bytes from: a live primary's HTTP
// endpoints, its stores in-process, or (after it died) its bare data
// directory.
type Source interface {
	// Manifest lists every store's files and sizes. For live sources the
	// live segment's size must stop at a frame boundary or be safe to
	// over-read (append-only files are; the tailer simply waits on an
	// incomplete frame).
	Manifest(ctx context.Context) (Manifest, error)
	// Fetch returns up to max bytes of the named store file starting at
	// offset. A short (even empty) result is not an error: it means the
	// source currently has fewer bytes than asked for.
	Fetch(ctx context.Context, store, file string, offset, max int64) ([]byte, error)
}

// Acker is optionally implemented by a Source that can report the
// follower's applied LSNs back to the primary — the primary's shutdown
// path waits on these before letting a SIGTERM complete.
type Acker interface {
	Ack(ctx context.Context, applied map[string]int64) error
}

// validNames rejects store names that could escape the mirror root and
// file names outside the store grammar (persist.ParseFileName) — both
// ends validate, so neither trusts the wire.
func validNames(store, file string) error {
	if !validStoreName(store) {
		return fmt.Errorf("replicate: invalid store name %q", store)
	}
	if _, _, ok := persist.ParseFileName(file); file != "" && !ok {
		return fmt.Errorf("replicate: invalid file name %q", file)
	}
	return nil
}

// validStoreName reports whether s matches ^[A-Za-z0-9][A-Za-z0-9._-]*$.
func validStoreName(s string) bool {
	if s == "" || !isAlnum(s[0]) {
		return false
	}
	for i := 1; i < len(s); i++ {
		if c := s[i]; !isAlnum(c) && c != '.' && c != '_' && c != '-' {
			return false
		}
	}
	return true
}

func isAlnum(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9'
}

// DirSource reads a primary's data directory straight off the
// filesystem: the post-mortem shipping path (the primary is dead, its
// directory is all that is left) and the path chaos tests inject faults
// into. It also works against a live primary's directory — segment
// files are append-only, so the worst a racing read sees is a frame
// still being written, which the follower's tailer waits out.
type DirSource struct {
	Root   string     // the primary's data directory
	Stores []string   // store subdirectory names to ship
	FS     persist.FS // nil reads through persist.OSFS
}

func (d DirSource) fs() persist.FS {
	if d.FS == nil {
		return persist.OSFS
	}
	return d.FS
}

// Manifest lists each configured store's files through
// persist.ListDir. A store whose directory does not exist yet is listed
// empty.
func (d DirSource) Manifest(ctx context.Context) (Manifest, error) {
	var m Manifest
	for _, store := range d.Stores {
		if err := validNames(store, ""); err != nil {
			return Manifest{}, err
		}
		files, err := persist.ListDir(d.fs(), filepath.Join(d.Root, store))
		if err != nil {
			return Manifest{}, fmt.Errorf("replicate: listing %s: %w", store, err)
		}
		m.Stores = append(m.Stores, StoreManifest{Name: store, Files: files})
	}
	return m, nil
}

// Fetch reads a byte range of one store file.
func (d DirSource) Fetch(ctx context.Context, store, file string, offset, max int64) ([]byte, error) {
	if err := validNames(store, file); err != nil {
		return nil, err
	}
	return readRange(d.fs(), filepath.Join(d.Root, store, file), offset, max)
}

// StoreSource serves a live primary's open stores: manifests come from
// Store.Listing, which reports the live segment at its last complete
// frame boundary together with the authoritative NextLSN. This is what
// the primary's HTTP replication handler wraps.
type StoreSource struct {
	Stores map[string]*persist.Store
	FS     persist.FS // nil reads through persist.OSFS
}

func (s StoreSource) fs() persist.FS {
	if s.FS == nil {
		return persist.OSFS
	}
	return s.FS
}

// Manifest lists every store in name order.
func (s StoreSource) Manifest(ctx context.Context) (Manifest, error) {
	names := make([]string, 0, len(s.Stores))
	//durlint:ignore maporder sorted immediately below
	for name := range s.Stores {
		names = append(names, name)
	}
	sort.Strings(names)
	var m Manifest
	for _, name := range names {
		l, err := s.Stores[name].Listing()
		if err != nil {
			return Manifest{}, fmt.Errorf("replicate: listing %s: %w", name, err)
		}
		m.Stores = append(m.Stores, StoreManifest{Name: name, Files: l.Files, NextLSN: l.NextLSN})
	}
	return m, nil
}

// Fetch reads a byte range of one store file.
func (s StoreSource) Fetch(ctx context.Context, store, file string, offset, max int64) ([]byte, error) {
	if err := validNames(store, file); err != nil {
		return nil, err
	}
	st, ok := s.Stores[store]
	if !ok {
		return nil, fmt.Errorf("replicate: no store %q", store)
	}
	return readRange(s.fs(), filepath.Join(st.Dir(), file), offset, max)
}

// readRange returns up to max bytes of path starting at offset; a short
// or empty slice means the file currently ends sooner.
func readRange(fsys persist.FS, path string, offset, max int64) ([]byte, error) {
	if offset < 0 || max <= 0 {
		return nil, fmt.Errorf("replicate: bad range offset=%d max=%d", offset, max)
	}
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, fmt.Errorf("replicate: %w", err)
	}
	defer f.Close()
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		return nil, fmt.Errorf("replicate: %w", err)
	}
	buf := make([]byte, max)
	n, err := io.ReadFull(f, buf)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		err = nil
	}
	if err != nil {
		return nil, fmt.Errorf("replicate: reading %s: %w", path, err)
	}
	return buf[:n], nil
}
