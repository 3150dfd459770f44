package persist

import (
	"cmp"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// A store directory holds numbered snapshot generations and WAL
// segments, named by one grammar: ^(snap|wal)-[0-9]{16}$, the sequence
// number zero-padded to sixteen digits so that name order is sequence
// order within each kind. Recovery, replication and every shipper read
// a directory through FileName, ParseFileName and ListDir, so none of
// them can disagree about what counts as a store file.

// FileKind tells a snapshot file from a WAL segment.
type FileKind uint8

const (
	SnapFile FileKind = iota + 1 // snap-N: checkpoint generation N
	WALFile                      // wal-N: the records after snap-N
)

var filePrefix = [...]string{SnapFile: "snap-", WALFile: "wal-"}

// seqDigits is the fixed width of a file name's sequence number.
const seqDigits = 16

// FileName names the store file of kind with sequence seq. Sequences
// stay below 10^16, the largest that sixteen digits hold.
func FileName(kind FileKind, seq uint64) string {
	return filePrefix[kind] + fmt.Sprintf("%016d", seq)
}

// ParseFileName is FileName's inverse: ok only for a name of the store
// grammar, which no path separator, sign, suffix or other digit count
// passes.
func ParseFileName(name string) (kind FileKind, seq uint64, ok bool) {
	for k := SnapFile; k <= WALFile; k++ {
		digits, found := strings.CutPrefix(name, filePrefix[k])
		if !found || len(digits) != seqDigits {
			continue
		}
		for i := 0; i < len(digits); i++ {
			c := digits[i]
			if c < '0' || c > '9' {
				return 0, 0, false
			}
			seq = seq*10 + uint64(c-'0')
		}
		return k, seq, true
	}
	return 0, 0, false
}

// A sharded front end keeps one store per engine shard, named
// shard-NNNN: the index zero-padded to four digits, wider only when it
// needs more. Data-directory checks, replication manifests and follower
// hooks read shard indexes through ShardStoreName and
// ParseShardStoreName, so every store has one index and every index one
// name.

const shardPrefix = "shard-"

// ShardStoreName names shard i's store (i >= 0).
func ShardStoreName(i int) string {
	return shardPrefix + fmt.Sprintf("%04d", i)
}

// ParseShardStoreName is ShardStoreName's inverse: ok only for a name
// that ShardStoreName renders exactly, so no sign, suffix or other
// padding names a shard.
func ParseShardStoreName(name string) (i int, ok bool) {
	digits, found := strings.CutPrefix(name, shardPrefix)
	if !found {
		return 0, false
	}
	i, err := strconv.Atoi(digits)
	if err != nil || i < 0 || ShardStoreName(i) != name {
		return 0, false
	}
	return i, true
}

// ShardCount reads a sharded layout from store names (a data
// directory's subdirectories, a replication manifest's stores): the
// number of shard stores, which must be exactly ShardStoreName(0) …
// ShardStoreName(n-1). A name that begins like a shard store without
// being one, a repeated shard and a missing shard are each refused by
// name; names of any other shape are not shard stores and are skipped.
func ShardCount(names []string) (int, error) {
	var idx []int
	for _, name := range names {
		i, ok := ParseShardStoreName(name)
		if ok {
			idx = append(idx, i)
		} else if strings.HasPrefix(name, shardPrefix) {
			return 0, fmt.Errorf("persist: %q is not a shard store name (those are %s, %s, …)", name, ShardStoreName(0), ShardStoreName(1))
		}
	}
	slices.Sort(idx)
	for want, i := range idx {
		switch {
		case i < want:
			return 0, fmt.Errorf("persist: shard store %q is listed twice", ShardStoreName(i))
		case i > want:
			return 0, fmt.Errorf("persist: shard store %q is missing below %q", ShardStoreName(want), ShardStoreName(i))
		}
	}
	return len(idx), nil
}

// FileInfo names one store file and its size.
type FileInfo struct {
	Name string
	Size int64
}

// ListDir lists the store files in dir with their sizes, sorted by
// name: every snapshot in sequence order, then every segment. Other
// entries (a snapshot's temp file, say) are skipped, and a missing
// directory lists as empty. A nil fsys reads through OSFS.
func ListDir(fsys FS, dir string) ([]FileInfo, error) {
	if fsys == nil {
		fsys = OSFS
	}
	entries, err := fsys.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	var files []FileInfo
	for _, e := range entries {
		if _, _, ok := ParseFileName(e.Name()); !ok {
			continue
		}
		st, err := fsys.Stat(filepath.Join(dir, e.Name()))
		if err != nil {
			continue // removed between scan and stat
		}
		files = append(files, FileInfo{Name: e.Name(), Size: st.Size()})
	}
	slices.SortFunc(files, func(a, b FileInfo) int { return cmp.Compare(a.Name, b.Name) })
	return files, nil
}
