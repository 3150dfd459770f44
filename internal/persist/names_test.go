package persist

import (
	"regexp"
	"testing"
)

// fileNameRe is the store's file-name grammar as a regular expression,
// the oracle of ParseFileName's byte loop.
var fileNameRe = regexp.MustCompile(`^(snap|wal)-[0-9]{16}$`)

// checkNameAgainstRegexps holds ParseFileName to the regexp, and every
// name it accepts to FileName's round trip.
func checkNameAgainstRegexps(t *testing.T, s string) {
	t.Helper()
	kind, seq, ok := ParseFileName(s)
	if want := fileNameRe.MatchString(s); ok != want {
		t.Fatalf("ParseFileName(%q) ok = %v, regexp says %v", s, ok, want)
	}
	if ok && FileName(kind, seq) != s {
		t.Fatalf("ParseFileName(%q) = (%d, %d), which FileName names %q", s, kind, seq, FileName(kind, seq))
	}
}

// Every string of up to two arbitrary bytes, and of up to four bytes over
// an alphabet holding each character class's edges (plus a multi-byte
// and an invalid UTF-8 lead), is judged as the regexp judges it. Names
// are also checked around their only accepted shape: both prefixes,
// every digit-run length near 16, and each position of a 16-digit run
// swapped for every byte.
func TestNameChecksMatchRegexps(t *testing.T) {
	checkNameAgainstRegexps(t, "")
	for a := 0; a < 256; a++ {
		checkNameAgainstRegexps(t, string([]byte{byte(a)}))
		for b := 0; b < 256; b++ {
			checkNameAgainstRegexps(t, string([]byte{byte(a), byte(b)}))
		}
	}
	alphabet := []string{"a", "z", "A", "Z", "0", "9", ".", "_", "-", "/", "\\", " ", "@", "[", "`", "{", ":", "\n", "\x00", "é", "\xff"}
	var grow func(prefix string, depth int)
	grow = func(prefix string, depth int) {
		checkNameAgainstRegexps(t, prefix)
		if depth == 0 {
			return
		}
		for _, c := range alphabet {
			grow(prefix+c, depth-1)
		}
	}
	grow("", 4)

	const digits = "0123456789012345678"
	for _, prefix := range []string{"snap-", "wal-", "snap", "wal", "snp-", "wal_", "Snap-", "WAL-", "snap--", "xwal-", "snapwal-", ""} {
		for n := 0; n <= len(digits); n++ {
			checkNameAgainstRegexps(t, prefix+digits[:n])
			checkNameAgainstRegexps(t, prefix+digits[:n]+"\n")
			checkNameAgainstRegexps(t, prefix+digits[:n]+".tmp")
		}
		for i := 0; i < 16; i++ {
			for c := 0; c < 256; c++ {
				name := []byte(prefix + digits[:16])
				name[len(prefix)+i] = byte(c)
				checkNameAgainstRegexps(t, string(name))
			}
		}
	}
	for _, seq := range []uint64{0, 1, 9999999999999999} {
		for _, kind := range []FileKind{SnapFile, WALFile} {
			checkNameAgainstRegexps(t, FileName(kind, seq))
		}
	}
}

func FuzzNameChecks(f *testing.F) {
	for _, s := range []string{"shard-0000", "snap-0000000000000001", "wal-0000000000000123", "wal-000000000000012",
		"wal-00000000000001234", "wal-12345678901234567", "snap-+000000000000001", "snap-0000000000000001.tmp",
		"snap-000000000000000a", "wal-0000000000000001\n", "é", "\xff"} {
		f.Add(s)
	}
	f.Fuzz(checkNameAgainstRegexps)
}
