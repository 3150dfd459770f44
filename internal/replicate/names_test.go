package replicate

import (
	"regexp"
	"testing"
)

// The store-name grammar validStoreName accepts, as the regular
// expression replication once ran on every manifest entry; it stays as
// the byte loop's oracle. File names are persist's grammar, checked
// there.
var storeNameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]*$`)

func checkNameAgainstRegexps(t *testing.T, s string) {
	t.Helper()
	if got, want := validStoreName(s), storeNameRe.MatchString(s); got != want {
		t.Fatalf("validStoreName(%q) = %v, regexp says %v", s, got, want)
	}
}

// Every string of up to two arbitrary bytes, and of up to four bytes over
// an alphabet holding each character class's edges (plus a multi-byte
// and an invalid UTF-8 lead), is judged as the regexp judges it.
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
}

func FuzzNameChecks(f *testing.F) {
	for _, s := range []string{"hub", "shard-0000", "shard.0001_x", "-hub", ".", "..", "../etc", "a/b",
		"snap-0000000000000001", "wal-0000000000000123", "wal-000000000000012", "wal-00000000000001234",
		"snap-000000000000000a", "wal-0000000000000001\n", "é", "\xff"} {
		f.Add(s)
	}
	f.Fuzz(checkNameAgainstRegexps)
}
