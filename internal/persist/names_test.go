package persist

import (
	"regexp"
	"strconv"
	"strings"
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

// shardNameRe is the canonical shard store name: four digits, or more
// without a leading zero.
var shardNameRe = regexp.MustCompile(`^shard-([0-9]{4}|[1-9][0-9]{4,})$`)

// checkShardName holds ParseShardStoreName to the round trip, and to
// refusing every name outside the canonical grammar. Digit runs too
// long for an int are refused as well.
func checkShardName(t *testing.T, s string) {
	t.Helper()
	i, ok := ParseShardStoreName(s)
	if ok && (i < 0 || ShardStoreName(i) != s) {
		t.Fatalf("ParseShardStoreName(%q) = %d, which ShardStoreName names %q", s, i, ShardStoreName(i))
	}
	canonical := shardNameRe.MatchString(s)
	if ok && !canonical {
		t.Fatalf("ParseShardStoreName accepted the non-canonical %q as shard %d", s, i)
	}
	if !ok && canonical && len(s) <= len("shard-")+18 {
		t.Fatalf("ParseShardStoreName refused the canonical %q", s)
	}
}

func TestShardStoreNames(t *testing.T) {
	for _, c := range []struct {
		name string
		i    int
		ok   bool
	}{
		{"shard-0000", 0, true}, {"shard-0001", 1, true}, {"shard-9999", 9999, true}, {"shard-10000", 10000, true},
		{"shard-1", 0, false}, {"shard-+001", 0, false}, {"shard-0001junk", 0, false}, {"shard-00000", 0, false},
		{"shard--001", 0, false}, {"shard-", 0, false}, {"shard-01000", 0, false}, {"shard-0x10", 0, false},
		{"shard-0001\n", 0, false}, {"Shard-0001", 0, false}, {"hub", 0, false}, {"shard-99999999999999999999", 0, false},
	} {
		checkShardName(t, c.name)
		if i, ok := ParseShardStoreName(c.name); i != c.i || ok != c.ok {
			t.Errorf("ParseShardStoreName(%q) = %d, %v; want %d, %v", c.name, i, ok, c.i, c.ok)
		}
	}
	for _, i := range []int{0, 7, 42, 9999, 10000, 123456} {
		if got, ok := ParseShardStoreName(ShardStoreName(i)); !ok || got != i {
			t.Errorf("ParseShardStoreName(ShardStoreName(%d)) = %d, %v", i, got, ok)
		}
	}
}

// A shard layout is exactly shard-0000…shard-(n-1); anything else is
// refused by the offending name.
func TestShardCount(t *testing.T) {
	for _, c := range []struct {
		names   []string
		n       int
		refuses string
	}{
		{nil, 0, ""},
		{[]string{"other", "hub"}, 0, ""},
		{[]string{"shard-0001", "x", "shard-0000"}, 2, ""},
		{[]string{"shard-0000", "shard-00000"}, 0, "shard-00000"},
		{[]string{"shard-0000", "shard-0000"}, 0, "shard-0000"},
		{[]string{"shard-0000", "shard-0002"}, 0, "shard-0001"},
		{[]string{"shard-0001"}, 0, "shard-0000"},
		{[]string{"shard-1"}, 0, "shard-1"},
	} {
		n, err := ShardCount(c.names)
		if c.refuses == "" {
			if err != nil || n != c.n {
				t.Errorf("ShardCount(%q) = %d, %v; want %d", c.names, n, err, c.n)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), strconv.Quote(c.refuses)) {
			t.Errorf("ShardCount(%q) = %d, %v; want a refusal naming %s", c.names, n, err, c.refuses)
		}
	}
}

func FuzzShardStoreName(f *testing.F) {
	for _, s := range []string{"shard-0000", "shard-0001", "shard-10000", "shard-1", "shard-+001", "shard-0001junk",
		"shard-00000", "shard--001", "shard-", "shard-9223372036854775807", "shard-99999999999999999999", "é", "\xff"} {
		f.Add(s)
	}
	f.Fuzz(checkShardName)
}
