package persist_test

import (
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"durability/internal/persist"
	"durability/internal/persist/faultfs"
)

// listingEvent is this file's WAL payload; listingSnap its snapshot.
type listingEvent struct{ N int }

type listingSnap struct{ Applied int }

// listingUnregistered is never gob-registered, so appending it fails.
type listingUnregistered struct{ N int }

func init() { gob.Register(listingEvent{}) }

// TestListingMatchesDirectoryScan drives a store through a scripted
// sequence of appends, checkpoints, compactions and recoveries, with
// faults injected into snapshot writes, compaction removes, segment
// rotation, encoding and a torn append, and checks after every step that
// Listing — kept from the store's own bookkeeping — equals a scan of the
// directory.
func TestListingMatchesDirectoryScan(t *testing.T) {
	for _, keep := range []int{1, 2} {
		t.Run(fmt.Sprintf("keep-%d", keep), func(t *testing.T) {
			dir := t.TempDir()
			rules := []*faultfs.Rule{
				{Op: faultfs.OpWrite, Path: "snap-0000000000000003"},                      // snapshot 3 never publishes
				{Op: faultfs.OpRemove, Path: "wal-0000000000000002"},                      // its first compaction fails
				{Op: faultfs.OpWrite, Path: "wal-0000000000000005"},                       // the first rotation into wal-5 fails
				{Op: faultfs.OpWrite, Path: "wal-0000000000000008", Nth: 3, KeepBytes: 7}, // a torn append
			}
			ffs := faultfs.Wrap(nil, rules...)
			opts := persist.Options{Keep: keep, FS: ffs}
			var st *persist.Store
			n := 0
			recover := func() {
				var err error
				if st, err = persist.Open(dir, opts); err != nil {
					t.Fatal(err)
				}
				if _, _, err := st.Recover(&listingSnap{}, nil, nil); err != nil {
					t.Fatal(err)
				}
			}
			appendOK := func(k int) {
				for ; k > 0; k-- {
					n++
					if _, err := st.Append(listingEvent{N: n}); err != nil {
						t.Fatal(err)
					}
				}
			}
			checkpoint := func(wantErr bool) {
				err := st.Checkpoint(func() (any, error) { return &listingSnap{Applied: n}, nil })
				if (err != nil) != wantErr {
					t.Fatalf("Checkpoint error %v, want error %v", err, wantErr)
				}
			}
			steps := []struct {
				name string
				do   func()
			}{
				{"recover fresh", recover},
				{"append", func() { appendOK(3) }},
				{"checkpoint 2", func() { checkpoint(false) }},
				{"append", func() { appendOK(2) }},
				{"checkpoint 3, snapshot write fails", func() {
					checkpoint(true)
					if _, err := os.Stat(filepath.Join(dir, "snap-0000000000000003")); !os.IsNotExist(err) {
						t.Fatalf("a snapshot whose write failed was published (stat: %v)", err)
					}
				}},
				{"append after a failed publish", func() { appendOK(2) }},
				{"checkpoint 4, a compaction remove fails", func() { checkpoint(false) }},
				{"append", func() { appendOK(1) }},
				{"checkpoint, rotation fails", func() { checkpoint(true) }},
				{"append after a failed rotation", func() { appendOK(1) }},
				{"checkpoint 5", func() { checkpoint(false) }},
				{"append an unregistered type", func() {
					if _, err := st.Append(listingUnregistered{}); err == nil {
						t.Fatal("Append of an unregistered type succeeded")
					}
				}},
				{"append into a fresh segment", func() { appendOK(2) }},
				{"restart", func() { st.Close(); recover() }},
				{"append after recovery", func() { appendOK(1) }},
				{"checkpoint 8", func() { checkpoint(false) }},
				{"torn append", func() {
					appendOK(1)
					if _, err := st.Append(listingEvent{N: n + 1}); err == nil {
						t.Fatal("torn append succeeded")
					}
				}},
				{"restart after the torn append", func() { st.Close(); recover() }},
				{"append", func() { appendOK(2) }},
				{"checkpoint", func() { checkpoint(false) }},
			}
			for _, step := range steps {
				step.do()
				got, err := st.Listing()
				if err != nil {
					t.Fatalf("%s: Listing: %v", step.name, err)
				}
				want, err := st.DiskListing()
				if err != nil {
					t.Fatalf("%s: directory scan: %v", step.name, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: Listing %+v, directory scan %+v", step.name, got, want)
				}
			}
			st.Close()
			for _, r := range rules {
				if !ffs.Fired(r) {
					t.Errorf("fault %+v never fired", *r)
				}
			}
		})
	}
}
