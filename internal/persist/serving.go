package persist

import (
	"context"
	"fmt"

	"durability/internal/serve"
	"durability/internal/stream"
)

// ServingSnapshot is the snapshot payload shared by every serving front
// end: the standing-query engine's full state plus the warm plan cache.
// A sharded front end writes one per engine shard and carries the plans
// in one of them only (cmd/durserve: shard-0000's).
//
//durlint:gobroot
type ServingSnapshot struct {
	Engine stream.EngineSnapshot
	Plans  []serve.WarmPlan
}

// EngineJournal adapts a Store into the stream engine's journal: every
// engine mutation becomes one WAL record.
type EngineJournal struct {
	Store *Store
}

// Record implements stream.Journal.
func (j EngineJournal) Record(ev stream.JournalEvent) (int64, error) {
	return j.Store.Append(ev)
}

// Lineage is one engine's durable lineage: the store that journals it,
// the engine it rebuilds, the plan cache that rides in its snapshots
// (nil for a lineage that carries none) and the resolver that rebuilds
// stream dynamics and observers by name. It is the one owner of the
// serving protocol: the snapshot payload, how a snapshot and WAL
// records rebuild the engine — at recovery and on a follower — and what
// a checkpoint writes. Restore, RestoreFile and Apply never touch Store,
// so a follower's lineage may leave it nil.
type Lineage struct {
	Store   *Store
	Engine  *stream.Engine
	Plans   *serve.PlanCache
	Resolve stream.Resolver
}

// Restore loads a snapshot: its warm plans when the lineage carries a
// plan cache, then the engine state.
func (l *Lineage) Restore(snap *ServingSnapshot) error {
	if l.Plans != nil {
		for _, wp := range snap.Plans {
			l.Plans.Warm(wp.Key, wp.Plan)
		}
	}
	return l.Engine.Restore(snap.Engine, l.Resolve)
}

// RestoreFile loads the snapshot file at path; found == false (the
// lineage was never checkpointed) restores nothing. It has the shape of
// replicate.StoreHooks.Restore.
func (l *Lineage) RestoreFile(path string, found bool) error {
	if !found {
		return nil
	}
	var snap ServingSnapshot
	ok, err := ReadSnapshotFile(nil, path, &snap)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("persist: snapshot %s is unreadable", path)
	}
	return l.Restore(&snap)
}

// Apply replays one WAL record into the engine; a record that is not an
// engine event is refused, naming its type. It has the shape of
// replicate.StoreHooks.Apply.
func (l *Lineage) Apply(lsn int64, ev any) error {
	jev, ok := ev.(stream.JournalEvent)
	if !ok {
		return fmt.Errorf("persist: record lsn %d is %T, not an engine event", lsn, ev)
	}
	return l.Engine.Apply(context.Background(), lsn, jev, l.Resolve)
}

// Recover rebuilds the engine from the store — its latest snapshot,
// then the WAL tail — and reports how many records were replayed.
func (l *Lineage) Recover() (replayed int, err error) {
	var snap ServingSnapshot
	_, replayed, err = l.Store.Recover(&snap,
		func(found bool) error {
			if !found {
				return nil
			}
			return l.Restore(&snap)
		},
		l.Apply)
	return replayed, err
}

// Checkpoint surfaces any write error the store holds, then writes a
// snapshot of the engine (and of the plan cache, when the lineage
// carries one) and compacts the log behind it.
func (l *Lineage) Checkpoint() error {
	if err := l.Store.Err(); err != nil {
		return err
	}
	return l.Store.Checkpoint(func() (any, error) {
		snap := &ServingSnapshot{Engine: l.Engine.Snapshot()}
		if l.Plans != nil {
			snap.Plans = l.Plans.Export()
		}
		return snap, nil
	})
}

// CheckpointIfDue checkpoints when the store's size or age trigger has
// fired (Store.NeedCheckpoint) and reports whether it tried. It is the
// one checkpoint rule: callers check it once a tick's appends are done,
// outside every engine lock.
func (l *Lineage) CheckpointIfDue() (bool, error) {
	if !l.Store.NeedCheckpoint() {
		return false, nil
	}
	return true, l.Checkpoint()
}
