package persist

import (
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
