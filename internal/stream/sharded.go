package stream

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"durability/internal/stochastic"
)

// ShardedEngine partitions subscriptions across N engines by consistent
// hash of (stream, subscription). The exec seam already shards *within* a
// refresh (fresh roots of one subscription fan across workers); this
// shards *across* subscriptions: one tick fans out to every shard
// concurrently, each shard refreshing its own subscription set, and the
// per-shard results merge back in sorted, deterministic order.
//
// Bit-for-bit parity with a single engine is a consequence of the
// engine's determinism invariant, restated one level up: a subscription's
// answer depends only on (spec, the state sequence it observed) — its
// fresh roots draw substreams indexed from its own root counter, its
// moments fold in root order, and plan searches are
// pure functions of their cache key. Placement therefore cannot leak into
// answers, so 4 shards and 1 shard produce identical bytes; the test
// suite enforces this.
//
// Each shard is also its own recovery lineage: give each shard its own
// journal (SetJournal on Shard(i)) backed by its own persist.Store, and
// the shards checkpoint, replay and fail over independently. Every stream
// is registered on every shard, so one shard's WAL replays without the
// others; after a crash the shards may have applied different tick
// prefixes, which CatchUp reconciles by republishing the missing states.
type ShardedEngine struct {
	ring    *Ring
	engines []*Engine
	nextSub atomic.Uint64
}

// NewSharded builds shards engines over the shared config (they share its
// Runner — and so its plan cache — and its Exec; plans are pure functions
// of their key, so sharing them across shards is free determinism-wise).
// replicas tunes ring vnodes per shard (<= 0 selects the default).
func NewSharded(cfg Config, shards, replicas int) *ShardedEngine {
	if shards < 1 {
		shards = 1
	}
	cfg = cfg.withDefaults()
	se := &ShardedEngine{ring: NewRing(shards, replicas)}
	for i := 0; i < shards; i++ {
		se.engines = append(se.engines, NewEngine(cfg))
	}
	return se
}

// Shards returns the shard count.
func (se *ShardedEngine) Shards() int { return len(se.engines) }

// Shard returns the i'th engine, for per-shard persistence wiring
// (SetJournal, Snapshot, Restore, Apply).
func (se *ShardedEngine) Shard(i int) *Engine { return se.engines[i] }

// Ring returns the placement ring.
func (se *ShardedEngine) Ring() *Ring { return se.ring }

// Register creates the named live state on every shard.
func (se *ShardedEngine) Register(name string, proc stochastic.Process, initial stochastic.State) error {
	return se.RegisterModel(name, name, proc, initial)
}

// RegisterModel is Register with an explicit model identifier.
func (se *ShardedEngine) RegisterModel(name, modelID string, proc stochastic.Process, initial stochastic.State) error {
	for i, eng := range se.engines {
		if err := eng.RegisterModel(name, modelID, proc, initial); err != nil {
			return fmt.Errorf("stream: shard %d: %w", i, err)
		}
	}
	return nil
}

// Ensure registers the named live state on every shard if any lacks it.
func (se *ShardedEngine) Ensure(name string, proc stochastic.Process, initial stochastic.State) error {
	for i, eng := range se.engines {
		if err := eng.Ensure(name, proc, initial); err != nil {
			return fmt.Errorf("stream: shard %d: %w", i, err)
		}
	}
	return nil
}

// Has reports whether the named stream exists (on shard 0; registration
// is all-shards).
func (se *ShardedEngine) Has(name string) bool { return se.engines[0].Has(name) }

// Tick returns the named stream's tick as the minimum over shards — the
// tick every shard has fully applied. The shards only diverge transiently
// (a crash between per-shard journal writes) until CatchUp reconciles.
func (se *ShardedEngine) Tick(name string) (int64, bool) {
	var min int64
	for i, eng := range se.engines {
		t, ok := eng.Tick(name)
		if !ok {
			return 0, false
		}
		if i == 0 || t < min {
			min = t
		}
	}
	return min, true
}

// ShardTicks returns each shard's tick for the named stream.
func (se *ShardedEngine) ShardTicks(name string) ([]int64, bool) {
	out := make([]int64, len(se.engines))
	for i, eng := range se.engines {
		t, ok := eng.Tick(name)
		if !ok {
			return nil, false
		}
		out[i] = t
	}
	return out, true
}

// Subscribe assigns the next subscription ID from the shared sequence,
// places it by consistent hash of (stream, id), and registers it on the
// owning shard. The ID sequence matches what a single engine would assign
// for the same subscribe order, which is half of bit-for-bit parity (the
// other half is per-subscription numeric independence).
func (se *ShardedEngine) Subscribe(ctx context.Context, spec SubSpec) (*Subscription, error) {
	id := se.nextSub.Add(1)
	shard := se.ring.Shard(spec.Stream, id)
	return se.engines[shard].SubscribeAssigned(ctx, spec, id)
}

// SyncNextSub resumes the shared ID sequence from the shards — call after
// restoring or replaying per-shard state.
func (se *ShardedEngine) SyncNextSub() {
	var max uint64
	for _, eng := range se.engines {
		if m := eng.MaxSubID(); m > max {
			max = m
		}
	}
	se.nextSub.Store(max)
}

// Update publishes the state to every shard concurrently and merges the
// per-shard refreshes, ordered by subscription ID — the order a single
// engine would emit. Per-shard errors (a shard whose journal has gone
// sticky, say) are joined in shard order; refreshes from healthy shards
// are still returned, so one wedged shard degrades rather than hides the
// tick.
func (se *ShardedEngine) Update(ctx context.Context, name string, st stochastic.State) ([]Refresh, error) {
	if len(se.engines) == 1 {
		return se.engines[0].Update(ctx, name, st)
	}
	results := make([][]Refresh, len(se.engines))
	errs := make([]error, len(se.engines))
	var wg sync.WaitGroup
	for i, eng := range se.engines {
		wg.Add(1)
		go func(i int, eng *Engine) {
			defer wg.Done()
			results[i], errs[i] = eng.Update(ctx, name, st)
		}(i, eng)
	}
	wg.Wait()
	var out []Refresh
	for _, rs := range results {
		out = append(out, rs...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SubID < out[j].SubID })
	var joined []error
	for i, err := range errs {
		if err != nil {
			joined = append(joined, fmt.Errorf("shard %d: %w", i, err))
		}
	}
	return out, errors.Join(joined...)
}

// Subscription finds a live subscription by ID across the shards.
func (se *ShardedEngine) Subscription(id uint64) (*Subscription, bool) {
	for _, eng := range se.engines {
		if sub, ok := eng.Subscription(id); ok {
			return sub, true
		}
	}
	return nil, false
}

// Subscriptions returns every live subscription across the shards,
// ordered by ID.
func (se *ShardedEngine) Subscriptions() []*Subscription {
	var out []*Subscription
	for _, eng := range se.engines {
		out = append(out, eng.Subscriptions()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	return out
}

// Stats sums the shard counters. Streams is taken from shard 0
// (registration is all-shards, so every shard sees the same set).
func (se *ShardedEngine) Stats() EngineStats {
	var out EngineStats
	for i, eng := range se.engines {
		st := eng.Stats()
		if i == 0 {
			out.Streams = st.Streams
			out.Ticks = st.Ticks
		}
		out.Subscriptions += st.Subscriptions
		out.Refreshes += st.Refreshes
		out.FreshRoots += st.FreshRoots
		out.FreshSteps += st.FreshSteps
		out.SearchSteps += st.SearchSteps
		out.Replans += st.Replans
		out.DroppedRoots += st.DroppedRoots
	}
	return out
}

// CatchUp reconciles shard tick divergence on one stream after recovery
// or promotion: a crash between per-shard journal writes can leave some
// shards a few ticks behind the stream's authoritative clock. stateAt
// must return the state published at tick k (feeds are deterministic
// functions of (seed, stream, k), so the caller can recompute any tick);
// CatchUp republishes exactly the missing states to each lagging shard,
// which re-runs the same refresh code the uninterrupted server ran —
// determinism makes the result bit-for-bit the state it would have had.
//
// target is the tick to converge on (the stream's clock); shards already
// at target are untouched. Catch-up updates journal normally if a journal
// is attached; recovery paths typically attach journals only afterwards.
func (se *ShardedEngine) CatchUp(ctx context.Context, name string, target int64, stateAt func(tick int64) (stochastic.State, error)) error {
	for i, eng := range se.engines {
		t, ok := eng.Tick(name)
		if !ok {
			continue // stream never registered on this shard's lineage
		}
		if t > target {
			return fmt.Errorf("stream: shard %d is at tick %d, ahead of target %d for %q — lineages diverged", i, t, target, name)
		}
		for k := t + 1; k <= target; k++ {
			st, err := stateAt(k)
			if err != nil {
				return fmt.Errorf("stream: recomputing tick %d of %q: %w", k, name, err)
			}
			if _, err := eng.Update(ctx, name, st); err != nil {
				return fmt.Errorf("stream: shard %d catching up tick %d of %q: %w", i, k, name, err)
			}
		}
	}
	return nil
}
