// Package planstats is the per-plan crossing-statistics ledger behind
// plan-quality observability: every g-MLSS run books the level counters
// it already computed — per-level attempted/crossed counts, roots,
// steps — under the plan-cache key that selected its plan, so the
// serving layer can compare each cached plan's §5.2 search assumptions
// against the crossing probabilities live traffic actually exhibits.
//
// The ledger sits below every other package: internal/core imports
// internal/telemetry, so a package both of them (and serve, stream,
// durserve) can feed must be stdlib-only. Callers therefore pass plain
// float64 slices in core.Counters layout (index j of Land/Skip/Mu is
// level j, length m+1) rather than core types.
//
// Cost discipline matches telemetry.Histogram: the booking hot path is
// lock-free — per-level CAS float adds plus atomic integer adds — and
// scrapes never block bookings. Each booked delta is a whole run's
// aggregate, itself merged in root order by the sampler, so two
// identically driven servers book identical deltas in identical order
// and every non-duration ledger value stays byte-identical between
// them (the cluster backend ships per-shard counters inside ShardReply
// and the coordinator folds them in root order before booking, so
// cluster attribution is exact, not approximate).
//
// Drift semantics: at splittable level j (1 <= j <= m-1) the observed
// conditional crossing probability is (Mu[j]+Skip[j])/(Land[j]+Skip[j])
// — of everything that reached level j, the fraction that advanced to
// j+1. The search designs boundaries so that crossing into level l
// happens with probability ~1/ratio(l) (balanced growth: each arrival
// spawns ratio(l) offspring), so the assumed probability for the j→j+1
// crossing is 1/ratio(j+1), falling back to the uniform ratio past the
// last per-level entry. The entry probability (root start to its first
// level) has no designed counterpart and is excluded from drift.
// MaxDrift is the maximum |observed − assumed| over levels with at
// least one attempt; levels never attempted report a nil Observed.
package planstats

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Key identifies a family of queries that can share a partition plan:
// the plan cache's key (serve.PlanKey is this type) and the ledger's.
type Key struct {
	Model      string `json:"model"`      // model identity (the process being simulated)
	Observer   string `json:"observer"`   // observer identity (which quantity is thresholded)
	BetaBucket int    `json:"betaBucket"` // normalized threshold bucket (log scale)
	Horizon    int    `json:"horizon"`    // query horizon
	Ratio      int    `json:"ratio"`      // splitting ratio the plan was tuned for
	Search     string `json:"search"`     // search strategy ("greedy", "balanced(tau,m)", ...)
	Start      int    `json:"start"`      // start-state drift bucket (0 for canonical initial states)
	// Set is the threshold-set bucket for batch covering plans: the
	// canonical encoding of every requested threshold's ratio to the
	// batch's top threshold. Two batches asking the same ladder shape
	// (the common serving case — many users, one product's threshold
	// lattice) share one covering plan; single-threshold queries leave it
	// empty.
	Set string `json:"set,omitempty"`
}

// String renders a compact deterministic label, stable enough to key
// metric series and log lines.
func (k Key) String() string {
	return fmt.Sprintf("%s/%s bb=%d h=%d r=%d %s start=%d set=%s",
		k.Model, k.Observer, k.BetaBucket, k.Horizon, k.Ratio, k.Search, k.Start, k.Set)
}

// Less orders keys lexicographically field by field, giving every plan
// and snapshot listing one canonical order.
func (k Key) Less(o Key) bool {
	if k.Model != o.Model {
		return k.Model < o.Model
	}
	if k.Observer != o.Observer {
		return k.Observer < o.Observer
	}
	if k.BetaBucket != o.BetaBucket {
		return k.BetaBucket < o.BetaBucket
	}
	if k.Horizon != o.Horizon {
		return k.Horizon < o.Horizon
	}
	if k.Ratio != o.Ratio {
		return k.Ratio < o.Ratio
	}
	if k.Search != o.Search {
		return k.Search < o.Search
	}
	if k.Start != o.Start {
		return k.Start < o.Start
	}
	return k.Set < o.Set
}

// Shape is the plan the statistics accumulate under: the interior
// boundaries plus the splitting ratios the sampler actually used.
// Counters booked under different shapes are not comparable (the same
// contract core.Plan.Equal states), so a shape change — re-search after
// invalidation, a replan — resets the entry.
type Shape struct {
	Boundaries []float64
	Ratio      int
	Ratios     []int
}

// Equal reports whether two shapes accumulate comparably: identical
// boundaries and splitting ratios.
func (s Shape) Equal(o Shape) bool {
	if len(s.Boundaries) != len(o.Boundaries) || s.Ratio != o.Ratio || len(s.Ratios) != len(o.Ratios) {
		return false
	}
	for i, b := range s.Boundaries {
		if b != o.Boundaries[i] {
			return false
		}
	}
	for i, r := range s.Ratios {
		if r != o.Ratios[i] {
			return false
		}
	}
	return true
}

// m is the number of level-advancement probabilities (the paper's m).
func (s Shape) m() int { return len(s.Boundaries) + 1 }

// Delta is one run's finalized counters in core.Counters layout: index
// j of Land/Skip/Mu is level j, slices are m+1 long. The slices are
// read, never retained.
type Delta struct {
	Land, Skip, Mu []float64
	Hits           float64
	Roots, Steps   int64
}

// entryState is the accumulator for one (key, shape) lineage. Floats
// accumulate as CAS'd float64 bits (the telemetry.Histogram idiom);
// integers are plain atomics.
type entryState struct {
	shape              Shape
	land, skip, mu     []atomic.Uint64 // float64 bits, index = level, len m+1
	hits               atomic.Uint64   // float64 bits
	runs, roots, steps atomic.Int64
}

func newEntryState(shape Shape) *entryState {
	n := shape.m() + 1
	return &entryState{
		shape: shape,
		land:  make([]atomic.Uint64, n),
		skip:  make([]atomic.Uint64, n),
		mu:    make([]atomic.Uint64, n),
	}
}

func addFloat(a *atomic.Uint64, v float64) {
	if v == 0 {
		return
	}
	for {
		old := a.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if a.CompareAndSwap(old, next) {
			return
		}
	}
}

// Entry holds one key's accumulator behind an atomically swappable
// state pointer, so a plan-shape change resets the lineage without a
// lock on the booking path.
type Entry struct {
	state atomic.Pointer[entryState]
}

// stateFor returns the accumulator for shape, resetting the entry when
// the cached plan's shape changed. A lost reset race simply books into
// whichever lineage won — both carry the new shape.
func (e *Entry) stateFor(shape Shape) *entryState {
	for {
		st := e.state.Load()
		if st != nil && st.shape.Equal(shape) {
			return st
		}
		fresh := newEntryState(shape)
		if e.state.CompareAndSwap(st, fresh) {
			return fresh
		}
	}
}

// OnBook observes one key's snapshot immediately after a booking — the
// drift-metrics bridge. Set it before the first booking; it runs on the
// booking goroutine, so keep it cheap.
type OnBook func(Key, Snapshot)

// Ledger maps plan keys to crossing-statistics entries. The map is
// RWMutex-guarded (bookings of an existing key take only the read
// lock); each entry's hot path is lock-free.
type Ledger struct {
	mu      sync.RWMutex
	entries map[Key]*Entry

	// OnBook, when non-nil, runs after every booking. Assign it during
	// wiring, before any booking.
	OnBook OnBook
}

// NewLedger builds an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{entries: make(map[Key]*Entry)}
}

func (l *Ledger) entry(key Key) *Entry {
	l.mu.RLock()
	e, ok := l.entries[key]
	l.mu.RUnlock()
	if ok {
		return e
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if e, ok = l.entries[key]; ok {
		return e
	}
	e = &Entry{}
	l.entries[key] = e
	return e
}

// Book folds one run's counters into the key's entry. A nil ledger
// books nothing, so optional observability needs no call-site checks.
func (l *Ledger) Book(key Key, shape Shape, d Delta) {
	if l == nil {
		return
	}
	e := l.entry(key)
	st := e.stateFor(shape)
	n := len(st.land)
	for j := 0; j < n && j < len(d.Land); j++ {
		addFloat(&st.land[j], d.Land[j])
	}
	for j := 0; j < n && j < len(d.Skip); j++ {
		addFloat(&st.skip[j], d.Skip[j])
	}
	for j := 0; j < n && j < len(d.Mu); j++ {
		addFloat(&st.mu[j], d.Mu[j])
	}
	addFloat(&st.hits, d.Hits)
	st.runs.Add(1)
	st.roots.Add(d.Roots)
	st.steps.Add(d.Steps)
	if l.OnBook != nil {
		l.OnBook(key, snapshotState(st))
	}
}

// LevelStat is one splittable level's observed-vs-assumed crossing
// statistics.
type LevelStat struct {
	// Level j covers the crossing from level j to j+1; Boundary is
	// beta_j, the boundary defining the level.
	Level    int     `json:"level"`
	Boundary float64 `json:"boundary"`
	// Attempted is everything that reached level j (landed there or
	// skipped past it); Crossed is the subset that advanced to j+1.
	Attempted float64 `json:"attempted"`
	Crossed   float64 `json:"crossed"`
	// Observed is Crossed/Attempted, nil when nothing ever attempted
	// this level; Assumed is the search's designed crossing probability
	// (1/ratio of the landing level).
	Observed *float64 `json:"observed"`
	Assumed  float64  `json:"assumed"`
	// Drift is |Observed − Assumed|, nil exactly when Observed is.
	Drift *float64 `json:"drift"`
}

// Snapshot is one key's point-in-time ledger view. Every field is a
// pure function of the booked deltas — no durations, no wall clock —
// so identically driven servers snapshot byte-identical values.
type Snapshot struct {
	Key        Key       `json:"key"`
	Boundaries []float64 `json:"boundaries"`
	Ratio      int       `json:"ratio"`
	Ratios     []int     `json:"ratios,omitempty"`

	Runs  int64   `json:"runs"`
	Roots int64   `json:"roots"`
	Steps int64   `json:"steps"`
	Hits  float64 `json:"hits"`

	Levels []LevelStat `json:"levels"`
	// MaxDrift is the largest per-level |observed − assumed| (0 when no
	// level was ever attempted); Observed reports whether any level has
	// attempts, i.e. whether MaxDrift means anything.
	MaxDrift float64 `json:"maxDrift"`
	Observed bool    `json:"observedAny"`
}

// assumedAt returns the designed crossing probability for the j→j+1
// crossing: arrivals into level l spawn ratio(l) offspring, so balanced
// growth wants the crossing into l to happen with probability
// 1/ratio(l). Per-level ratios index landing levels (Ratios[l-1] is
// level l's); past their end — including the final crossing into the
// target — the uniform ratio applies.
func assumedAt(shape Shape, j int) float64 {
	landing := j + 1
	r := shape.Ratio
	if landing-1 < len(shape.Ratios) && shape.Ratios[landing-1] > 0 {
		r = shape.Ratios[landing-1]
	}
	if r < 1 {
		r = 1
	}
	return 1 / float64(r)
}

func snapshotState(st *entryState) Snapshot {
	shape := st.shape
	m := shape.m()
	snap := Snapshot{
		Boundaries: append([]float64(nil), shape.Boundaries...),
		Ratio:      shape.Ratio,
		Ratios:     append([]int(nil), shape.Ratios...),
		Runs:       st.runs.Load(),
		Roots:      st.roots.Load(),
		Steps:      st.steps.Load(),
		Hits:       math.Float64frombits(st.hits.Load()),
		Levels:     make([]LevelStat, 0, m-1),
	}
	for j := 1; j < m; j++ {
		land := math.Float64frombits(st.land[j].Load())
		skip := math.Float64frombits(st.skip[j].Load())
		mu := math.Float64frombits(st.mu[j].Load())
		ls := LevelStat{
			Level:     j,
			Boundary:  shape.Boundaries[j-1],
			Attempted: land + skip,
			Crossed:   mu + skip,
			Assumed:   assumedAt(shape, j),
		}
		if ls.Attempted > 0 {
			obs := ls.Crossed / ls.Attempted
			drift := math.Abs(obs - ls.Assumed)
			ls.Observed, ls.Drift = &obs, &drift
			snap.Observed = true
			if drift > snap.MaxDrift {
				snap.MaxDrift = drift
			}
		}
		snap.Levels = append(snap.Levels, ls)
	}
	return snap
}

// Describe returns the per-level statistics of a never-run shape: every
// splittable level with its boundary and assumed crossing probability,
// nothing observed. Introspection endpoints use it for cached plans that
// have no ledger entry yet.
func Describe(shape Shape) []LevelStat {
	return snapshotState(newEntryState(shape)).Levels
}

// Snapshot returns the key's current view, or false when the key has
// never been booked.
func (l *Ledger) Snapshot(key Key) (Snapshot, bool) {
	if l == nil {
		return Snapshot{}, false
	}
	l.mu.RLock()
	e, ok := l.entries[key]
	l.mu.RUnlock()
	if !ok {
		return Snapshot{}, false
	}
	st := e.state.Load()
	if st == nil {
		return Snapshot{}, false
	}
	snap := snapshotState(st)
	snap.Key = key
	return snap, true
}

// Snapshots returns every booked key's view in canonical key order.
func (l *Ledger) Snapshots() []Snapshot {
	if l == nil {
		return nil
	}
	l.mu.RLock()
	keys := make([]Key, 0, len(l.entries))
	for k := range l.entries {
		keys = append(keys, k)
	}
	l.mu.RUnlock()
	sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
	out := make([]Snapshot, 0, len(keys))
	for _, k := range keys {
		if snap, ok := l.Snapshot(k); ok {
			out = append(out, snap)
		}
	}
	return out
}

// Len reports how many keys have entries.
func (l *Ledger) Len() int {
	if l == nil {
		return 0
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.entries)
}
