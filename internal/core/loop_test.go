package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"durability/internal/mc"
	"durability/internal/rng"
)

// unitRange serves units as a RootRange, one step per root.
func unitRange(units []Counters) RootRange {
	return func(_ context.Context, lo, hi int64, into *Pool) error {
		hi = min(hi, int64(len(units)))
		return into.FoldUnits(ShardResult{Groups: units[lo:hi], Roots: hi - lo, Steps: hi - lo})
	}
}

// poolOf folds units, in order, into a fresh pool, as a loop round does.
func poolOf(units []Counters, m, initLevel int) Pool {
	p := NewPool(m, initLevel)
	for _, u := range units {
		p.Counters.Add(u)
		p.Moments.Add(u)
	}
	p.Roots, p.Steps = int64(len(units)), int64(len(units))
	return p
}

// everyLevel targets every boundary above the start level under stop.
func everyLevel(m, initLevel int, stop mc.StopRule) []Target {
	var targets []Target
	for level := initLevel + 1; level <= m; level++ {
		targets = append(targets, Target{Level: level, Stop: stop})
	}
	return targets
}

// The replay invariant: a pool seeded with batches, run for k more
// rounds, answers == one in-order evaluation of the same batches, and
// hands over rounds == the batches it simulated. A standing query's live
// refresh (seeded loop) and its replay (in-order evaluation) rely on it.
func TestLoopSeededPoolIsInOrderEvaluation(t *testing.T) {
	const batch, seeded = 64, 4
	for _, sh := range momentShapes() {
		m, initLevel := sh[0], sh[1]
		units := oracleGroups(rng.New(uint64(5*m+initLevel)), 10*batch, m)
		var batches []Pool
		for lo := 0; lo < len(units); lo += batch {
			batches = append(batches, poolOf(units[lo:lo+batch], m, initLevel))
		}
		for _, k := range []int{0, 1, 6} {
			name := fmt.Sprintf("m=%d/init=%d/rounds=%d", m, initLevel, k)
			pool := NewPool(m, initLevel)
			for i := range batches[:seeded] {
				pool.Merge(&batches[i])
			}
			targets := everyLevel(m, initLevel, mc.Budget{Steps: int64((seeded + k) * batch)})
			var rounds []Pool
			got, err := pool.Run(context.Background(), unitRange(units[seeded*batch:]), batch, targets, func(r *Pool, _ []mc.Result) {
				rounds = append(rounds, *r)
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want := NewPool(m, initLevel)
			for i := range batches[:seeded+k] {
				want.Merge(&batches[i])
			}
			for i, tg := range targets {
				if w := want.Result(tg.Level); stripTimes(got[i]) != w {
					t.Fatalf("%s: target %d: loop %+v != in-order evaluation %+v", name, tg.Level, got[i], w)
				}
			}
			if len(rounds) != k || k > 0 && !reflect.DeepEqual(rounds, batches[seeded:seeded+k]) {
				t.Fatalf("%s: the loop handed over %d rounds that are not the batches it simulated", name, len(rounds))
			}
		}
	}
}

// With every target sharing one run, each result is its own prefix
// estimate, moment variance and crossings over the fold of all units —
// and an empty pool runs one round even under a zero-step budget.
func TestLoopMultiTargetResultsArePrefixesOfTheFold(t *testing.T) {
	for _, sh := range momentShapes() {
		m, initLevel := sh[0], sh[1]
		units := oracleGroups(rng.New(uint64(11*m+initLevel)), 300, m)
		pool := NewPool(m, initLevel)
		targets := everyLevel(m, initLevel, mc.Budget{Steps: 0})
		got, err := pool.Run(context.Background(), unitRange(units), len(units), targets, nil)
		if err != nil {
			t.Fatal(err)
		}
		agg := NewCounters(m)
		for _, u := range units {
			agg.Add(u)
		}
		mom := fold(units, m, initLevel)
		n := int64(len(units))
		for i, tg := range targets {
			want := mc.Result{
				P:        EstimatePrefixFromCounters(agg, n, m, tg.Level, initLevel),
				Variance: mom.Variance(tg.Level),
				Steps:    n,
				Paths:    n,
				Hits:     int64(PrefixCrossings(agg, m, tg.Level)),
			}
			if stripTimes(got[i]) != want {
				t.Fatalf("m=%d init=%d target %d: %+v, want %+v", m, initLevel, tg.Level, got[i], want)
			}
		}
	}
}

// A packed pool views back to the pool it packed, bit for bit, from its
// own array; parts whose shapes disagree do not pack.
func TestPackKeepsEveryBit(t *testing.T) {
	for _, sh := range momentShapes() {
		m, initLevel := sh[0], sh[1]
		units := oracleGroups(rng.New(uint64(3*m+initLevel)), 50, m)
		loose := Pool{Counters: NewCounters(m), Moments: NewMoments(m, initLevel), Roots: 50, Steps: 77}
		for _, u := range units {
			loose.addRoot(u)
		}
		packed, err := Pack(loose)
		if err != nil {
			t.Fatal(err)
		}
		view := packed.Pool()
		if !reflect.DeepEqual(view, loose) {
			t.Fatalf("m=%d init=%d: packed %+v != loose %+v", m, initLevel, view, loose)
		}
		if &view.Counters.Land[0] == &loose.Counters.Land[0] || &view.Moments.Co[0] == &loose.Moments.Co[0] {
			t.Fatalf("m=%d init=%d: Pack aliased the pool it packed", m, initLevel)
		}
	}
	for _, bad := range []Pool{
		{Counters: NewCounters(3), Moments: NewMoments(4, 0)},
		{Counters: NewCounters(4), Moments: Moments{M: 4, First: 1, Mean: make([]float64, 7)}},
		{Counters: NewCounters(4), Moments: Moments{M: 4, First: 5}},
	} {
		if _, err := Pack(bad); err == nil {
			t.Fatalf("Pack accepted parts of disagreeing shapes: %+v", bad)
		}
	}
}

// A pool is one allocation, and a seed pool carved from a scratch large
// enough for its shape is none, across shapes.
func TestNewPoolAllocs(t *testing.T) {
	if allocs := testing.AllocsPerRun(100, func() { _ = NewPool(6, 1) }); allocs != 1 {
		t.Fatalf("NewPool allocates %v times, want 1", allocs)
	}
	var scratch []float64
	big := NewPoolOn(&scratch, 6, 0)
	big.Counters.Land[1], big.Moments.Co[0] = 5, 7
	if allocs := testing.AllocsPerRun(100, func() {
		p := NewPoolOn(&scratch, 4, 2)
		if p.Counters.Land[1] != 0 || p.Moments.Co[0] != 0 || len(p.Moments.Co) != 6 {
			t.Fatal("a reused scratch pool is not empty and of its own shape")
		}
		_ = NewPoolOn(&scratch, 6, 0)
	}); allocs != 0 {
		t.Fatalf("NewPoolOn on a large enough scratch allocates %v times, want 0", allocs)
	}
}
