package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"durability/internal/mc"
	"durability/internal/rng"
	"durability/internal/stats"
	"durability/internal/stochastic"
)

// twoPassVariance is the delta-method variance computed the textbook
// way, as an oracle for Moments: means first, then each root's score psi
// from them, then the sample variance of psi.
func twoPassVariance(units []Counters, m, initLevel, target int) float64 {
	n := len(units)
	if n < 2 {
		return math.Inf(1)
	}
	first := initLevel + 1
	if target < first || target > m {
		return 0
	}
	mean := func(f func(Counters) float64) float64 {
		s := 0.0
		for _, u := range units {
			s += f(u)
		}
		return s / float64(n)
	}
	a := func(l int) func(Counters) float64 { return func(u Counters) float64 { return u.Land[l] + u.Skip[l] } }
	b := func(l int) func(Counters) float64 { return func(u Counters) float64 { return u.Mu[l] + u.Skip[l] } }
	type term struct {
		x func(Counters) float64
		c float64
	}
	var terms []term
	var tau float64
	switch {
	case first == m:
		hits := func(u Counters) float64 { return u.Hits }
		tau = mean(hits)
		terms = []term{{hits, 1 / tau}}
	case target == first:
		tau = mean(a(first))
		terms = []term{{a(first), 1 / tau}}
	default:
		tau = mean(a(first))
		for l := first; l < target; l++ {
			abar, bbar := mean(a(l)), mean(b(l))
			if abar == 0 {
				return 0
			}
			tau *= bbar / abar
			terms = append(terms, term{b(l), 1 / bbar})
			if l > first {
				terms = append(terms, term{a(l), -1 / abar})
			}
		}
	}
	if tau == 0 {
		return 0
	}
	var acc stats.Accumulator
	for _, u := range units {
		psi := 0.0
		for _, tm := range terms {
			psi += tm.c * tm.x(u)
		}
		acc.Add(psi)
	}
	return tau * tau * acc.Variance() / float64(n)
}

func fold(units []Counters, m, initLevel int) Moments {
	mom := NewMoments(m, initLevel)
	for _, u := range units {
		mom.Add(u)
	}
	return mom
}

// momentShapes lists (m, initLevel) plan shapes, including first == m
// (the Hits-only vector) and a dense 100-boundary ladder whose vector
// is longer than Add's stack buffer.
func momentShapes() [][2]int {
	var shapes [][2]int
	for m := 1; m <= 6; m++ {
		for initLevel := 0; initLevel < m; initLevel++ {
			shapes = append(shapes, [2]int{m, initLevel})
		}
	}
	return append(shapes, [2]int{100, 0}, [2]int{100, 60}, [2]int{100, 99})
}

// Moments' one-pass updates must reproduce the two-pass oracle on every
// target shape: below or at the start level, the first watched boundary
// alone, interior prefixes, the top, and beyond it.
func TestMomentsMatchTwoPass(t *testing.T) {
	for _, sh := range momentShapes() {
		m, initLevel := sh[0], sh[1]
		for _, n := range []int{0, 1, 2, 3, 300} {
			units := oracleGroups(rng.New(uint64(7*m+initLevel+1000*n)), n, m)
			mom := fold(units, m, initLevel)
			for target := 0; target <= m+1; target++ {
				got, want := mom.Variance(target), twoPassVariance(units, m, initLevel, target)
				if math.IsInf(want, 1) != math.IsInf(got, 1) || math.Abs(got-want) > 1e-9*math.Abs(want)+1e-300 {
					t.Fatalf("m=%d init=%d n=%d target=%d: moments %v, two-pass %v", m, initLevel, n, target, got, want)
				}
			}
		}
	}
}

// On random per-root pools the delta-method variance agrees with §4.2's
// bootstrap, run over the same per-root units, within the bootstrap's
// sampling noise: for t == m and first == m through
// BootstrapVarianceFromGroups, for t == first and t <= initLevel through
// the prefix reference loop.
func TestMomentsMatchBootstrap(t *testing.T) {
	const n, reps = 4000, 1000
	for _, sh := range [][2]int{{1, 0}, {3, 0}, {5, 1}, {5, 4}} {
		m, initLevel := sh[0], sh[1]
		first := initLevel + 1
		units := oracleGroups(rng.New(uint64(m*10+initLevel)), n, m)
		mom := fold(units, m, initLevel)
		check := func(what string, got, boot float64) {
			t.Helper()
			if boot == 0 {
				if got != 0 {
					t.Errorf("m=%d init=%d %s: moments %v, bootstrap 0", m, initLevel, what, got)
				}
				return
			}
			if r := got / boot; r < 0.85 || r > 1.15 {
				t.Errorf("m=%d init=%d %s: moments %v vs bootstrap %v (ratio %.3f)", m, initLevel, what, got, boot, r)
			}
		}
		check("top", mom.Variance(m), BootstrapVarianceFromGroups(units, 1, m, initLevel, reps, rng.New(1)))
		prefixes := referencePrefixVariances(units, 1, m, initLevel, []int{first, initLevel}, reps, rng.New(2))
		check("first", mom.Variance(first), prefixes[0])
		check("start level", mom.Variance(initLevel), prefixes[1])
	}
}

// Add is Merge of a one-root Moments, bit for bit, and merging into empty
// moments copies.
func TestMomentsAddIsMergeOfOne(t *testing.T) {
	for _, sh := range momentShapes() {
		m, initLevel := sh[0], sh[1]
		units := oracleGroups(rng.New(uint64(m+initLevel)), 50, m)
		added, merged := NewMoments(m, initLevel), NewMoments(m, initLevel)
		for _, u := range units {
			added.Add(u)
			one := NewMoments(m, initLevel)
			one.Add(u)
			merged.Merge(&one)
		}
		name := fmt.Sprintf("m=%d/init=%d", m, initLevel)
		sameMoments(t, name+"/add-vs-merge", &merged, &added)
		empty := NewMoments(m, initLevel)
		empty.Merge(&added)
		sameMoments(t, name+"/merge-into-empty", &empty, &added)
	}
}

// The per-root fold, a merge and an evaluation allocate nothing while a
// root's vector fits the stack buffer.
func TestMomentsAllocFree(t *testing.T) {
	const m = 8
	units := oracleGroups(rng.New(1), 16, m)
	mom, other := fold(units, m, 0), fold(units, m, 0)
	for name, f := range map[string]func(){
		"Add":      func() { mom.Add(units[3]) },
		"Merge":    func() { mom.Merge(&other) },
		"Variance": func() { mom.Variance(m - 2) },
	} {
		if allocs := testing.AllocsPerRun(50, f); allocs != 0 {
			t.Errorf("%s: %v allocs, want 0", name, allocs)
		}
	}
}

// The estimator loops fold per-root units in root order, so moments
// merged across rounds are one fold in root order whatever the rounds'
// cuts: RunOn over a RootRange that simulates each round as several
// irregular sub-ranges (as a cluster cuts it) returns Run's result.
func TestMomentsFoldAcrossRounds(t *testing.T) {
	chain, q, plan, _ := skipChain()
	g := &GMLSS{Proc: chain, Query: q, Plan: plan, Ratio: 3,
		Stop: mc.Budget{Steps: 200_000}, Seed: 5}
	want, err := g.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got, err := g.RunOn(context.Background(), func(ctx context.Context, lo, hi int64, into *Pool) error {
		var out ShardResult
		for cut := lo; cut < hi; {
			next := min(hi, cut+1+(cut*7)%45)
			part, err := g.RunRootsBy(ctx, cut, next, 1)
			if err != nil {
				return err
			}
			out.Groups = append(out.Groups, part.Groups...)
			out.Roots += part.Roots
			out.Steps += part.Steps
			cut = next
		}
		return into.FoldUnits(out)
	})
	if err != nil {
		t.Fatal(err)
	}
	if want.Paths <= 128 || math.IsInf(want.Variance, 1) {
		t.Fatalf("degenerate run: %+v", want)
	}
	want.Elapsed, want.VarTime, got.Elapsed, got.VarTime = 0, 0, 0, 0
	if got != want {
		t.Fatalf("irregular rounds %+v != Run %+v", got, want)
	}
}

// A stream pool merges per-batch moments in pool order. Floating-point
// addition is not associative, so the merge is not the bits of one fold;
// it is deterministic (equal bits for equal batches in equal order) and
// within rounding of the one fold.
func TestMomentsMergeAcrossBatches(t *testing.T) {
	for _, sh := range momentShapes() {
		m, initLevel := sh[0], sh[1]
		units := oracleGroups(rng.New(uint64(3*m+initLevel)), 640, m)
		one := fold(units, m, initLevel)
		merge := func() Moments {
			pool := NewMoments(m, initLevel)
			for lo := 0; lo < len(units); lo += 64 {
				batch := fold(units[lo:lo+64], m, initLevel)
				pool.Merge(&batch)
			}
			return pool
		}
		a, b := merge(), merge()
		name := fmt.Sprintf("m=%d/init=%d", m, initLevel)
		sameMoments(t, name+"/repeat", &a, &b)
		if a.N != one.N {
			t.Fatalf("%s: merged N %d, fold %d", name, a.N, one.N)
		}
		for i := range one.Mean {
			if d := math.Abs(a.Mean[i] - one.Mean[i]); d > 1e-12*math.Abs(one.Mean[i])+1e-12 {
				t.Fatalf("%s: mean[%d] merged %v, fold %v", name, i, a.Mean[i], one.Mean[i])
			}
		}
		for i := range one.Co {
			if d := math.Abs(a.Co[i] - one.Co[i]); d > 1e-9*math.Abs(one.Co[i])+1e-9 {
				t.Fatalf("%s: co[%d] merged %v, fold %v", name, i, a.Co[i], one.Co[i])
			}
		}
	}
}

func sameMoments(t *testing.T, what string, got, want *Moments) {
	t.Helper()
	if got.N != want.N || got.M != want.M || got.First != want.First {
		t.Fatalf("%s: shape (n %d, m %d, first %d) != (n %d, m %d, first %d)", what, got.N, got.M, got.First, want.N, want.M, want.First)
	}
	sameBits(t, what+"/mean", got.Mean, want.Mean)
	sameBits(t, what+"/co", got.Co, want.Co)
}

// Eq. 11 (twoLevelVariance) is the moment form plus 2·p01·p12·p02/N0,
// the covariance between landing in L1 and skipping past beta_2 that the
// closed form leaves out; the two agree up to their divisors (O(1/N0)
// relative) and so coincide when no root skips level 1.
func TestTwoLevelVarianceIsMomentsPlusSkipCovariance(t *testing.T) {
	skipping, q, plan := twoLevelChain()
	noSkip := stochastic.BirthDeathChain(12, 0.45, 2)
	for _, tc := range []struct {
		name string
		proc stochastic.Process
		q    Query
		plan Plan
	}{
		{"skipping", skipping, q, plan},
		{"no-skip", noSkip, Query{Z: stochastic.ChainIndex, Beta: 9, Horizon: 80}, MustPlan(5.0 / 9)},
	} {
		g := &GMLSS{Proc: tc.proc, Query: tc.q, Plan: tc.plan, Ratio: 3, Stop: mc.Budget{Steps: 1}, Seed: 4}
		const n = 20_000
		shard, err := g.RunRootsBy(context.Background(), 0, n, 1)
		if err != nil {
			t.Fatal(err)
		}
		agg := NewCounters(2)
		fracSq := 0.0
		for _, u := range shard.Groups {
			agg.Add(u)
			fracSq += u.Mu[1] * u.Mu[1]
		}
		eq11, ok := twoLevelVariance(agg, fracSq, n, 2, 0)
		if !ok {
			t.Fatalf("%s: Eq. 11 inapplicable: %+v", tc.name, agg)
		}
		mom := fold(shard.Groups, 2, 0)
		p01, p02, p12 := agg.Land[1]/n, agg.Skip[1]/n, agg.Mu[1]/agg.Land[1]
		cov := 2 * p01 * p12 * p02 / n
		if tc.name == "no-skip" && agg.Skip[1] != 0 {
			t.Fatalf("no-skip fixture skipped level 1 %v times", agg.Skip[1])
		}
		if tc.name == "skipping" && cov < 0.05*eq11 {
			t.Fatalf("skipping fixture's dropped covariance %v is negligible against %v", cov, eq11)
		}
		if got := mom.Variance(2) + cov; math.Abs(got-eq11) > 1e-3*eq11 {
			t.Errorf("%s: moments + 2·p01·p12·p02/n = %v, Eq. 11 = %v", tc.name, got, eq11)
		}
	}
}
