package core

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"durability/internal/rng"
)

// randomPlan derives a valid plan from arbitrary fuzz bytes.
func randomPlan(raw []byte) (Plan, bool) {
	set := map[float64]bool{}
	for _, b := range raw {
		v := (float64(b) + 1) / 257 // strictly inside (0,1)
		set[v] = true
	}
	if len(set) == 0 {
		return Plan{}, false
	}
	var bs []float64
	for v := range set {
		bs = append(bs, v)
	}
	sort.Float64s(bs)
	p, err := NewPlan(bs...)
	if err != nil {
		return Plan{}, false
	}
	return p, true
}

// Property: LevelOf is monotone non-decreasing in f, bounded by [0, M],
// and consistent with Boundary: LevelOf(Boundary(i)) >= i.
func TestQuickLevelOfMonotone(t *testing.T) {
	f := func(raw []byte, samples []float64) bool {
		p, ok := randomPlan(raw)
		if !ok {
			return true
		}
		clean := samples[:0]
		for _, v := range samples {
			if !math.IsNaN(v) {
				clean = append(clean, math.Mod(math.Abs(v), 1.2))
			}
		}
		sort.Float64s(clean)
		prev := -1
		for _, v := range clean {
			lv := p.LevelOf(v)
			if lv < 0 || lv > p.M() {
				return false
			}
			if lv < prev {
				return false
			}
			prev = lv
		}
		for i := 1; i <= p.M(); i++ {
			if p.LevelOf(p.Boundary(i)) < i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: counter addition is commutative and associative (up to float
// re-association slack), and estimate stays within [0, +inf).
func TestQuickCountersAlgebra(t *testing.T) {
	build := func(vals []float64, m int) Counters {
		c := NewCounters(m)
		for i, v := range vals {
			v = math.Abs(v)
			if math.IsNaN(v) || math.IsInf(v, 0) || v > 1e6 {
				v = 1
			}
			switch i % 4 {
			case 0:
				c.Land[1+i%m] += v
			case 1:
				c.Skip[1+i%m] += v
			case 2:
				c.Mu[1+i%m] += v / (v + 1) // keep mu <= land-ish scale
			default:
				c.Hits += v
			}
		}
		return c
	}
	f := func(a, b []float64) bool {
		const m = 3
		ca, cb := build(a, m), build(b, m)
		ab := NewCounters(m)
		ab.Add(ca)
		ab.Add(cb)
		ba := NewCounters(m)
		ba.Add(cb)
		ba.Add(ca)
		for i := range ab.Land {
			if math.Abs(ab.Land[i]-ba.Land[i]) > 1e-9 ||
				math.Abs(ab.Skip[i]-ba.Skip[i]) > 1e-9 ||
				math.Abs(ab.Mu[i]-ba.Mu[i]) > 1e-9 {
				return false
			}
		}
		est := ab.estimate(100, m, 0)
		return est >= 0 && !math.IsNaN(est)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: bootstrap variance is non-negative and finite once at least
// two groups exist, for arbitrary counter contents.
func TestQuickBootstrapVarianceSane(t *testing.T) {
	src := rng.New(99)
	f := func(hits []uint8) bool {
		if len(hits) < 2 {
			return true
		}
		units := make([]Counters, len(hits))
		for i, h := range hits {
			c := NewCounters(2)
			c.Land[1] = float64(h % 5)
			c.Mu[1] = float64(h%5) * 0.5
			c.Hits = float64(h % 3)
			units[i] = c
		}
		v := BootstrapVarianceFromGroups(units, 1, 2, 0, 50, src)
		return v >= 0 && !math.IsNaN(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: with an empty root pool the moment variance is infinite
// (cannot stop), and it becomes finite exactly when two roots exist.
func TestQuickPoolVarianceTransition(t *testing.T) {
	mom := NewMoments(2, 0)
	one := NewCounters(2)
	one.Land[1], one.Mu[1], one.Hits = 1, 1, 1
	if v := mom.Variance(2); !math.IsInf(v, 1) {
		t.Fatalf("empty pool variance = %v", v)
	}
	mom.Add(one)
	if v := mom.Variance(2); !math.IsInf(v, 1) {
		t.Fatalf("one-root pool variance = %v", v)
	}
	mom.Add(one)
	if v := mom.Variance(2); math.IsInf(v, 1) || math.IsNaN(v) {
		t.Fatalf("two-root pool variance = %v", v)
	}
}
