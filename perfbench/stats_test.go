package main

import (
	"context"
	"errors"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"durability/internal/serve"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want float64 // 0 = refused
	}{
		{20, 0.50, 10},
		{19, 0.50, 0},
		{100, 0.90, 90},
		{99, 0.90, 0},
		{1050, 0.99, 1040},
		{1000, 0.99, 990},
		{999, 0.99, 0},
		{240, 0.95, 228},
		{240, 0.99, 0},
		{0, 0.50, 0},
	} {
		got, err := percentile(seq(c.n), c.q)
		if c.want == 0 {
			if !errors.Is(err, errUnsupported) {
				t.Errorf("p%g of %d samples = %v, %v; want it refused", 100*c.q, c.n, got, err)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("p%g of %d samples = %v, %v; want %v", 100*c.q, c.n, got, err, c.want)
		}
	}
	// Input order does not matter and is left untouched.
	in := []float64{5, 3, 1, 4, 2, 10, 9, 8, 7, 6, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}
	before := slices.Clone(in)
	if got, _ := percentile(in, 0.5); got != 10 || !slices.Equal(in, before) {
		t.Errorf("p50 of shuffled 1..20 = %v (input now %v)", got, in)
	}
}

// The reference values are Python's statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9, 2}, [3]float64{1.4375, 2.75, 7.625}},
		{[]float64{5, 5}, [3]float64{5, 5, 5}},
		{[]float64{10, 20, 30}, [3]float64{10, 20, 30}},
		{[]float64{0.91, 0.95, 0.93, 0.97, 1.02, 0.88, 0.99, 0.96, 0.94, 1.0}, [3]float64{0.925, 0.955, 0.9925}},
	} {
		q1, med, q3 := quartiles(c.in)
		for i, got := range []float64{q1, med, q3} {
			if math.Abs(got-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v %v %v, want %v", c.in, q1, med, q3, c.want)
				break
			}
		}
	}
}

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "stream.update", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "core.run_roots", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "core.run_roots", Start: 30, End: 60}, // overlaps 2
		{ID: 4, Parent: 1, Name: "persist.append", Start: 80, End: 90},
		{ID: 5, Parent: 1, Name: "core.run_roots", Start: 95, End: 120}, // outlives its parent: clipped
		{ID: 6, Parent: 2, Name: "x.inner", Start: 15, End: 20},
		{ID: 7, Name: "persist.checkpoint", Start: 20, End: 50}, // no parent
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{1: 100 - (50 + 10 + 5), 2: 30 - 5, 3: 30, 6: 5, 7: 30} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestUnionLen(t *testing.T) {
	for _, c := range []struct {
		iv   []interval
		want int64
	}{
		{nil, 0},
		{[]interval{{0, 10}}, 10},
		{[]interval{{0, 10}, {10, 20}}, 20},
		{[]interval{{5, 7}, {0, 10}, {12, 13}}, 11},
		{[]interval{{0, 4}, {2, 6}, {5, 8}}, 8},
	} {
		if got := unionLen(c.iv); got != c.want {
			t.Errorf("unionLen(%v) = %d, want %d", c.iv, got, c.want)
		}
	}
}

func TestProcParsing(t *testing.T) {
	// The command name may hold spaces and parentheses.
	stat := "4242 (dur (serve) x) S 1 4242 4242 0 -1 4194560 2134 0 0 0 150 50 0 0 20 0 9 0 12345 123456 789 18446744073709551615\n"
	cpu, err := parseStatCPU(stat)
	if err != nil || cpu != 2*time.Second {
		t.Errorf("parseStatCPU = %v, %v; want 2s", cpu, err)
	}
	for _, bad := range []string{"", "4242 no-paren S 1", "4242 (x) S 1 2 3"} {
		if _, err := parseStatCPU(bad); err == nil {
			t.Errorf("parseStatCPU(%q) accepted", bad)
		}
	}
	status := "Name:\tdurserve\nVmPeak:\t  900000 kB\nVmHWM:\t   40960 kB\nVmRSS:\t   30000 kB\n"
	if b, err := parseStatusKB(status, "VmHWM"); err != nil || b != 40960<<10 {
		t.Errorf("VmHWM = %d, %v; want %d", b, err, 40960<<10)
	}
	if _, err := parseStatusKB(status, "VmSwap"); err == nil {
		t.Error("a missing key was accepted")
	}
	if _, err := parseStatusKB("VmHWM:\t 12 MB\n", "VmHWM"); err == nil {
		t.Error("a non-kB value was accepted")
	}
}

// A timing is scaled by the reference over the yardstick's mean time,
// leaving out the slowest 2%.
func TestSpeedOfTrimsTheSlowest(t *testing.T) {
	var times []time.Duration
	for i := 0; i < 100; i++ {
		d := 2 * yardstickRef // a host at half the reference speed...
		if i%50 == 0 {
			d = 100 * yardstickRef // ...with two stalls, which are trimmed
		}
		times = append(times, d)
	}
	if got := speedOf(times); got != 0.5 {
		t.Errorf("speedOf = %v, want 0.5", got)
	}
	if got := speedOf([]time.Duration{3 * yardstickRef, yardstickRef, 2 * yardstickRef}); got != 0.5 {
		t.Errorf("speedOf of 3 times = %v, want the reference over their mean, 0.5", got)
	}
	if got := speedOf(nil); got != 1 {
		t.Errorf("speedOf(nil) = %v, want no scaling", got)
	}
	if d := timeYardstick(); d <= 0 {
		t.Errorf("the yardstick took %v", d)
	}
}

func TestDigestIsOrderFreeAndSensitive(t *testing.T) {
	a := []digestEntry{{1, 0, 0.25}, {2, 3, 0.5}, {2, 1, 0.125}}
	b := []digestEntry{{2, 1, 0.125}, {1, 0, 0.25}, {2, 3, 0.5}}
	if digest(a) != digest(b) {
		t.Error("digest depends on entry order")
	}
	c := slices.Clone(a)
	c[1].p = math.Nextafter(0.5, 1)
	if digest(a) == digest(c) {
		t.Error("digest ignores the last bit of p")
	}
	d := slices.Clone(a)
	d[0].key = 1
	if digest(a) == digest(d) {
		t.Error("digest ignores the answer key")
	}
}

func TestScheduleIsSeeded(t *testing.T) {
	for _, w := range workloads {
		a, b := generate(w, 7, 5*time.Second), generate(w, 7, 5*time.Second)
		if len(a.Ops) == 0 || len(a.Warm) == 0 {
			t.Fatalf("%s: empty schedule", w.Name)
		}
		if !equalSchedules(a, b) {
			t.Errorf("%s: the same seed gave different schedules", w.Name)
		}
		if equalSchedules(a, generate(w, 8, 5*time.Second)) {
			t.Errorf("%s: different seeds gave the same schedule", w.Name)
		}
		if a.Ops[0].Pair {
			t.Errorf("%s: the first op is paired with nothing", w.Name)
		}
	}
}

func equalSchedules(a, b schedule) bool {
	if len(a.Ops) != len(b.Ops) || len(a.Warm) != len(b.Warm) {
		return false
	}
	for i := range a.Ops {
		x, y := a.Ops[i], b.Ops[i]
		if x.Pair != y.Pair || x.Tick != y.Tick || !slices.Equal(x.Drop, y.Drop) || !slices.Equal(x.Add, y.Add) {
			return false
		}
		switch {
		case x.Query != nil && (y.Query == nil || *x.Query != *y.Query):
			return false
		case x.Batch != nil && (y.Batch == nil || !slices.Equal(x.Batch.Betas, y.Batch.Betas) || x.Batch.Seed != y.Batch.Seed):
			return false
		}
	}
	for i := range a.Warm {
		x, y := a.Warm[i], b.Warm[i]
		if x.Sub != nil && (y.Sub == nil || *x.Sub != *y.Sub) {
			return false
		}
	}
	return true
}

func TestQueryMixSharesAreExact(t *testing.T) {
	w, _ := findWorkload("query-mix")
	s := generate(w, 3, 30*time.Second)
	n := float64(len(s.Ops))
	if want := w.PerSecond * 30; n != want {
		t.Fatalf("%v queries in a 30s window, want %v", n, want)
	}
	count := make([]int, len(queryMix))
	for _, o := range s.Ops {
		q := *o.Query
		class := len(queryMix) - 1 // cold unless a class lists the shape
		for c, mix := range queryMix {
			if slices.Contains(mix.shapes, shape{q.Model, q.Beta, q.Horizon}) {
				class = c
			}
		}
		count[class]++
	}
	for c, mix := range queryMix {
		if math.Abs(float64(count[c])-mix.share*n) >= 1 {
			t.Errorf("class %d: %d of %v queries, want %v", c, count[c], n, mix.share*n)
		}
	}
}

func TestDealSharesIsExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	shares := []float64{0.35, 0.35, 0.15, 0.15}
	for _, n := range []int{0, 1, 7, 160, 161} {
		got := dealShares(rng, n, shares)
		if len(got) != n {
			t.Fatalf("dealt %d of %d", len(got), n)
		}
		count := make([]int, len(shares))
		for _, c := range got {
			count[c]++
		}
		for c, share := range shares {
			if math.Abs(float64(count[c])-share*float64(n)) >= 1 {
				t.Errorf("n=%d: class %d got %d, want %v", n, c, count[c], share*float64(n))
			}
		}
	}
}

// fakeTarget answers every request after a fixed service time, one at a
// time, like a server with a single worker.
type fakeTarget struct {
	service time.Duration
	busy    chan struct{}
}

func (f *fakeTarget) serveOne(kind string) result {
	f.busy <- struct{}{}
	time.Sleep(f.service)
	<-f.busy
	return result{kind: kind, answers: []answer{{p: 0.5, ciLo: 0.4, ciHi: 0.6, relErr: 0.1, target: 0.1}}}
}

func (f *fakeTarget) query(context.Context, int, serve.Request) result { return f.serveOne("query") }
func (f *fakeTarget) batch(context.Context, int, serve.BatchRequest) result {
	return f.serveOne("batch")
}
func (f *fakeTarget) subscribe(context.Context, int, int, subscribeReq) result {
	return f.serveOne("subscribe")
}
func (f *fakeTarget) unsubscribe(context.Context, int, int) result {
	return result{kind: "unsubscribe"}
}
func (f *fakeTarget) tick(context.Context, int) result { return f.serveOne("tick") }
func (f *fakeTarget) poll(ctx context.Context, _ int, _ int64) (int64, error) {
	<-ctx.Done()
	return 0, ctx.Err()
}
func (f *fakeTarget) settle(context.Context) error { return nil }

// Every workload is a closed loop: an op goes out when the one before it
// has been answered and is timed from then, so its latency is its own
// service time however slow the ones before it were.
func TestClosedLoopTimesEachOpFromItsSend(t *testing.T) {
	for _, w := range []workload{{Kind: kindQuery}, {Kind: kindTicks}} {
		var s schedule
		for i := 0; i < 3; i++ {
			o := op{ID: i, Tick: w.Kind == kindTicks}
			if !o.Tick {
				o.Query = &serve.Request{}
			}
			s.Ops = append(s.Ops, o)
		}
		f := &fakeTarget{service: 30 * time.Millisecond, busy: make(chan struct{}, 1)}
		out := drive(context.Background(), f, w, s, 0, false)
		if len(out.ops) != 3 {
			t.Fatalf("kind %d: %d ops sent, want 3", w.Kind, len(out.ops))
		}
		for i, r := range out.ops {
			if i > 0 && r.sent < out.ops[i-1].done {
				t.Errorf("kind %d: op %d sent at %v, before op %d returned at %v", w.Kind, i, r.sent, i-1, out.ops[i-1].done)
			}
			if lat := r.latency(); lat < 30*time.Millisecond || lat > 60*time.Millisecond {
				t.Errorf("kind %d: op %d latency %v, want its service time", w.Kind, i, lat)
			}
		}
	}
}

// A pair goes out together, and the op after it waits for both answers.
func TestClosedLoopSendsPairsTogether(t *testing.T) {
	b := &serve.BatchRequest{}
	s := schedule{Ops: []op{{ID: 0, Batch: b}, {ID: 1, Pair: true, Batch: b}, {ID: 2, Batch: b}}}
	f := &fakeTarget{service: 30 * time.Millisecond, busy: make(chan struct{}, 2)}
	out := drive(context.Background(), f, workload{Kind: kindBatch}, s, 0, false)
	if len(out.ops) != 3 {
		t.Fatalf("%d ops sent, want 3", len(out.ops))
	}
	if out.ops[1].sent != out.ops[0].sent || out.ops[1].done > out.ops[0].sent+55*time.Millisecond {
		t.Errorf("pair sent at %v and %v, second answered at %v; want them served together", out.ops[0].sent, out.ops[1].sent, out.ops[1].done)
	}
	if out.ops[2].sent < max(out.ops[0].done, out.ops[1].done) {
		t.Errorf("op 2 sent at %v, before the pair was answered", out.ops[2].sent)
	}
}

// Past its limit a window sends nothing more and reports what it sent.
func TestClosedLoopStopsAtItsLimit(t *testing.T) {
	var s schedule
	for i := 0; i < 10; i++ {
		s.Ops = append(s.Ops, op{ID: i, Query: &serve.Request{}})
	}
	f := &fakeTarget{service: 30 * time.Millisecond, busy: make(chan struct{}, 1)}
	out := drive(context.Background(), f, workload{Kind: kindQuery}, s, 50*time.Millisecond, false)
	if len(out.ops) != 2 {
		t.Errorf("%d ops sent in a 50ms limit at 30ms each, want 2", len(out.ops))
	}
}
