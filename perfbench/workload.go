package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strconv"
	"time"

	"durability/internal/serve"
)

type kind int

const (
	kindQuery kind = iota // POST /query
	kindBatch             // POST /batch
	kindTicks             // POST /subscribe at setup, then POST /tick
)

// serverConfig is one workload's server: the durserve flags the HTTP run
// starts it with and, equivalently, the settings the traced run composes
// the same layers with. Zero model fields keep durserve's defaults.
type serverConfig struct {
	Seed             uint64
	S0, Sigma, Drift float64
	Coalesce         time.Duration // -coalesce; durserve's default is 2ms
	Durable          bool          // -data-dir, Shards engine shards and a follower process
	Shards           int
	CheckpointBytes  int64 // a size trigger, so checkpoints fall on the same ticks in every run
	FollowPoll       time.Duration
}

// checkpointPoll is how often durserve polls its stores' checkpoint
// triggers; the traced run polls at the same rate.
const checkpointPoll = time.Second

// args renders the durserve flags, minus the listen address and data
// directory, which each process gets its own of.
func (c serverConfig) args() []string {
	a := []string{"-seed", strconv.FormatUint(c.Seed, 10), "-coalesce", c.Coalesce.String()}
	if c.S0 != 0 {
		a = append(a, "-s0", fmt.Sprint(c.S0), "-sigma", fmt.Sprint(c.Sigma), "-drift", fmt.Sprint(c.Drift))
	}
	if c.Durable {
		a = append(a, "-shards", strconv.Itoa(c.Shards), "-checkpoint-bytes", strconv.FormatInt(c.CheckpointBytes, 10))
	}
	return a
}

// params is the model parameter set durserve builds its registry from
// under args().
func (c serverConfig) params() modelParams {
	p := defaultParams()
	if c.S0 != 0 {
		p.s0, p.sigma, p.drift = c.S0, c.Sigma, c.Drift
	}
	return p
}

// workload is one traffic mix: the server it runs against, how much load
// a window holds, and how big its state is. Every workload is a closed
// loop, so a slower stretch of the machine lengthens the requests it
// slows and no others. PerSecond was calibrated on a 2-core x86 box so
// that a window's operations take about its length.
type workload struct {
	Name   string
	Why    string
	Kind   kind
	Server serverConfig

	PerSecond float64 // operations per second of window: queries, ladder arrivals (a pair is one) or ticks
	Subs      int     // standing queries registered at setup (ticks)
	Churn     int     // subscriptions replaced after every tick (ticks)
}

const streamName = "gbm"

var workloads = []workload{
	{
		Name: "query-mix",
		Why:  "independent one-shot queries at a fixed relative error: splitting and the plan cache pay off, a cold slice keeps the level search in the window",
		Kind: kindQuery,
		Server: serverConfig{
			Seed:     1,
			Coalesce: 2 * time.Millisecond,
		},
		PerSecond: 30,
	},
	{
		Name: "batch-ladder",
		Why:  "threshold ladders answered by one covering plan and shared run; identical ladders arriving together coalesce",
		Kind: kindBatch,
		Server: serverConfig{
			Seed:     1,
			Coalesce: 2 * time.Millisecond,
		},
		PerSecond: 34,
	},
	{
		Name: "durable-ticks",
		Why:  "incremental maintenance of standing queries under state updates, with subscription churn journaled to a WAL, checkpoints, a follower applying every record, and crash recovery",
		Kind: kindTicks,
		Server: serverConfig{
			Seed: 42, S0: 100, Sigma: 0.01, Drift: 0.0003,
			Coalesce:        2 * time.Millisecond,
			Durable:         true,
			Shards:          4,
			CheckpointBytes: 32 << 10,
			FollowPoll:      20 * time.Millisecond,
		},
		PerSecond: 8,
		Subs:      500,
		Churn:     2,
	},
}

// warmTicks are ticked at set-up, after the subscriptions: the first two
// ticks after subscribing simulate some twenty times the fresh steps of a
// later tick and take ten times as long, a start-up cost that would
// otherwise sit inside the window.
const warmTicks = 3

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// subscribeReq is the body of durserve's POST /subscribe.
type subscribeReq struct {
	Model    string  `json:"model"`
	Beta     float64 `json:"beta"`
	Horizon  int     `json:"horizon"`
	RelErr   float64 `json:"re,omitempty"`
	Seed     uint64  `json:"seed,omitempty"`
	DriftTol float64 `json:"driftTol,omitempty"`
}

// op is one generated request (or, for ticks, one tick plus the churn
// that follows it on the same connection).
type op struct {
	ID    int
	Pair  bool // sent together with the op before it, on a second connection
	Query *serve.Request
	Batch *serve.BatchRequest
	Sub   *subscribeReq
	Tick  bool
	Drop  []int          // subscription indices deleted after the tick
	Add   []subscribeReq // subscriptions created after the tick; indices continue the sequence
}

// schedule is everything the generator decides for one run. The server
// receives nothing else.
type schedule struct {
	Warm  []op // set-up: warm-up queries or ladders, or the subscriptions
	Ops   []op // the measured window, in the order they are sent
	Probe op   // the first request after a crash, for durserve.recovery_s
}

// watched is the subscription a long poll follows; churn never drops it.
const watched = 0

// shape is one query shape: model, threshold, horizon.
type shape struct {
	model   string
	beta    float64
	horizon int
}

// The query-mix: cheap cached shapes, a queue shape of middling cost, a
// rare-event walk (p around 4.5e-3) and a cold slice in plan-cache buckets
// the run has not seen. The shares put each reported percentile inside
// one class's latency plateau — p50 among the queue queries, p90 among
// the rare ones — so a few queries landing on either side of a class
// boundary cannot swing it.
var (
	hotShapes = []shape{{"gbm", 1300, 250}, {"gbm", 2000, 250}, {"gbm", 3000, 250}, {"cpp", 40, 250}, {"cpp", 60, 250}, {"walk", 20, 250}, {"walk", 25, 250}}
	queryMix  = []struct {
		share  float64
		shapes []shape // nil: the cold slice
	}{
		{0.30, hotShapes},
		{0.45, []shape{{"queue", 30, 500}}},
		{0.23, []shape{{"walk", 28, 100}}},
		{0.02, nil},
	}
	// coldBuckets are plan-cache threshold buckets (width 0.1, log scale)
	// no warm shape lands in. Each cold query takes a bucket and one of
	// coldHorizons not yet used in the run, so it pays a level search.
	coldBuckets = []struct {
		model   string
		buckets []int
	}{
		{"gbm", []int{76, 77, 78, 80, 81, 82, 83}},
		{"cpp", []int{36, 37, 39, 40, 41}},
		{"walk", []int{28, 29, 30, 32, 34}},
	}
	coldHorizons = []int{250, 300}
)

// ladderFamilies are the batch-ladder threshold grids. A warm ladder is
// the top five to eight grid points (four covering plans per family), so
// a family's cost is set by its one hardest threshold; a cold one is a
// covering plan the cache has not seen. Warm ladders take a median of
// about 8 ms (cpp, gbm), 25 ms (walk) and 52 ms (queue) to answer; the
// shares put p50 inside the walk plateau and p90 inside the queue one.
var ladderFamilies = []struct {
	model   string
	horizon int
	grid    []float64
	share   float64
}{
	{"cpp", 250, []float64{20, 25, 30, 35, 40, 45, 50, 60}, 0.15},
	{"gbm", 250, []float64{1100, 1300, 1500, 1700, 2000, 2300, 2600, 3000}, 0.15},
	{"walk", 100, []float64{10, 13, 16, 19, 22, 25, 28, 32}, 0.40},
	{"queue", 500, []float64{18, 20, 22, 25, 27, 30, 33, 36}, 0.30},
}

// relErr is every query's and ladder's relative-error target. At 0.1 a
// query costs about twice as much, and a window would hold half as many.
const relErr = 0.15

// generate builds a workload's schedule for a window of the given length.
// The same seed always yields the same schedule.
func generate(w workload, seed uint64, window time.Duration) schedule {
	rng := rand.New(rand.NewPCG(seed, 0x70657266))
	reqSeed := func() uint64 { return 1 + rng.Uint64N(1<<31) }
	n := round(w.PerSecond * window.Seconds())
	var s schedule
	switch w.Kind {
	case kindQuery:
		var shares []float64
		for _, c := range queryMix {
			shares = append(shares, c.share)
			for _, sh := range c.shapes {
				s.Warm = append(s.Warm, op{Query: sh.query(reqSeed())})
			}
		}
		s.Probe = op{Query: s.Warm[0].Query}
		// Exact shares, each shape of a class equally often, shuffled:
		// runs at different seeds carry the same mix in another order.
		cold := coldShapes(rng)
		dealt := make([]int, len(queryMix))
		for i, c := range dealShares(rng, n, shares) {
			shapes := queryMix[c].shapes
			if shapes == nil {
				shapes = cold
			}
			sh := shapes[dealt[c]%len(shapes)]
			dealt[c]++
			s.Ops = append(s.Ops, op{ID: i, Query: sh.query(reqSeed())})
		}

	case kindBatch:
		var shares []float64
		for _, f := range ladderFamilies {
			shares = append(shares, f.share)
			for k := 5; k <= len(f.grid); k++ {
				s.Warm = append(s.Warm, op{Batch: ladder(f.model, f.horizon, f.grid[len(f.grid)-k:], reqSeed())})
			}
		}
		s.Probe = op{Batch: s.Warm[0].Batch}
		// Each arrival is one ladder or, half the time, two identical
		// ones (same thresholds and seed) sent together — the compatible
		// pair the server coalesces when both land inside its window.
		// Every arrival has its own seed, so unrelated ladders never
		// share a run and every answer is a pure function of its request.
		// Families, ladder lengths and pairing are dealt in exact shares.
		fams, lens, pairs := dealShares(rng, n, shares), deal(rng, n, 4), deal(rng, n, 2)
		// One arrival per family is cold: every other grid point, moved
		// off the grid — a threshold set no warm ladder has. Its covering
		// plan is searched from a seed derived from the set, so every run
		// pays the same four searches whatever its seed.
		cold := make([]bool, n)
		for fi := range ladderFamilies {
			var mine []int
			for i, f := range fams {
				if f == fi {
					mine = append(mine, i)
				}
			}
			if len(mine) > 0 {
				cold[mine[rng.IntN(len(mine))]] = true
			}
		}
		id := 0
		for i, fi := range fams {
			f := ladderFamilies[fi]
			betas := f.grid[len(f.grid)-(5+lens[i]):]
			if cold[i] {
				betas = nil
				for j := 0; j < len(f.grid); j += 2 {
					betas = append(betas, f.grid[j]+1)
				}
			}
			b := ladder(f.model, f.horizon, betas, reqSeed())
			s.Ops = append(s.Ops, op{ID: id, Batch: b})
			id++
			if !cold[i] && pairs[i] == 0 {
				s.Ops = append(s.Ops, op{ID: id, Pair: true, Batch: b})
				id++
			}
		}

	case kindTicks:
		next := 0
		newSub := func(beta float64) subscribeReq {
			r := subscribeReq{
				Model:    streamName,
				Beta:     beta,
				Horizon:  64,
				RelErr:   subTarget,
				Seed:     reqSeed(),
				DriftTol: 0.005 + 0.004*float64(next%12),
			}
			next++
			return r
		}
		// Set-up thresholds span 104–119: 16 shapes over three plan-cache
		// buckets, near the feed's start price of 100.
		for i := 0; i < w.Subs; i++ {
			r := newSub(104 + float64(i%16))
			s.Warm = append(s.Warm, op{Sub: &r})
		}
		for i := 0; i < warmTicks; i++ {
			s.Warm = append(s.Warm, op{Tick: true})
		}
		// Churned thresholds stay in the buckets whose representative
		// thresholds (123.2, and 135.5 for the one in ten that opens a new
		// bucket) lie above the seed-42 feed's highest price, 119.5, and
		// near those buckets' lower edges, 117.4 and 129.1. durserve
		// replays a shard's WAL before its hub snapshot re-warms the plan
		// cache, so a replayed subscribe searches again; a search at a
		// representative below the live price fails, and the restarted
		// daemon cannot boot.
		churned := 0
		churnBeta := func() float64 {
			churned++
			if churned%10 == 0 {
				return 130 + float64(churned/10%4)
			}
			return 118 + float64(churned%7)
		}
		s.Probe = op{Tick: true}
		if !w.Server.Durable {
			s.Probe = op{Sub: s.Warm[watched].Sub}
		}
		live := make([]int, 0, w.Subs)
		for i := 0; i < w.Subs; i++ {
			if i != watched {
				live = append(live, i)
			}
		}
		for k := 0; k < n; k++ {
			o := op{ID: k, Tick: true}
			for c := 0; c < w.Churn && len(live) > 0; c++ {
				j := rng.IntN(len(live))
				o.Drop = append(o.Drop, live[j])
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			for c := 0; c < w.Churn; c++ {
				live = append(live, next)
				o.Add = append(o.Add, newSub(churnBeta()))
			}
			s.Ops = append(s.Ops, o)
		}
	}
	return s
}

// coldShapes lists one query per cold bucket and horizon at the bucket's
// representative threshold, shuffled within each model and interleaved
// across models, so any prefix spreads evenly over them.
func coldShapes(rng *rand.Rand) []shape {
	var perModel [][]shape
	total := 0
	for _, cb := range coldBuckets {
		var shapes []shape
		for _, b := range cb.buckets {
			for _, h := range coldHorizons {
				shapes = append(shapes, shape{cb.model, math.Pow(1+serve.DefaultBetaBucketWidth, float64(b)+0.5), h})
			}
		}
		rng.Shuffle(len(shapes), func(i, j int) { shapes[i], shapes[j] = shapes[j], shapes[i] })
		perModel = append(perModel, shapes)
		total += len(shapes)
	}
	var out []shape
	for j := 0; len(out) < total; j++ {
		for _, shapes := range perModel {
			if j < len(shapes) {
				out = append(out, shapes[j])
			}
		}
	}
	return out
}

// dealShares assigns n items to classes in exactly the given shares
// (rounded by largest remainder), in shuffled order.
func dealShares(rng *rand.Rand, n int, shares []float64) []int {
	counts := make([]int, len(shares))
	order := make([]int, len(shares))
	total := 0
	for i, share := range shares {
		counts[i] = int(share * float64(n))
		total += counts[i]
		order[i] = i
	}
	frac := func(i int) float64 { return shares[i]*float64(n) - float64(counts[i]) }
	sort.SliceStable(order, func(a, b int) bool { return frac(order[a]) > frac(order[b]) })
	for j := 0; total < n; j++ {
		counts[order[j%len(order)]]++
		total++
	}
	out := make([]int, 0, n)
	for i, c := range counts {
		for k := 0; k < c; k++ {
			out = append(out, i)
		}
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// deal assigns n items to k classes in equal shares, in shuffled order.
func deal(rng *rand.Rand, n, k int) []int {
	shares := make([]float64, k)
	for i := range shares {
		shares[i] = 1 / float64(k)
	}
	return dealShares(rng, n, shares)
}

func (sh shape) query(seed uint64) *serve.Request {
	return &serve.Request{Model: sh.model, Beta: sh.beta, Horizon: sh.horizon, RelErr: relErr, Seed: seed}
}

func ladder(model string, horizon int, betas []float64, seed uint64) *serve.BatchRequest {
	return &serve.BatchRequest{Model: model, Betas: append([]float64(nil), betas...), Horizon: horizon, RelErr: relErr, Seed: seed}
}

func round(x float64) int { return int(math.Round(x)) }
