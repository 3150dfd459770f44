// Sharding one query across a worker fleet — and proving it changes
// nothing but the placement.
//
// The paper notes (§3.1) that MLSS root paths are independent and
// "straightforward to parallelize on a group of machines". This example
// exercises the execution seam that implements the observation: it spins
// up two in-process shard workers (stand-ins for remote machines — the
// transport is the same net/rpc the real fleet uses), runs one durability
// query with the plain in-process sampler, on the local execution
// backend and again sharded across the workers, and checks the three
// answers bit for bit. It then does the same for a threshold ladder
// answered by one shared run, and for a standing query maintained over
// ten ticks of a live price stream — the three callers of core's one
// estimator loop, each on both backends. The one-shot and the ladder
// run once more with every round pinned to one kernel: idle CPUs join
// rounds elsewhere, and that must not move an answer either.
//
// Root path i draws from PRNG substream i of the query seed no matter
// which machine simulates it, every root comes back as its own unit, and
// units fold in root-index order — so
// equality is exact, not approximate, and a worker fleet can be grown,
// shrunk or half-lost (dead workers are retried on survivors) without
// the answer moving.
//
//	go run ./examples/sharded-serve
package main

import (
	"context"
	"fmt"
	"log"

	"durability/internal/cluster"
	"durability/internal/core"
	"durability/internal/exec"
	"durability/internal/mc"
	"durability/internal/rng"
	"durability/internal/stochastic"
	"durability/internal/stream"
)

func main() {
	ctx := context.Background()

	// The model fleet workers rebuild by name: a GBM price process.
	// Only names and plain-data snapshots travel over the wire.
	newMarket := func() *stochastic.GBM { return &stochastic.GBM{S0: 100, Mu: 0.0003, Sigma: 0.01} }
	registry := cluster.Registry{
		"gbm": func() (stochastic.Process, map[string]stochastic.Observer, error) {
			return newMarket(), map[string]stochastic.Observer{"price": stochastic.ScalarValue}, nil
		},
	}

	// Two shard workers on loopback listeners — one per "machine".
	addrs, stop, err := cluster.ServeLocal(registry, 2, 2)
	if err != nil {
		log.Fatal(err)
	}
	defer stop()
	backend := exec.NewCluster(addrs...)
	defer backend.Close()

	// One durability query: P(price reaches 130 within 250 steps).
	task := exec.Task{
		Proc:       newMarket(),
		Obs:        stochastic.ScalarValue,
		Model:      "gbm",
		Observer:   "price",
		Beta:       130,
		Horizon:    250,
		Boundaries: []float64{0.85, 0.93},
		Ratio:      3,
		Seed:       7,
	}
	quality := mc.Any{mc.RETarget{Target: 0.1}, mc.Budget{Steps: 50_000_000}}
	opt := exec.SampleOptions{Stop: quality}

	// The same query on the in-process sampler, with no execution backend.
	inline := &core.GMLSS{
		Proc:  newMarket(),
		Query: core.Query{Value: core.ThresholdValue(task.Obs, task.Beta), Horizon: task.Horizon},
		Plan:  core.MustPlan(task.Boundaries...),
		Ratio: task.Ratio,
		Stop:  quality,
		Seed:  task.Seed,
	}
	plain, err := inline.Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	local, err := exec.Sample(ctx, exec.Local{}, task, opt)
	if err != nil {
		log.Fatal(err)
	}
	sharded, err := exec.Sample(ctx, backend, task, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("one-shot query  inline: P = %.6g  (%d steps, %d roots)\n", plain.P, plain.Steps, plain.Paths)
	fmt.Printf("one-shot query   local: P = %.6g  (%d steps, %d roots)\n", local.P, local.Steps, local.Paths)
	fmt.Printf("one-shot query sharded: P = %.6g  (%d steps, %d roots)\n", sharded.P, sharded.Steps, sharded.Paths)
	for _, r := range []struct {
		name string
		res  mc.Result
	}{{"local", local}, {"sharded", sharded}} {
		if r.res.P != plain.P || r.res.Variance != plain.Variance || r.res.Steps != plain.Steps || r.res.Paths != plain.Paths {
			log.Fatalf("%s run diverged from the in-process sampler — the determinism invariant is broken", r.name)
		}
	}
	fmt.Println("bit-for-bit equal: in-process sampler, local backend, 2 workers")

	// A threshold ladder — 0.85, 0.93 and 1 times the threshold, the
	// plan's three boundaries — answered by one shared run per backend.
	ladder := []core.Target{{Level: 1, Stop: quality}, {Level: 2, Stop: quality}, {Level: 3, Stop: quality}}
	localLadder, err := exec.SampleBatch(ctx, exec.Local{}, task, ladder, exec.SampleOptions{})
	if err != nil {
		log.Fatal(err)
	}
	shardedLadder, err := exec.SampleBatch(ctx, backend, task, ladder, exec.SampleOptions{})
	if err != nil {
		log.Fatal(err)
	}
	for i, l := range localLadder {
		s := shardedLadder[i]
		if s.P != l.P || s.Variance != l.Variance || s.Steps != l.Steps || s.Paths != l.Paths || s.Hits != l.Hits {
			log.Fatalf("ladder level %d: sharded %v diverged from local %v", ladder[i].Level, s, l)
		}
	}
	fmt.Printf("threshold ladder: P = %.6g / %.6g / %.6g over one run of %d steps, bit-for-bit equal across backends\n",
		localLadder[0].P, localLadder[1].P, localLadder[2].P, localLadder[0].Steps)

	// Rounds above ran as wide as the idle CPUs allowed. Pinned to one
	// kernel per round, the one-shot and the ladder must not move.
	narrow := task
	narrow.SimWorkers = 1
	narrowOne, err := exec.Sample(ctx, exec.Local{}, narrow, opt)
	if err != nil {
		log.Fatal(err)
	}
	if narrowOne.P != local.P || narrowOne.Variance != local.Variance || narrowOne.Steps != local.Steps || narrowOne.Paths != local.Paths {
		log.Fatalf("one-shot at width 1 %v diverged from the lending run %v", narrowOne, local)
	}
	narrowLadder, err := exec.SampleBatch(ctx, exec.Local{}, narrow, ladder, exec.SampleOptions{})
	if err != nil {
		log.Fatal(err)
	}
	for i, l := range localLadder {
		n := narrowLadder[i]
		if n.P != l.P || n.Variance != l.Variance || n.Steps != l.Steps || n.Paths != l.Paths || n.Hits != l.Hits {
			log.Fatalf("ladder level %d at width 1 %v diverged from the lending run %v", ladder[i].Level, n, l)
		}
	}
	fmt.Println("bit-for-bit equal: one-shot and ladder at width 1 and with idle CPUs lent")

	// The same seam carries standing-query maintenance: two engines, one
	// per backend, maintain the same subscription through the same ticks.
	run := func(backend exec.Executor) []float64 {
		market := newMarket()
		eng := stream.NewEngine(stream.Config{Exec: backend})
		if err := eng.RegisterModel("live", "gbm", market, market.Initial()); err != nil {
			log.Fatal(err)
		}
		sub, err := eng.Subscribe(ctx, stream.SubSpec{
			Stream: "live", Obs: stochastic.ScalarValue, ObserverID: "price",
			Beta: 130, Horizon: 250, Seed: 7,
			Stop: mc.Any{mc.RETarget{Target: 0.1}, mc.Budget{Steps: 50_000_000}},
		})
		if err != nil {
			log.Fatal(err)
		}
		defer sub.Close()
		feed, src := market.Initial(), rng.NewStream(2026, 0)
		answers := []float64{sub.Answer().P()}
		for tick := 1; tick <= 10; tick++ {
			market.Step(feed, tick, src)
			refreshes, err := eng.Update(ctx, "live", feed)
			if err != nil {
				log.Fatal(err)
			}
			if refreshes[0].Err != nil {
				log.Fatal(refreshes[0].Err)
			}
			answers = append(answers, refreshes[0].Answer.P())
		}
		return answers
	}
	localAns, shardedAns := run(exec.Local{}), run(backend)
	for i := range localAns {
		if localAns[i] != shardedAns[i] {
			log.Fatalf("tick %d: sharded answer %v diverged from local %v", i, shardedAns[i], localAns[i])
		}
	}
	fmt.Printf("standing query: %d maintained answers, bit-for-bit equal across backends (last P = %.6g)\n",
		len(localAns), localAns[len(localAns)-1])
}
