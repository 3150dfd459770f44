// Crash restart: durable serving state surviving a process death, with
// bit-for-bit identical answers afterwards.
//
// A standing durability query ("will the price reach 125 within 200
// steps?") is maintained against a live GBM market inside a *durable*
// session (durability.OpenSession): every mutation — the stream's
// registration, the subscription, each published tick — is written ahead
// to a WAL, and checkpoints capture the full serving state: the
// subscription's surviving root-path batches (the g-MLSS sufficient
// statistics and per-root moments), its level plan and drift bucket,
// the root substream cursor, and the warm plan cache.
//
// Mid-run the process "dies": the session is abandoned with no shutdown,
// no final checkpoint — exactly what kill -9 leaves behind. Reopening
// the directory recovers the state (latest checkpoint + WAL-tail replay)
// and the session keeps serving. The headline is the determinism
// guarantee: because the restored counters and generator positions are
// exactly the pre-crash ones, every post-restart answer is bit-for-bit
// the answer an uninterrupted twin session produces — asserted here with
// == on estimate, variance and pool accounting, not "approximately".
//
// The closing comparison shows why this matters operationally: the
// recovered subscription's first tick costs a few thousand simulator
// steps (a routine top-up over the restored pool), while a cold restart
// — a fresh server re-subscribing at the same market state — pays the
// full level search and pool fill again.
//
//	go run ./examples/crash-restart
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"durability"
	"durability/internal/rng"
)

const (
	s0      = 100.0
	beta    = 125.0
	horizon = 200
	ticks   = 120
	crashAt = 60
)

func main() {
	ctx := context.Background()
	dir, err := os.MkdirTemp("", "crash-restart-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	market := &durability.GBM{S0: s0, Mu: 0.0004, Sigma: 0.01}
	query := durability.Query{Z: durability.ScalarValue, Beta: beta, Horizon: horizon, ZName: "price"}
	observers := map[string]durability.Observer{"price": durability.ScalarValue}
	target := []durability.Option{
		durability.WithRelativeErrorTarget(0.10),
		durability.WithSeed(42),
	}

	// The market trajectory, precomputed so the twin runs see identical
	// ticks (a real deployment publishes externally observed states).
	prices := make([]float64, ticks)
	feed := market.Initial()
	src := rng.NewStream(2026, 0)
	for i := range prices {
		market.Step(feed, i+1, src)
		prices[i] = durability.ScalarValue(feed)
	}

	// Twin A: never dies.
	twin, err := durability.NewSession(market, target...)
	if err != nil {
		log.Fatal(err)
	}
	twinSub, err := twin.Watch(ctx, "live", query)
	if err != nil {
		log.Fatal(err)
	}
	defer twinSub.Close()
	reference := make([]durability.Answer, ticks)
	for i, p := range prices {
		refreshes, err := twin.Publish(ctx, "live", &durability.Scalar{V: p})
		if err != nil {
			log.Fatal(err)
		}
		reference[i] = refreshes[0].Answer
	}

	// Twin B: durable, and about to die.
	session, err := durability.OpenSession(market, dir, observers, target...)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := session.Watch(ctx, "live", query); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("standing query: P(price >= %.0f within %d steps), maintained durably in %s\n", beta, horizon, dir)
	for i := 0; i < crashAt; i++ {
		if _, err := session.Publish(ctx, "live", &durability.Scalar{V: prices[i]}); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("tick %3d: answer %.6f — and the process dies here (no shutdown, no final checkpoint)\n",
		crashAt, reference[crashAt-1].P())

	// The crash: the session object is abandoned, exactly as kill -9
	// would leave it. Only the data directory survives.
	session = nil

	// Recovery: reopen the directory. The checkpoint loads, the WAL tail
	// replays, and the subscription is back — pool, plan, clocks and all.
	recovered, err := durability.OpenSession(market, dir, observers, target...)
	if err != nil {
		log.Fatal(err)
	}
	defer recovered.Close()
	stats := recovered.StreamStats()
	fmt.Printf("recovered: %d stream(s), %d subscription(s)\n", stats.Streams, stats.Subscriptions)

	var recoveredFirstCost int64 = -1
	mismatches := 0
	for i := crashAt; i < ticks; i++ {
		refreshes, err := recovered.Publish(ctx, "live", &durability.Scalar{V: prices[i]})
		if err != nil {
			log.Fatal(err)
		}
		got, want := refreshes[0].Answer, reference[i]
		if recoveredFirstCost < 0 {
			recoveredFirstCost = got.FreshSteps + got.SearchSteps
		}
		// The determinism guarantee, asserted with ==: estimate,
		// variance and pool movement all match the uninterrupted twin.
		if got.Result.P != want.Result.P || got.Result.Variance != want.Result.Variance ||
			got.FreshSteps != want.FreshSteps || got.SurvivedRoots != want.SurvivedRoots ||
			got.PoolRoots != want.PoolRoots {
			mismatches++
			fmt.Printf("tick %3d: MISMATCH recovered %.9f vs uninterrupted %.9f\n", i+1, got.P(), want.P())
		}
		if (i+1)%20 == 0 {
			fmt.Printf("tick %3d: price %7.2f  answer %.6f == uninterrupted %.6f\n",
				i+1, prices[i], got.P(), want.P())
		}
	}
	if mismatches > 0 {
		log.Fatalf("%d post-restart answers diverged from the uninterrupted twin", mismatches)
	}
	fmt.Printf("every post-restart answer is bit-for-bit the uninterrupted twin's\n\n")

	// Cold-restart comparison: a fresh server with no data directory
	// re-subscribes at the crash-point state and pays the cold start.
	cold, err := durability.NewSession(market, target...)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := cold.Publish(ctx, "live", &durability.Scalar{V: prices[crashAt]}); err != nil {
		log.Fatal(err)
	}
	coldSub, err := cold.Watch(ctx, "live", query)
	if err != nil {
		log.Fatal(err)
	}
	defer coldSub.Close()
	coldCost := coldSub.Answer().FreshSteps + coldSub.Answer().SearchSteps
	fmt.Printf("steps to first answer after restart:\n")
	fmt.Printf("  recovered (checkpoint + WAL): %8d steps\n", recoveredFirstCost)
	fmt.Printf("  cold restart (search + fill): %8d steps  (%.1fx more)\n",
		coldCost, float64(coldCost)/float64(recoveredFirstCost))
}
