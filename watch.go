package durability

import (
	"context"
	"errors"
	"fmt"

	"durability/internal/stream"
)

// Standing-query types, re-exported from the maintenance engine so
// downstream users never import internal packages.
type (
	// Subscription is a registered standing durability query whose answer
	// is maintained incrementally as its live state updates.
	Subscription = stream.Subscription
	// Answer is one maintained answer plus its refresh cost accounting.
	Answer = stream.Answer
	// Refresh is the per-subscription outcome of one state update.
	Refresh = stream.Refresh
	// SubscriptionStats is a subscription's lifetime cost accounting.
	SubscriptionStats = stream.SubStats
	// StreamStats is the maintenance engine's aggregate cost accounting.
	StreamStats = stream.EngineStats
)

// ErrSubscriptionClosed reports use of a closed subscription.
var ErrSubscriptionClosed = stream.ErrSubscriptionClosed

// engine lazily creates the session's standing-query engine. It shares
// the session's runner, so standing queries and one-shot queries
// amortize their level searches through the same plan cache.
func (s *Session) engine() *stream.Engine {
	s.streamOnce.Do(func() {
		s.stream = stream.NewEngine(stream.Config{Runner: s.runner})
	})
	return s.stream
}

// Publish creates or advances the named live state within the session
// and incrementally refreshes every standing query watching it. The
// state is cloned; the first Publish of a name registers the stream with
// the session's process as its dynamics. It returns one Refresh per
// affected subscription, ordered by subscription ID.
func (s *Session) Publish(ctx context.Context, name string, st State) ([]Refresh, error) {
	if st == nil {
		return nil, errors.New("durability: nil state")
	}
	e := s.engine()
	if err := e.Ensure(name, s.proc, st); err != nil {
		return nil, err
	}
	refreshes, err := e.Update(ctx, name, st)
	if err != nil {
		return nil, err
	}
	// Durable sessions checkpoint when the log's size or age trigger has
	// fired; the tick's answers stand either way.
	if s.lineage != nil {
		if _, cerr := s.lineage.CheckpointIfDue(); cerr != nil {
			return refreshes, fmt.Errorf("durability: tick applied but checkpoint failed: %w", cerr)
		}
	}
	return refreshes, nil
}

// Watch registers a standing durability query against the named live
// state: the returned subscription's answer is computed immediately from
// the stream's current state and from then on maintained incrementally
// on every Publish — surviving root paths are carried forward, the level
// plan is reused across small drift (re-searched only when the state
// crosses a drift bucket), and just enough fresh sampling tops the
// answer back up to the quality target. If the stream does not exist yet
// it is created from the session's process at its initial state.
//
// Options shape the maintained answer the same way they shape Run: the
// stopping options set the per-tick quality target, WithSplitRatio,
// WithSeed and WithWorkers tune the sampler. Standing queries always use
// g-MLSS with automatic level search; WithMethod and the explicit plan
// options are rejected.
func (s *Session) Watch(ctx context.Context, name string, q Query, opts ...Option) (*Subscription, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	all := append(append([]Option(nil), s.defaults...), opts...)
	cfg, err := buildConfig(all)
	if err != nil {
		return nil, err
	}
	if cfg.method != GMLSS {
		return nil, errors.New("durability: standing queries support only WithMethod(GMLSS)")
	}
	if cfg.planMode != planAuto {
		return nil, errors.New("durability: standing queries use automatic level search; WithPlan and WithBalancedLevels are not supported")
	}
	obs := q.Z
	if s.lineage != nil {
		// Durable subscriptions are rebuilt after a restart by observer
		// name; an identity the session cannot resolve would make the
		// snapshot unrecoverable, so refuse it now rather than at the
		// worst possible moment. The *registered* function is also the
		// one subscribed live — if q.Z differed from it, the recovered
		// subscription would silently maintain a different quantity.
		registered, ok := s.observers[observerID(q)]
		if !ok {
			return nil, fmt.Errorf("durability: durable standing queries need an observer registered with OpenSession; query %q is not (set Query.ZName to a registered name)", observerID(q))
		}
		obs = registered
	}
	e := s.engine()
	if err := e.Ensure(name, s.proc, s.proc.Initial()); err != nil {
		return nil, err
	}
	return e.Subscribe(ctx, stream.SubSpec{
		Stream:     name,
		Obs:        obs,
		ObserverID: observerID(q),
		Beta:       q.Beta,
		Horizon:    q.Horizon,
		Ratio:      cfg.ratio,
		Seed:       cfg.seed,
		SimWorkers: cfg.workers,
		DriftTol:   cfg.driftTol,
		MaxAge:     cfg.maxAge,
		Stop:       cfg.stops,
	})
}

// StreamStats reports the session's standing-query cost accounting; it
// is zero-valued before the first Watch or Publish.
func (s *Session) StreamStats() StreamStats {
	return s.engine().Stats()
}

// Watch is the single-query convenience form of Session.Watch: it opens
// a dedicated session on the process, registers the standing query
// against a live state seeded from the process's initial state, and
// returns the subscription. Drive the live state with
// Subscription.Publish; the subscription's session (and its plan cache)
// lives as long as the subscription.
func Watch(ctx context.Context, proc Process, q Query, opts ...Option) (*Subscription, error) {
	s, err := NewSession(proc, opts...)
	if err != nil {
		return nil, err
	}
	return s.Watch(ctx, "live", q)
}
