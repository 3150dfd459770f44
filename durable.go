package durability

import (
	"errors"
	"fmt"

	"durability/internal/persist"
	"durability/internal/stochastic"
)

// OpenSession opens a session whose standing-query state survives process
// death. dir is the session's data directory: on first open it is
// created; on a reopen the latest checkpoint is loaded and the write-
// ahead log's tail replayed, so every live stream, every Watch
// subscription — its root-path pool, plan, tick clock and generator
// positions — and every warm level plan come back exactly as they were.
// The recovered session then produces bit-for-bit the answers the
// uninterrupted session would have: recovery restores state, it never
// restarts sampling.
//
// observers names the observer functions standing queries may use.
// Persisted subscriptions are rebuilt by observer *name* (functions are
// code, not data), so every Watch query on a durable session must carry a
// ZName registered here; Watch rejects unregistered ones up front. The
// same process dynamics and session options must be passed on every open
// — the snapshot refuses settings that would change the maintained
// numerics. Re-attach to recovered standing queries through
// Session.Subscriptions (the pre-crash *Subscription handles died with
// their process).
//
// Durability is governed by the store's checkpoint policy: a checkpoint
// is written when the log outgrows its size or age trigger (checked after
// each Publish), on Session.Checkpoint, and on Session.Close.
func OpenSession(proc Process, dir string, observers map[string]Observer, opts ...Option) (*Session, error) {
	s, err := NewSession(proc, opts...)
	if err != nil {
		return nil, err
	}
	store, err := persist.Open(dir, persist.Options{})
	if err != nil {
		return nil, err
	}
	s.observers = make(map[string]Observer, len(observers))
	for name, obs := range observers {
		if obs == nil {
			store.Close()
			return nil, fmt.Errorf("durability: observer %q is nil", name)
		}
		s.observers[name] = obs
	}

	s.lineage = &persist.Lineage{
		Store:  store,
		Engine: s.engine(),
		Plans:  s.runner.Cache,
		Resolve: func(streamName, modelID string) (stochastic.Process, map[string]stochastic.Observer, error) {
			return s.proc, s.observers, nil
		},
	}
	if _, err := s.lineage.Recover(); err != nil {
		store.Close()
		return nil, fmt.Errorf("durability: recovering %s: %w", dir, err)
	}
	s.lineage.Engine.SetJournal(persist.EngineJournal{Store: store})

	// An immediate checkpoint truncates the replayed tail, so the next
	// recovery starts from here instead of re-replaying it.
	if err := s.Checkpoint(); err != nil {
		store.Close()
		return nil, err
	}
	return s, nil
}

// Subscriptions lists the session's live standing queries, ordered by
// ID. After OpenSession recovers a data directory this is how callers
// re-attach to subscriptions whose *Subscription handles died with the
// previous process: each entry supports Answer, Wait and Close exactly
// as the original handle did. (Calling Watch again would register a
// second, duplicate subscription, doubling the per-tick refresh cost.)
func (s *Session) Subscriptions() []*Subscription {
	return s.engine().Subscriptions()
}

// Checkpoint writes a durable snapshot of the session's standing-query
// state and warm plans, and compacts the log behind it. It also surfaces
// any write error an unreportable journal append (a Subscription.Close)
// left behind. A non-durable session (NewSession) has nothing to
// checkpoint and reports an error.
func (s *Session) Checkpoint() error {
	if s.lineage == nil {
		return errors.New("durability: session has no data directory (open it with OpenSession)")
	}
	return s.lineage.Checkpoint()
}

// Close ends a durable session: a final checkpoint, then the store is
// released. On a non-durable session it is a no-op. The session must not
// be used afterwards.
func (s *Session) Close() error {
	if s.lineage == nil {
		return nil
	}
	err := s.Checkpoint()
	if cerr := s.lineage.Store.Close(); err == nil {
		err = cerr
	}
	return err
}
