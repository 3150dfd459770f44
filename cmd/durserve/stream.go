package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"durability/internal/exec"
	"durability/internal/mc"
	"durability/internal/planstats"
	"durability/internal/rng"
	"durability/internal/serve"
	"durability/internal/stochastic"
	"durability/internal/stream"
	"durability/internal/telemetry"
)

// streamHub fronts the standing-query engine of internal/stream for the
// HTTP transport: it owns one live state per model (advanced by /tick or
// the -tick auto-ticker), the subscription table for /subscribe and the
// long-poll plumbing for /updates. The engine shares the query server's
// runner, so standing queries amortize level searches through the same
// plan cache as one-shot /query requests.
type streamHub struct {
	engine   *stream.ShardedEngine
	runner   *serve.Runner
	registry serve.Registry

	defaultRelErr float64
	maxBudget     int64
	seed          uint64

	// Durable serving state (-data-dir): the hub's own checkpoint+WAL
	// store (each engine shard journals to its own store — see
	// hubStores), the checkpoint serializer, and the hub's last-applied
	// log sequence number (each shard and each feed track theirs
	// separately).
	stores *hubStores
	ckptMu sync.Mutex

	// down closes when the server begins shutting down, resolving every
	// in-flight long poll with 204 instead of dropping it mid-wait.
	down     chan struct{}
	downOnce sync.Once

	mu       sync.Mutex
	lsn      int64
	nextID   int64
	subs     map[string]*stream.Subscription
	binds    map[string]uint64 // recovery/follow only: handle binds awaiting resolveBinds
	feeds    map[string]*feed
	tickErrs map[string]int64 // auto-tick failures per stream
}

// feed is the live state the hub advances for one stream: the model's own
// dynamics driven by a dedicated random source. Real deployments publish
// externally observed states; the hub's feed makes the demo (and tests)
// self-contained. mu serializes ticks on this feed (the auto-ticker and
// concurrent POST /tick requests both advance it).
type feed struct {
	model     string
	proc      stochastic.Process
	observers map[string]stochastic.Observer

	mu    sync.Mutex
	state stochastic.State
	src   *rng.Source
	steps int
	lsn   int64 // last journaled mutation applied to this feed
}

func newStreamHub(srv *serve.Server, registry serve.Registry, defaultRelErr float64, maxBudget int64, seed uint64, backend exec.Executor, metrics *telemetry.EngineMetrics, shards int) *streamHub {
	if defaultRelErr <= 0 {
		defaultRelErr = 0.10
	}
	if maxBudget <= 0 {
		maxBudget = 200_000_000
	}
	if seed == 0 {
		seed = 1
	}
	if shards < 1 {
		shards = 1
	}
	return &streamHub{
		engine:        stream.NewSharded(stream.Config{Runner: srv.Runner(), Exec: backend, Metrics: metrics}, shards, 0),
		runner:        srv.Runner(),
		registry:      registry,
		defaultRelErr: defaultRelErr,
		maxBudget:     maxBudget,
		seed:          seed,
		down:          make(chan struct{}),
		subs:          make(map[string]*stream.Subscription),
		binds:         make(map[string]uint64),
		feeds:         make(map[string]*feed),
		tickErrs:      make(map[string]int64),
	}
}

// subscribeRequest registers a standing query over HTTP.
type subscribeRequest struct {
	Stream   string  `json:"stream,omitempty"` // live state name; defaults to the model name
	Model    string  `json:"model"`
	Observer string  `json:"observer,omitempty"` // default "value"
	Beta     float64 `json:"beta"`
	Horizon  int     `json:"horizon"`

	RelErr   float64 `json:"re,omitempty"`       // quality target (default: server's)
	Budget   int64   `json:"budget,omitempty"`   // root-pool step budget (capped by the server)
	Ratio    int     `json:"ratio,omitempty"`    // splitting ratio (default 3)
	Seed     uint64  `json:"seed,omitempty"`     // 0 selects the server seed
	DriftTol float64 `json:"driftTol,omitempty"` // survival tolerance (0 = engine default)
	MaxAge   int64   `json:"maxAge,omitempty"`   // batch age cap in ticks (0 = engine default)
}

// answerJSON is the wire form of a maintained answer.
type answerJSON struct {
	Tick      int64   `json:"tick"`
	P         float64 `json:"p"`
	StdErr    float64 `json:"stderr"`
	RelErr    float64 `json:"relErr"`
	CILo      float64 `json:"ciLo"`
	CIHi      float64 `json:"ciHi"`
	Satisfied bool    `json:"satisfied,omitempty"`

	PoolPaths int64 `json:"poolPaths"`
	PoolSteps int64 `json:"poolSteps"`

	FreshRoots    int64 `json:"freshRoots"`
	FreshSteps    int64 `json:"freshSteps"`
	SearchSteps   int64 `json:"searchSteps"`
	SurvivedRoots int64 `json:"survivedRoots"`
	DroppedRoots  int64 `json:"droppedRoots"`
	Replanned     bool  `json:"replanned,omitempty"`
	PlanCached    bool  `json:"planCached,omitempty"`
	Capped        bool  `json:"capped,omitempty"`
}

// finiteOr replaces non-finite values (an empty or hitless pool has
// infinite variance and relative error) with a JSON-encodable fallback:
// encoding/json rejects ±Inf and NaN outright, which would otherwise
// truncate a 200 response mid-body.
func finiteOr(v, fallback float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return fallback
	}
	return v
}

func toAnswerJSON(a stream.Answer) answerJSON {
	ci := a.Result.CI(0.95)
	return answerJSON{
		Tick: a.Tick,
		P:    a.Result.P,
		// -1 marks "no estimate yet" (zero hits in the pool); the CI
		// collapses onto the answer's probability range.
		StdErr:        finiteOr(a.Result.StdErr(), -1),
		RelErr:        finiteOr(a.Result.RelErr(), -1),
		CILo:          math.Max(finiteOr(ci.Lo, 0), 0),
		CIHi:          math.Min(finiteOr(ci.Hi, 1), 1),
		Satisfied:     a.Satisfied,
		PoolPaths:     a.Result.Paths,
		PoolSteps:     a.Result.Steps,
		FreshRoots:    a.FreshRoots,
		FreshSteps:    a.FreshSteps,
		SearchSteps:   a.SearchSteps,
		SurvivedRoots: a.SurvivedRoots,
		DroppedRoots:  a.DroppedRoots,
		Replanned:     a.Replanned,
		PlanCached:    a.PlanCached,
		Capped:        a.Capped,
	}
}

// subscribeResponse answers POST /subscribe. ID is the hub handle for
// /updates and DELETE /subscribe; SubID is the engine's subscription ID,
// the value /tick refreshes report, so clients can correlate the two.
type subscribeResponse struct {
	ID     string     `json:"id"`
	SubID  uint64     `json:"subId"`
	Stream string     `json:"stream"`
	Answer answerJSON `json:"answer"`
}

// ensureFeed lazily creates the live state for a stream name backed by
// the given model, registering it with the engine at the model's initial
// state. A stream, once created, is bound to its model: subscribing to
// it under a different model name is an error, not a silent reuse.
func (h *streamHub) ensureFeed(streamName, model string) (*feed, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if f, ok := h.feeds[streamName]; ok {
		if f.model != model {
			return nil, fmt.Errorf("stream %q serves model %q, not %q", streamName, f.model, model)
		}
		return f, nil
	}
	factory, ok := h.registry[model]
	if !ok {
		return nil, fmt.Errorf("unknown model %q", model)
	}
	proc, observers, err := factory()
	if err != nil {
		return nil, fmt.Errorf("%w: building model %q: %v", serve.ErrInternal, model, err)
	}
	state := proc.Initial()
	// The model name rides along as the stream's registry identity, so a
	// distributed execution backend can rebuild the model on its workers
	// (and the persist layer can rebuild it on recovery).
	if err := h.engine.RegisterModel(streamName, model, proc, state); err != nil {
		return nil, err
	}
	lsn, err := h.append(hubFeedCreate{Stream: streamName, Model: model})
	if err != nil {
		return nil, fmt.Errorf("%w: journaling feed %q: %v", serve.ErrInternal, streamName, err)
	}
	f := &feed{
		model: model, proc: proc, observers: observers,
		state: state, src: feedSource(h.seed, streamName), lsn: lsn,
	}
	h.feeds[streamName] = f
	return f, nil
}

// feedSource derives the random source driving one stream's live feed.
// The substream index mixes the stream name into a reserved high range
// (1<<60 and up), so distinct feeds never share a sequence and no feed
// collides with subscription root substreams, whose indices count up
// from zero (or with the resampling streams parked at 1<<62 and 1<<63).
func feedSource(seed uint64, streamName string) *rng.Source {
	h := fnv.New64a()
	h.Write([]byte(streamName))
	return rng.NewStream(seed, 1<<60|h.Sum64()>>4)
}

// subscribe registers the standing query and returns its handle plus the
// initial answer.
func (h *streamHub) subscribe(ctx context.Context, req subscribeRequest) (subscribeResponse, error) {
	streamName := req.Stream
	if streamName == "" {
		streamName = req.Model
	}
	f, err := h.ensureFeed(streamName, req.Model)
	if err != nil {
		return subscribeResponse{}, err
	}
	obsName := req.Observer
	if obsName == "" {
		obsName = "value"
	}
	obs, ok := f.observers[obsName]
	if !ok {
		return subscribeResponse{}, fmt.Errorf("model %q has no observer %q", req.Model, obsName)
	}

	seed := req.Seed
	if seed == 0 {
		seed = h.seed
	}
	var stop mc.Any
	if req.RelErr > 0 {
		stop = append(stop, mc.RETarget{Target: req.RelErr})
	}
	budget := h.maxBudget
	if req.Budget > 0 && req.Budget < budget {
		budget = req.Budget
	}
	if len(stop) == 0 && req.Budget <= 0 {
		stop = append(stop, mc.RETarget{Target: h.defaultRelErr})
	}
	stop = append(stop, mc.Budget{Steps: budget})

	sub, err := h.engine.Subscribe(ctx, stream.SubSpec{
		Stream:     streamName,
		Obs:        obs,
		ObserverID: obsName,
		Beta:       req.Beta,
		Horizon:    req.Horizon,
		Ratio:      req.Ratio,
		Seed:       seed,
		DriftTol:   req.DriftTol,
		MaxAge:     req.MaxAge,
		Stop:       stop,
	})
	if err != nil {
		return subscribeResponse{}, err
	}
	h.mu.Lock()
	h.nextID++
	id := "sub-" + strconv.FormatInt(h.nextID, 10)
	if lsn, jerr := h.append(hubBind{Handle: id, SubID: sub.ID()}); jerr != nil {
		h.mu.Unlock()
		sub.Close()
		return subscribeResponse{}, fmt.Errorf("%w: journaling subscription: %v", serve.ErrInternal, jerr)
	} else if lsn > h.lsn {
		h.lsn = lsn
	}
	h.subs[id] = sub
	h.mu.Unlock()
	return subscribeResponse{ID: id, SubID: sub.ID(), Stream: streamName, Answer: toAnswerJSON(sub.Answer())}, nil
}

// lookup finds a subscription by its handle.
func (h *streamHub) lookup(id string) (*stream.Subscription, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	sub, ok := h.subs[id]
	return sub, ok
}

// unsubscribe closes and forgets a subscription. The engine journals the
// close itself (inside sub.Close), and only then does the hub journal
// the handle's removal: a crash between the two records recovers a
// *closed* subscription with a dangling handle — /updates answers it
// with 410 Gone, consistent from the client's view — never a live,
// unaddressable subscription burning refresh cost forever.
func (h *streamHub) unsubscribe(id string) bool {
	h.mu.Lock()
	sub, ok := h.subs[id]
	delete(h.subs, id)
	h.mu.Unlock()
	if !ok {
		return false
	}
	sub.Close()
	h.mu.Lock()
	if lsn, err := h.append(hubUnbind{Handle: id}); err == nil && lsn > h.lsn {
		h.lsn = lsn
	}
	h.mu.Unlock()
	return true
}

// tickRequest advances a live state.
type tickRequest struct {
	Stream string `json:"stream"`
	Steps  int    `json:"steps,omitempty"` // default 1
}

// refreshJSON is the wire form of one subscription's refresh outcome.
type refreshJSON struct {
	SubID  uint64     `json:"subId"`
	Answer answerJSON `json:"answer"`
	Error  string     `json:"error,omitempty"`
}

// tickResponse answers POST /tick: the stream's new tick and the last
// step's refresh outcomes.
type tickResponse struct {
	Stream    string        `json:"stream"`
	Tick      int64         `json:"tick"`
	Refreshes []refreshJSON `json:"refreshes"`
}

// tick advances the named live state by stepping its model's dynamics,
// publishing each new state to the engine (which refreshes every
// subscription incrementally).
func (h *streamHub) tick(ctx context.Context, req tickRequest) (tickResponse, error) {
	steps := req.Steps
	if steps <= 0 {
		steps = 1
	}
	if steps > 10_000 {
		return tickResponse{}, fmt.Errorf("steps %d exceeds the per-request cap of 10000", steps)
	}
	h.mu.Lock()
	f, ok := h.feeds[req.Stream]
	h.mu.Unlock()
	if !ok {
		return tickResponse{}, fmt.Errorf("unknown stream %q (streams are created by /subscribe)", req.Stream)
	}

	// The feed lock serializes concurrent tickers (the -tick auto-ticker
	// and POST /tick requests) on this stream's state and random source.
	f.mu.Lock()
	defer f.mu.Unlock()
	var refreshes []stream.Refresh
	var err error
	for i := 0; i < steps; i++ {
		// The feed step is journaled before the engine's own update
		// record, so replay advances the feed's random source in lockstep
		// with the published states.
		lsn, jerr := h.append(hubFeedStep{Stream: req.Stream})
		if jerr != nil {
			return tickResponse{}, fmt.Errorf("%w: journaling tick: %v", serve.ErrInternal, jerr)
		}
		f.steps++
		f.proc.Step(f.state, f.steps, f.src)
		if lsn > f.lsn {
			f.lsn = lsn
		}
		refreshes, err = h.engine.Update(ctx, req.Stream, f.state)
		if err != nil {
			return tickResponse{}, err
		}
	}
	tick, _ := h.engine.Tick(req.Stream)
	out := tickResponse{Stream: req.Stream, Tick: tick}
	for _, r := range refreshes {
		rj := refreshJSON{SubID: r.SubID, Answer: toAnswerJSON(r.Answer)}
		if r.Err != nil {
			rj.Error = r.Err.Error()
		}
		out.Refreshes = append(out.Refreshes, rj)
	}
	return out, nil
}

// autoTick advances every known stream once; the -tick flag drives it on
// a timer. One stream's failure must not starve the others — the sweep
// continues past it and the failure is booked in the per-stream error
// counters GET /streams exposes.
func (h *streamHub) autoTick(ctx context.Context) {
	h.mu.Lock()
	names := make([]string, 0, len(h.feeds))
	for name := range h.feeds {
		names = append(names, name)
	}
	h.mu.Unlock()
	// Sweep in name order: map order would tick streams in a different
	// sequence every pass, making multi-stream traces unreproducible.
	sort.Strings(names)
	for _, name := range names {
		if _, err := h.tick(ctx, tickRequest{Stream: name, Steps: 1}); err != nil {
			h.mu.Lock()
			h.tickErrs[name]++
			h.mu.Unlock()
		}
	}
}

// handleUpdates serves the long-poll GET /updates?id=&since=&timeoutSec=:
// it blocks until the subscription's answer moves past the given tick,
// then returns it; an expired wait returns 204 No Content so clients can
// simply re-arm.
func (h *streamHub) handleUpdates(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	sub, ok := h.lookup(id)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown subscription %q", id))
		return
	}
	var since int64
	if s := r.URL.Query().Get("since"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad since %q: %w", s, err))
			return
		}
		since = v
	}
	timeout := 30 * time.Second
	if s := r.URL.Query().Get("timeoutSec"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil || v <= 0 || v > 300 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad timeoutSec %q (want 0 < s <= 300)", s))
			return
		}
		timeout = time.Duration(v * float64(time.Second))
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	// A shutting-down server resolves the poll instead of dropping the
	// connection: the cancellation surfaces as 204 below, telling the
	// client to re-arm (against the restarted server).
	waitDone := make(chan struct{})
	defer close(waitDone)
	go func() {
		select {
		case <-h.down:
			cancel()
		case <-waitDone:
		}
	}()
	ans, err := sub.Wait(ctx, since)
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, toAnswerJSON(ans))
	case errors.Is(err, stream.ErrSubscriptionClosed):
		httpError(w, http.StatusGone, err)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		// An expired wait — or the client abandoning its own long poll —
		// is the protocol working, not a gateway failure: clients simply
		// re-arm. (Canceled used to map to 504 and count as a server
		// error, miscoloring every aborted poll in the error stats.)
		w.WriteHeader(http.StatusNoContent)
	default:
		httpError(w, http.StatusGatewayTimeout, err)
	}
}

// streamStats is the GET /streams payload.
type streamStats struct {
	Engine        stream.EngineStats `json:"engine"`
	Subscriptions int                `json:"subscriptions"`
	// TickErrors counts auto-tick sweeps that failed, per stream; a
	// failing stream no longer stops the sweep, so these are the only
	// trace it leaves.
	TickErrors map[string]int64 `json:"tickErrors,omitempty"`
	// Plans is the per-subscription plan detail, sorted by handle; only
	// statsDetailed (the GET /streams handler) fills it — the metric
	// gauges read the cheap stats() and skip it.
	Plans []subPlanJSON `json:"plans,omitempty"`
}

// subPlanJSON is one subscription's resolved plan on GET /streams: which
// drift bucket it stands in, the plan's shape, the plan-cache key the
// shape lives under, and a crossing-statistics summary from the ledger.
// Absent entirely while the subscription has no resolved plan yet.
type subPlanJSON struct {
	ID          string         `json:"id"`
	SubID       uint64         `json:"subID"`
	Stream      string         `json:"stream"`
	DriftBucket int            `json:"driftBucket"`
	Boundaries  []float64      `json:"boundaries"`
	Ratios      []int          `json:"ratios,omitempty"`
	PlanKey     *planstats.Key `json:"planKey,omitempty"`
	// Crossing summarizes the ledger entry under PlanKey — shared with
	// every other query of the same shape, absent until any run booked.
	Crossing *subCrossingJSON `json:"crossing,omitempty"`
}

// subCrossingJSON restates the ledger snapshot's run accounting and
// drift verdict inputs — all pure functions of driven traffic.
type subCrossingJSON struct {
	Runs     int64   `json:"runs"`
	Roots    int64   `json:"roots"`
	Steps    int64   `json:"steps"`
	MaxDrift float64 `json:"maxDrift"`
	Observed bool    `json:"observedAny"`
}

func (h *streamHub) stats() streamStats {
	h.mu.Lock()
	n := len(h.subs)
	var tickErrs map[string]int64
	if len(h.tickErrs) > 0 {
		tickErrs = make(map[string]int64, len(h.tickErrs))
		for name, c := range h.tickErrs {
			tickErrs[name] = c
		}
	}
	h.mu.Unlock()
	return streamStats{Engine: h.engine.Stats(), Subscriptions: n, TickErrors: tickErrs}
}

// statsDetailed is stats() plus the per-subscription plan listing. Only
// the GET /streams handler pays for it; PlanInfo takes each live state's
// lock, so the subscription slice is collected first and the hub lock
// released before any plan is read.
func (h *streamHub) statsDetailed() streamStats {
	out := h.stats()
	h.mu.Lock()
	handles := make([]string, 0, len(h.subs))
	for id := range h.subs {
		handles = append(handles, id)
	}
	sort.Strings(handles)
	subs := make([]*stream.Subscription, len(handles))
	for i, id := range handles {
		subs[i] = h.subs[id]
	}
	h.mu.Unlock()
	for i, sub := range subs {
		info, ok := sub.PlanInfo()
		if !ok {
			continue
		}
		pj := subPlanJSON{
			ID:          handles[i],
			SubID:       sub.ID(),
			Stream:      sub.Stream(),
			DriftBucket: info.Bucket,
			Boundaries:  info.Boundaries,
			Ratios:      info.Ratios,
		}
		if info.HaveKey {
			key := serve.StatsKey(info.Key)
			pj.PlanKey = &key
			if snap, ok := h.runner.Ledger.Snapshot(key); ok {
				pj.Crossing = &subCrossingJSON{
					Runs:     snap.Runs,
					Roots:    snap.Roots,
					Steps:    snap.Steps,
					MaxDrift: snap.MaxDrift,
					Observed: snap.Observed,
				}
			}
		}
		out.Plans = append(out.Plans, pj)
	}
	return out
}
