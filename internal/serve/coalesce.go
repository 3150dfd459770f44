package serve

import (
	"context"
	"fmt"
	"time"

	"durability/internal/telemetry"
)

// BatchRequest is one threshold-lattice query as a front end submits it:
// many thresholds, one (model, observer, horizon) shape, answered by a
// single shared splitting run.
type BatchRequest struct {
	Model    string    `json:"model"`
	Observer string    `json:"observer,omitempty"` // default "value"
	Betas    []float64 `json:"betas"`
	Horizon  int       `json:"horizon"`

	RelErr float64 `json:"re,omitempty"`     // per-threshold relative-error target (default: server's)
	Budget int64   `json:"budget,omitempty"` // shared-run step budget (capped by the server's MaxBudget)
	Ratio  int     `json:"ratio,omitempty"`  // base splitting ratio (default 3)
	Seed   uint64  `json:"seed,omitempty"`   // 0 selects the server seed
}

// BatchAnswer is one threshold's slice of a batch answer.
type BatchAnswer struct {
	Beta      float64 `json:"beta"`
	P         float64 `json:"p"`
	StdErr    float64 `json:"stderr"`
	RelErr    float64 `json:"relErr"`
	CILo      float64 `json:"ciLo"` // 95% confidence interval
	CIHi      float64 `json:"ciHi"`
	Crossings int64   `json:"crossings"` // crossing events observed at this threshold's boundary
}

// BatchResponse answers one BatchRequest. Answers align with the
// request's Betas. Cost fields describe the shared run — when callers
// were coalesced, they all report the same run.
type BatchResponse struct {
	Answers []BatchAnswer `json:"answers"`

	Thresholds  int     `json:"thresholds"` // distinct thresholds the shared run answered (union over coalesced callers)
	Coalesced   int     `json:"coalesced"`  // callers answered by this run (>= 1)
	SharedSteps int64   `json:"sharedSteps"`
	SearchSteps int64   `json:"searchSteps"`
	Paths       int64   `json:"paths"`
	Elapsed     float64 `json:"elapsedSec"`

	Plan       []float64 `json:"plan,omitempty"`
	Ratios     []int     `json:"ratios,omitempty"`
	PlanCached bool      `json:"planCached"`
}

// batchKey is the compatibility class of a batch request: two batches
// coalesce into one shared run exactly when everything that shapes the
// run's numerics — model, observer, horizon, ratio, seed, quality target,
// budget — agrees; only the threshold sets may differ (the run covers
// their union).
type batchKey struct {
	model    string
	observer string
	horizon  int
	ratio    int
	seed     uint64
	relErr   float64
	budget   int64
}

type batchOutcome struct {
	resp BatchResponse
	err  error
}

// batchCall is one caller waiting on a gather.
type batchCall struct {
	betas []float64
	reply chan batchOutcome
}

// batchGather collects the callers of one compatibility class while its
// coalescing window is open. Access to calls is guarded by the server
// lock until the gather is unlinked from pending; after that the leader
// goroutine owns it exclusively. betaCount tracks the (pre-dedup) union
// size so a gather stops accepting joiners before the merged lattice
// could exceed MaxBatchThresholds — a join must never turn individually
// valid requests into a collectively rejected run. registered marks a
// gather reachable through s.pending; an overflow gather runs
// unregistered (no joiner can find it, so it skips the window too).
type batchGather struct {
	key        batchKey
	calls      []*batchCall
	betaCount  int
	registered bool
}

// normalizeBatch validates a request and resolves its defaults, so that
// requests spelling a default explicitly and requests omitting it land in
// the same compatibility class.
func (s *Server) normalizeBatch(req BatchRequest) (BatchRequest, batchKey, error) {
	if len(req.Betas) == 0 {
		return req, batchKey{}, fmt.Errorf("serve: batch has no thresholds")
	}
	if len(req.Betas) > MaxBatchThresholds {
		return req, batchKey{}, fmt.Errorf("serve: batch has %d thresholds (max %d)", len(req.Betas), MaxBatchThresholds)
	}
	for _, b := range req.Betas {
		if b <= 0 {
			return req, batchKey{}, fmt.Errorf("serve: threshold %v must be positive", b)
		}
	}
	if req.Horizon <= 0 {
		return req, batchKey{}, fmt.Errorf("serve: horizon %d must be positive", req.Horizon)
	}
	if req.Observer == "" {
		req.Observer = "value"
	}
	if req.Ratio <= 0 {
		req.Ratio = 3 // mirrors the single-query path's default handling
	}
	if req.Seed == 0 {
		req.Seed = s.cfg.Seed
	}
	if req.RelErr < 0 {
		return req, batchKey{}, fmt.Errorf("serve: relative-error target %v must not be negative", req.RelErr)
	}
	key := batchKey{
		model:    req.Model,
		observer: req.Observer,
		horizon:  req.Horizon,
		ratio:    req.Ratio,
		seed:     req.Seed,
		relErr:   req.RelErr,
		budget:   req.Budget,
	}
	return req, key, nil
}

// DoBatch answers a threshold lattice with one shared splitting run. When
// the server's CoalesceWindow is set, concurrently arriving batches of the
// same compatibility class are merged into a single run over the union of
// their thresholds; every caller receives exactly the answers for its own
// thresholds, in its own order. Admission control matches Do: the gathered
// run occupies one pool slot, and a full queue rejects every gathered
// caller with ErrOverloaded.
//
// The shared run is executed under the server's own lifetime (bounded by
// QueryTimeout and the budget caps), not any single caller's context — a
// caller abandoning a coalesced run must not cancel it for the others. A
// caller whose context ends while waiting gets its context error; the run
// completes for the rest.
func (s *Server) DoBatch(ctx context.Context, req BatchRequest) (BatchResponse, error) {
	req, key, err := s.normalizeBatch(req)
	if err != nil {
		s.stats.errors.Add(1)
		return BatchResponse{}, err
	}
	call := &batchCall{betas: req.Betas, reply: make(chan batchOutcome, 1)}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return BatchResponse{}, ErrClosed
	}
	if g, ok := s.pending[key]; ok && s.cfg.CoalesceWindow > 0 && g.betaCount+len(call.betas) <= MaxBatchThresholds {
		g.calls = append(g.calls, call)
		g.betaCount += len(call.betas)
		s.stats.batchCoalesced.Add(1)
		s.mu.Unlock()
	} else {
		g := &batchGather{key: key, calls: []*batchCall{call}, betaCount: len(call.betas), registered: !ok}
		if !ok {
			// Register for joiners; an overflow gather runs unregistered
			// (and so alone), leaving the open one in place.
			s.pending[key] = g
		}
		s.mu.Unlock()
		go s.gatherAndEnqueue(g)
	}
	select {
	case out := <-call.reply:
		return out.resp, out.err
	case <-ctx.Done():
		return BatchResponse{}, ctx.Err()
	}
}

// gatherAndEnqueue holds the gather's coalescing window open (nothing can
// join an unregistered gather, so it skips straight to admission), then
// closes the class and submits the shared run.
func (s *Server) gatherAndEnqueue(g *batchGather) {
	if w := s.cfg.CoalesceWindow; w > 0 && g.registered {
		time.Sleep(w)
	}
	s.mu.Lock()
	if s.pending[g.key] == g {
		delete(s.pending, g.key)
	}
	if s.closed {
		s.mu.Unlock()
		g.deliverError(ErrClosed)
		return
	}
	j := &job{batch: g, admit: s.cfg.Tracer.Start(telemetry.StageAdmission)}
	select {
	case s.queue <- j:
		s.stats.queueDepth.Add(1)
		s.mu.Unlock()
	default:
		s.mu.Unlock()
		s.stats.rejected.Add(int64(len(g.calls)))
		g.deliverError(ErrOverloaded)
	}
}

// deliverError fails every caller of the gather identically.
func (g *batchGather) deliverError(err error) {
	for _, c := range g.calls {
		c.reply <- batchOutcome{err: err}
	}
}

// batchSpec lowers a closed gather onto a runnable BatchSpec over the
// union of its callers' thresholds.
func (s *Server) batchSpec(key batchKey, betas []float64) (BatchSpec, error) {
	m, obs, stop, err := s.resolve(key.model, key.observer, key.horizon, key.relErr, key.budget)
	if err != nil {
		return BatchSpec{}, err
	}
	return BatchSpec{
		Proc:       m.Proc,
		Obs:        obs,
		ModelID:    key.model,
		ObserverID: key.observer,
		Betas:      betas,
		Horizon:    key.horizon,
		Ratio:      key.ratio,
		Seed:       key.seed,
		SimWorkers: s.cfg.SimWorkers,
		Stop:       stop,
	}, nil
}

// executeBatch runs one gathered batch on a pool worker. The union run
// answers every caller at once; if the union run fails with more than one
// caller gathered, each caller is retried alone — the union itself may be
// at fault (say, one joiner's threshold sits below the model's initial
// value, which poisons the covering plan for everyone), and a join must
// never turn an individually valid request into a rejected one.
func (s *Server) executeBatch(g *batchGather) {
	ctx := context.Background()
	if s.cfg.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.QueryTimeout)
		defer cancel()
	}
	err := s.answerBatch(ctx, g.key, g.calls)
	if err == nil {
		return
	}
	if len(g.calls) == 1 {
		s.stats.errors.Add(1)
		g.deliverError(err)
		return
	}
	for _, c := range g.calls {
		if err := s.answerBatch(ctx, g.key, []*batchCall{c}); err != nil {
			s.stats.errors.Add(1)
			c.reply <- batchOutcome{err: err}
		}
	}
}

// answerBatch runs one shared splitting run over the callers' combined
// thresholds and, on success, delivers every caller its own slice of the
// answers. On error nothing is delivered. Duplicate thresholds across
// callers are deduplicated by RunBatch itself; results align with the
// concatenation order.
func (s *Server) answerBatch(ctx context.Context, key batchKey, calls []*batchCall) error {
	bspan := s.cfg.Tracer.Start(telemetry.StageBatch)
	defer bspan.End()
	var betas []float64
	for _, c := range calls {
		betas = append(betas, c.betas...)
	}
	spec, err := s.batchSpec(key, betas)
	if err != nil {
		return err
	}
	s.stats.inFlight.Add(1)
	results, meta, err := s.runner.RunBatch(ctx, spec)
	s.stats.inFlight.Add(-1)
	// The shared sampling cost is booked once, failed runs included.
	s.stats.sampleSteps.Add(meta.SharedSteps)
	if err != nil {
		return err
	}
	s.stats.batchRuns.Add(1)
	s.stats.batchCallers.Add(int64(len(calls)))
	s.stats.batchThresholds.Add(int64(meta.Thresholds))
	s.stats.served.Add(int64(len(calls))) // a batch caller is a served query

	aspan := s.cfg.Tracer.Start(telemetry.StageAnswer)
	defer aspan.End()
	byBeta := make(map[float64]int, len(betas))
	for i, b := range betas {
		if _, ok := byBeta[b]; !ok {
			byBeta[b] = i
		}
	}
	for _, c := range calls {
		resp := BatchResponse{
			Answers:     make([]BatchAnswer, len(c.betas)),
			Thresholds:  meta.Thresholds,
			Coalesced:   len(calls),
			SharedSteps: meta.SharedSteps,
			SearchSteps: meta.SearchSteps,
			Plan:        meta.Plan.Boundaries,
			Ratios:      meta.Plan.Ratios,
			PlanCached:  meta.CacheHit,
		}
		if len(results) > 0 {
			resp.Paths = results[0].Paths
			resp.Elapsed = results[0].Elapsed.Seconds()
		}
		for i, b := range c.betas {
			r := results[byBeta[b]]
			ci := r.CI(0.95)
			resp.Answers[i] = BatchAnswer{
				Beta:      b,
				P:         r.P,
				StdErr:    r.StdErr(),
				RelErr:    r.RelErr(),
				CILo:      ci.Lo,
				CIHi:      ci.Hi,
				Crossings: r.Hits,
			}
		}
		c.reply <- batchOutcome{resp: resp}
	}
	return nil
}
