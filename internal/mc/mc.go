// Package mc provides the Monte-Carlo foundation shared by every sampler:
// the durability query definition, cost accounting (the paper measures
// cost in invocations of the step simulator 𝔤), estimator quality targets,
// stopping rules, and the Simple Random Sampling (SRS) baseline of §2.2.
package mc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"durability/internal/rng"
	"durability/internal/stats"
	"durability/internal/stochastic"
)

// Condition is the Boolean query function q : X -> {0,1} of §2.1.
type Condition func(stochastic.State) bool

// Query is a durability prediction query Q(q, s): the probability that the
// process satisfies Cond at any time 1 <= t <= Horizon.
type Query struct {
	Cond    Condition
	Horizon int
}

// Threshold builds the standard condition z(x) >= beta from an observer.
func Threshold(z stochastic.Observer, beta float64) Condition {
	return func(s stochastic.State) bool { return z(s) >= beta }
}

// Validate reports configuration errors in the query.
func (q Query) Validate() error {
	if q.Cond == nil {
		return errors.New("mc: query has no condition")
	}
	if q.Horizon <= 0 {
		return fmt.Errorf("mc: query horizon %d must be positive", q.Horizon)
	}
	return nil
}

// Result is a sampler's answer to a durability query together with its
// quality and cost accounting.
type Result struct {
	P        float64 // unbiased point estimate of tau
	Variance float64 // estimated variance of the estimator

	Steps int64 // invocations of the step simulator (the paper's cost metric)
	Paths int64 // root paths simulated
	Hits  int64 // sample paths that reached the target

	Elapsed time.Duration // total wall-clock time
	VarTime time.Duration // portion spent estimating the variance
}

// CI returns the normal-approximation confidence interval at the given
// confidence level (e.g. 0.95).
func (r Result) CI(confidence float64) stats.Interval {
	return stats.MeanCI(r.P, r.Variance, confidence)
}

// RelErr returns sqrt(Variance)/P, the paper's relative-error measure.
func (r Result) RelErr() float64 { return stats.RelativeError(r.P, r.Variance) }

// StdErr returns the standard error of the estimate.
func (r Result) StdErr() float64 { return math.Sqrt(math.Max(r.Variance, 0)) }

// String formats the result for logs and CLI output.
func (r Result) String() string {
	return fmt.Sprintf("p=%.6g ±%.2g (95%% CI %v) steps=%d paths=%d hits=%d in %v",
		r.P, r.StdErr(), r.CI(0.95), r.Steps, r.Paths, r.Hits, r.Elapsed.Round(time.Millisecond))
}

// StopRule decides when a sampler may stop. Samplers consult the rule
// between batches of root paths.
type StopRule interface {
	// Done reports whether the running result meets the target.
	Done(r Result) bool
	// String describes the rule for reports.
	String() string
}

// Budget stops after a fixed number of simulator invocations — the paper's
// fixed-cost experiments (e.g. Table 6 uses a 50,000-invocation budget).
type Budget struct {
	Steps int64
}

// Done implements StopRule.
func (b Budget) Done(r Result) bool { return r.Steps >= b.Steps }

func (b Budget) String() string { return fmt.Sprintf("budget(%d steps)", b.Steps) }

// CITarget stops when the normal-approximation confidence interval
// half-width drops to Half (relative to the estimate when Relative is
// set, absolute otherwise). MinHits guards against the degenerate early
// stop at p̂ = 0 where the variance estimate is still meaningless.
type CITarget struct {
	Half       float64 // target half-width
	Confidence float64 // e.g. 0.95
	Relative   bool    // interpret Half as a fraction of the estimate
	MinHits    int64   // required hits before the rule can fire (default 10)
}

// Done implements StopRule.
func (c CITarget) Done(r Result) bool {
	minHits := c.MinHits
	if minHits == 0 {
		minHits = 10
	}
	if r.Hits < minHits || r.P <= 0 {
		return false
	}
	half := stats.ZCritical(c.Confidence) * math.Sqrt(math.Max(r.Variance, 0))
	if c.Relative {
		return half <= c.Half*r.P
	}
	return half <= c.Half
}

func (c CITarget) String() string {
	kind := "abs"
	if c.Relative {
		kind = "rel"
	}
	return fmt.Sprintf("ci(%.3g %s @%.2g)", c.Half, kind, c.Confidence)
}

// RETarget stops when the relative error sqrt(Var)/p̂ drops below Target —
// the paper's quality measure for tiny and rare queries (10% by default).
type RETarget struct {
	Target  float64
	MinHits int64 // required hits before the rule can fire (default 10)
}

// Done implements StopRule.
func (t RETarget) Done(r Result) bool {
	minHits := t.MinHits
	if minHits == 0 {
		minHits = 10
	}
	if r.Hits < minHits || r.P <= 0 {
		return false
	}
	return stats.RelativeError(r.P, r.Variance) <= t.Target
}

func (t RETarget) String() string { return fmt.Sprintf("re(%.3g)", t.Target) }

// Any stops as soon as any of the component rules is satisfied. The usual
// composition is Any(qualityTarget, Budget{hardCap}).
type Any []StopRule

// Done implements StopRule.
func (a Any) Done(r Result) bool {
	for _, rule := range a {
		if rule.Done(r) {
			return true
		}
	}
	return false
}

func (a Any) String() string {
	s := "any("
	for i, rule := range a {
		if i > 0 {
			s += ", "
		}
		s += rule.String()
	}
	return s + ")"
}

// All stops only when every component rule is satisfied.
type All []StopRule

// Done implements StopRule.
func (a All) Done(r Result) bool {
	for _, rule := range a {
		if !rule.Done(r) {
			return false
		}
	}
	return len(a) > 0
}

func (a All) String() string {
	s := "all("
	for i, rule := range a {
		if i > 0 {
			s += ", "
		}
		s += rule.String()
	}
	return s + ")"
}

// SRS is the Simple Random Sampling baseline (§2.2): simulate independent
// root paths, label each 1 if it satisfies the query condition before the
// horizon, and average the labels.
type SRS struct {
	Proc  stochastic.Process
	Query Query
	Stop  StopRule // when to stop; required
	Seed  uint64   // base seed; path i uses substream i, so results are scheduling-independent

	Workers int          // parallel workers (default 1)
	Batch   int          // root paths between stop-rule checks (default 256)
	Trace   func(Result) // optional per-batch progress callback (convergence plots)
}

// pathOutcome is the per-path accounting a worker reports.
type pathOutcome struct {
	steps int64
	hit   bool
}

// runPath simulates one root path and reports its label and cost.
func (s *SRS) runPath(idx int64) pathOutcome {
	src := rng.NewStream(s.Seed, uint64(idx))
	st := s.Proc.Initial()
	var out pathOutcome
	for t := 1; t <= s.Query.Horizon; t++ {
		s.Proc.Step(st, t, src)
		out.steps++
		if s.Query.Cond(st) {
			out.hit = true
			return out
		}
	}
	return out
}

// Run executes the sampler until the stop rule fires or the context is
// cancelled, returning the current unbiased estimate either way.
func (s *SRS) Run(ctx context.Context) (Result, error) {
	if err := s.Query.Validate(); err != nil {
		return Result{}, err
	}
	if s.Stop == nil {
		return Result{}, errors.New("mc: SRS requires a stop rule")
	}
	workers := s.Workers
	if workers <= 0 {
		workers = 1
	}
	batch := s.Batch
	if batch <= 0 {
		batch = 256
	}

	start := time.Now()
	var res Result
	next := int64(0)
	for {
		if err := ctx.Err(); err != nil {
			res.Elapsed = time.Since(start)
			return res, err
		}
		lo, hi := next, next+int64(batch)
		next = hi

		var mu sync.Mutex
		var wg sync.WaitGroup
		per := (hi - lo + int64(workers) - 1) / int64(workers)
		for w := 0; w < workers; w++ {
			wlo := lo + int64(w)*per
			whi := wlo + per
			if whi > hi {
				whi = hi
			}
			if wlo >= whi {
				continue
			}
			wg.Add(1)
			go func(wlo, whi int64) {
				defer wg.Done()
				var steps, hits int64
				for i := wlo; i < whi; i++ {
					out := s.runPath(i)
					steps += out.steps
					if out.hit {
						hits++
					}
				}
				mu.Lock()
				res.Steps += steps
				res.Hits += hits
				mu.Unlock()
			}(wlo, whi)
		}
		wg.Wait()

		res.Paths = hi
		res.P = float64(res.Hits) / float64(res.Paths)
		res.Variance = stats.BinomialVariance(res.P, res.Paths)
		res.Elapsed = time.Since(start)
		if s.Trace != nil {
			s.Trace(res)
		}
		if s.Stop.Done(res) {
			return res, nil
		}
	}
}
