package main

import (
	"errors"
	"net/http"

	"durability/internal/planstats"
	"durability/internal/serve"
	"durability/internal/telemetry"
)

// errPlansUnavailable answers GET /plans before bind installs the cache.
var errPlansUnavailable = errors.New("plan introspection unavailable until serving starts")

// Plan-quality introspection: GET /plans joins the plan cache (which
// plans exist, how often they are hit) with the crossing-statistics
// ledger (how those plans behave under live traffic) into one
// deterministic listing. Everything here is observability — the handler
// reads, it never influences planning.

// Drift verdicts, per plan.
const (
	verdictUnobserved    = "unobserved"     // no run has attempted any level yet
	verdictOK            = "ok"             // observed, max drift within threshold
	verdictDriftExceeded = "drift-exceeded" // observed, max drift above threshold
)

// planJSON is one cached plan in the GET /plans payload. Every field is
// a pure function of the driven traffic — no durations, no wall clock —
// so two identically driven servers render byte-identical listings.
type planJSON struct {
	Key        planstats.Key `json:"key"`
	Boundaries []float64     `json:"boundaries"`
	Ratio      int           `json:"ratio"`
	Ratios     []int         `json:"ratios,omitempty"`

	CacheHits int64 `json:"cacheHits"` // lookups the cache served for this plan
	Warmed    bool  `json:"warmed"`    // inserted from a snapshot, not searched

	// Run accounting from the ledger; zero when no run has booked yet.
	Runs  int64   `json:"runs"`
	Roots int64   `json:"roots"`
	Steps int64   `json:"steps"`
	Hits  float64 `json:"hits"`

	// Levels carries assumed vs observed per-level crossing
	// probabilities; for never-run plans the observed side is null.
	Levels   []planstats.LevelStat `json:"levels"`
	MaxDrift float64               `json:"maxDrift"`
	Verdict  string                `json:"verdict"`
}

// plansResponse is the GET /plans payload: every cached plan in
// canonical key order, plus the drift threshold the verdicts used.
type plansResponse struct {
	DriftThreshold float64    `json:"driftThreshold"`
	Plans          []planJSON `json:"plans"`
}

// plansPayload assembles the listing. Entries() is already sorted by
// key; the ledger is nil-safe, so an unwired daemon lists plans with
// assumed-only levels.
func plansPayload(cache *serve.PlanCache, ledger *planstats.Ledger, threshold float64) plansResponse {
	entries := cache.Entries()
	out := plansResponse{DriftThreshold: threshold, Plans: make([]planJSON, 0, len(entries))}
	for _, cp := range entries {
		shape := planstats.Shape{
			Boundaries: cp.Plan.Boundaries,
			Ratio:      cp.Key.Ratio,
			Ratios:     cp.Plan.Ratios,
		}
		pj := planJSON{
			Key:        cp.Key,
			Boundaries: cp.Plan.Boundaries,
			Ratio:      cp.Key.Ratio,
			Ratios:     cp.Plan.Ratios,
			CacheHits:  cp.Hits,
			Warmed:     cp.Warmed,
			Verdict:    verdictUnobserved,
		}
		snap, ok := ledger.Snapshot(pj.Key)
		if ok && shape.Equal(planstats.Shape{Boundaries: snap.Boundaries, Ratio: snap.Ratio, Ratios: snap.Ratios}) {
			pj.Runs, pj.Roots, pj.Steps, pj.Hits = snap.Runs, snap.Roots, snap.Steps, snap.Hits
			pj.Levels, pj.MaxDrift = snap.Levels, snap.MaxDrift
			if snap.Observed {
				pj.Verdict = verdictOK
				if threshold > 0 && snap.MaxDrift > threshold {
					pj.Verdict = verdictDriftExceeded
				}
			}
		} else {
			// No booked run under this exact shape (never run, or a
			// re-search whose lineage reset hasn't booked yet): list the
			// search's assumptions with the observed side null.
			pj.Levels = planstats.Describe(shape)
		}
		out.Plans = append(out.Plans, pj)
	}
	return out
}

// bindPlanLedger wires the crossing-statistics ledger into the metric
// registry: every booking refreshes the plan's drift and age gauges and
// the threshold-exceeded counter, and GET /plans gains its data sources.
// Call it before the first booking (in main, before the server is built)
// and before bind.
func (t *telemetrySet) bindPlanLedger(ledger *planstats.Ledger, threshold float64) {
	t.ledger = ledger
	t.driftThreshold = threshold
	drift := telemetry.NewPlanDriftMetrics(t.registry, threshold)
	ledger.OnBook = func(key planstats.Key, snap planstats.Snapshot) {
		drift.Observe(telemetry.PlanDriftSample{
			Key:      key.String(),
			MaxDrift: snap.MaxDrift,
			Observed: snap.Observed,
			Runs:     snap.Runs,
		})
	}
}

// handlePlans serves GET /plans on both the serving mux and the ops
// listener. It answers 503 until bind has installed the plan cache (the
// same window in which the serving endpoints are gated anyway).
func (t *telemetrySet) handlePlans(w http.ResponseWriter, r *http.Request) {
	cache := t.planCache
	if cache == nil {
		httpError(w, http.StatusServiceUnavailable, errPlansUnavailable)
		return
	}
	writeJSON(w, http.StatusOK, plansPayload(cache, t.ledger, t.driftThreshold))
}
