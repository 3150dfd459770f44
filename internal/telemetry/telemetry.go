// Package telemetry is the observability subsystem: latency/size
// histograms, query-lifecycle trace spans, and a Prometheus-text-format
// registry — all stdlib-only and designed to live structurally outside
// the deterministic core.
//
// The design constraint everything here follows: sampled values, plans,
// counters and checkpoints must remain pure functions of (query, seed).
// Telemetry therefore only ever *observes* the serving layers; nothing
// in this package is reachable from persisted state, and no deterministic
// computation reads a histogram or span back. The one deliberate
// exception to "deterministic packages never touch the wall clock" is
// the clock seam below: Now and Since are the sanctioned sink for
// wall-clock reads, and durlint's detsource pass recognizes calls routed
// through this package while still flagging raw time.Now in
// internal/{core,exec,opt,stream,rng}. That turns "every timing site
// needs a suppression comment" into "every timing site goes through one
// auditable seam".
//
// Histograms are lock-free fixed-bucket counters (atomic adds, mergeable
// across shards exactly like g-MLSS counters fold in root order), so
// observing on the query hot path costs two atomic adds. Spans aggregate
// per lifecycle stage — admission wait, plan-cache lookup, plan search,
// exec fan-out, merge, answer assembly, stream refresh — and carry step
// counts so per-stage attribution sums exactly to the serving layer's
// sampleSteps/searchSteps totals.
package telemetry

import "time"

// Now reads the wall clock. This is the single sanctioned wall-clock
// read for deterministic packages: route timing telemetry through here
// (durlint's detsource pass whitelists it) instead of calling time.Now
// directly, so the invariant "no wall time feeds sampled values" stays
// auditable at one seam.
func Now() time.Time { return time.Now() }

// Since reports the wall time elapsed since t; the Since half of the
// clock seam.
func Since(t time.Time) time.Duration { return time.Since(t) }
