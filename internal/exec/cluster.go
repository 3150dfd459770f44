package exec

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"net/rpc"
	"strings"
	"sync"
	"time"

	"durability/internal/cluster"
	"durability/internal/core"
	"durability/internal/telemetry"
)

// A Cluster's fault-handling timers.
const (
	// dialTimeout bounds one connection attempt to a worker.
	dialTimeout = 5 * time.Second
	// retryDead is how long a failed worker sits out before the
	// executor tries it again. A Cluster lives as long as the daemon
	// mounting it, so retirement must not be permanent: a worker blip
	// (deploy restart, one connection reset) costs one cool-down, not
	// the fleet member forever.
	retryDead = 30 * time.Second
	// abandonedClientGrace is how long an orphaned connection (one whose
	// caller's context ended mid-call) lives before it is reaped. Sibling
	// calls multiplexed on it finish normally well within the grace; a
	// connection to a genuinely hung worker is closed when it expires.
	abandonedClientGrace = 2 * time.Minute
)

// Cluster is the distributed backend: root ranges are cut into group-
// aligned chunks, fanned out over the net/rpc workers of internal/cluster
// and merged back in root-index order. A worker that fails a call is
// marked dead and its chunk is retried on the survivors; because root
// ranges travel with the request, a retried chunk simulates exactly the
// substreams the dead worker was assigned and the merged result is
// unchanged. Dead workers re-enter the rotation after retryDead — worker
// membership affects only placement, never numerics, so the roster can
// flap freely without moving an answer.
//
// A Cluster is safe for concurrent use — the serving layer issues
// RunRoots calls from many queries and stream refreshes at once, and
// rpc.Client multiplexes concurrent calls over one connection.
type Cluster struct {
	addrs []string

	// Metrics, when non-nil, receives per-worker shard attribution: one
	// Record per chunk call, keyed by worker address. Telemetry only —
	// it never influences placement, retries or the merged result.
	Metrics *telemetry.WorkerMetrics

	mu        sync.Mutex
	clients   []*rpc.Client
	deadSince []time.Time // zero = in rotation
}

// ParseAddrs splits a comma-separated worker address list, as a command
// line gives it, trimming blanks around each address. An empty list or an
// empty entry is an error naming flag: an address that never dials would
// otherwise be retired silently and leave the fleet short.
func ParseAddrs(flag, list string) ([]string, error) {
	addrs := strings.Split(list, ",")
	for i, a := range addrs {
		if addrs[i] = strings.TrimSpace(a); addrs[i] == "" {
			return nil, fmt.Errorf("-%s %q: address %d is empty", flag, list, i+1)
		}
	}
	return addrs, nil
}

// NewCluster builds the distributed backend over the given worker
// addresses. Connections are dialed lazily on first use; a worker that
// cannot be dialed is treated like one that died mid-call.
func NewCluster(addrs ...string) *Cluster {
	return &Cluster{
		addrs:     append([]string(nil), addrs...),
		clients:   make([]*rpc.Client, len(addrs)),
		deadSince: make([]time.Time, len(addrs)),
	}
}

// Name implements Executor.
func (c *Cluster) Name() string { return fmt.Sprintf("cluster(%d workers)", len(c.addrs)) }

// Close releases every dialed connection.
func (c *Cluster) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, cl := range c.clients {
		if cl != nil {
			cl.Close()
			c.clients[i] = nil
		}
	}
}

// alive snapshots the indices of workers in rotation, returning workers
// whose dead cool-down has elapsed to the roster.
func (c *Cluster) alive() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []int
	for i := range c.addrs {
		if !c.deadSince[i].IsZero() {
			if telemetry.Since(c.deadSince[i]) < retryDead {
				continue
			}
			c.deadSince[i] = time.Time{} // cool-down over: back in rotation
		}
		out = append(out, i)
	}
	return out
}

// client returns the connection to worker idx, dialing outside the lock
// so one black-holed address cannot stall calls to healthy workers. The
// dial respects both dialTimeout and the caller's context, so a query
// already past its deadline never waits out a connection attempt.
func (c *Cluster) client(ctx context.Context, idx int) (*rpc.Client, error) {
	c.mu.Lock()
	if cl := c.clients[idx]; cl != nil {
		c.mu.Unlock()
		return cl, nil
	}
	c.mu.Unlock()

	dialer := net.Dialer{Timeout: dialTimeout}
	conn, err := dialer.DialContext(ctx, "tcp", c.addrs[idx])
	if err != nil {
		return nil, err
	}
	cl := rpc.NewClient(conn)
	c.mu.Lock()
	defer c.mu.Unlock()
	if existing := c.clients[idx]; existing != nil {
		// A concurrent caller won the dial race; keep its connection.
		cl.Close()
		return existing, nil
	}
	c.clients[idx] = cl
	return cl, nil
}

// markDead takes a worker out of rotation and closes its connection,
// which also unblocks any call still pending on it.
func (c *Cluster) markDead(idx int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.deadSince[idx] = telemetry.Now()
	if c.clients[idx] != nil {
		c.clients[idx].Close()
		c.clients[idx] = nil
	}
}

// abandonClient detaches worker idx's connection without closing it —
// used when the caller's context, not the worker, ended the exchange.
// The worker stays in rotation and the next call redials; calls from
// other queries still pending on the old connection complete normally
// (closing it here would fail them collaterally and cascade into
// retirements of a healthy worker). The orphan is reaped after a grace
// period, which is what finally severs a genuinely hung machine.
func (c *Cluster) abandonClient(idx int, cl *rpc.Client) {
	c.mu.Lock()
	if c.clients[idx] == cl {
		c.clients[idx] = nil
	}
	c.mu.Unlock()
	time.AfterFunc(abandonedClientGrace, func() { cl.Close() })
}

// isRequestError reports whether a call failed inside the worker's
// handler — the transport and the worker are healthy, the request itself
// is at fault (unknown model or observer, invalid plan, unregistered
// state type). Such failures must neither retire the worker nor be
// retried elsewhere: the same request fails on every machine.
func isRequestError(err error) bool {
	var srvErr rpc.ServerError
	return errors.As(err, &srvErr)
}

// call runs one shard request on worker idx; any failure retires the
// worker. The context bounds the whole call: a worker that hangs rather
// than crashes is cut off (its connection closed) as soon as ctx ends,
// so a stuck machine cannot pin a serving slot forever.
func (c *Cluster) call(ctx context.Context, idx int, req cluster.ShardRequest) (res core.ShardResult, err error) {
	began := telemetry.Now()
	var workerNanos int64
	defer func() {
		// res is the zero ShardResult on failure, so a failed attempt books
		// the call, the error and its round-trip, but no roots or steps —
		// the per-worker work series count only simulation the worker
		// actually performed, and a retried chunk's work lands once, on the
		// worker that completed it.
		c.Metrics.Worker(c.addrs[idx]).Record(
			telemetry.Since(began), workerNanos, res.Steps, res.Roots, err)
	}()
	cl, err := c.client(ctx, idx)
	if err != nil {
		if ctx.Err() != nil {
			// Our deadline interrupted the dial; the worker is not at fault.
			return core.ShardResult{}, ctx.Err()
		}
		c.markDead(idx)
		return core.ShardResult{}, err
	}
	var reply cluster.ShardReply
	pending := cl.Go("Worker.Run", req, &reply, make(chan *rpc.Call, 1))
	select {
	case done := <-pending.Done:
		if done.Error != nil {
			if !isRequestError(done.Error) {
				c.markDead(idx)
			}
			return core.ShardResult{}, done.Error
		}
		workerNanos = reply.WorkerNanos
		return reply.Result, nil
	case <-ctx.Done():
		// Our deadline, not necessarily the worker's fault: detach from
		// the connection so a genuinely hung machine cannot pin this
		// slot, but leave the worker in rotation for the next caller.
		c.abandonClient(idx, cl)
		return core.ShardResult{}, ctx.Err()
	}
}

// retry reassigns a failed chunk to the remaining live workers, one by
// one, retiring each that fails in turn.
func (c *Cluster) retry(ctx context.Context, req cluster.ShardRequest, lastErr error) (core.ShardResult, error) {
	for _, idx := range c.alive() {
		if err := ctx.Err(); err != nil {
			return core.ShardResult{}, err
		}
		r, err := c.call(ctx, idx, req)
		if err == nil {
			return r, nil
		}
		if isRequestError(err) {
			return core.ShardResult{}, err
		}
		lastErr = err
	}
	return core.ShardResult{}, fmt.Errorf("exec: chunk [%d,%d) failed on every live worker: %w",
		req.RootLo, req.RootHi, lastErr)
}

// RunRoots implements Executor: the range is cut into chunks whose
// boundaries fall on multiples of rootsPerGroup, one chunk per live
// worker, so every worker's groups are exactly the windows the local
// backend would have produced, and concatenating chunk results in
// range order reproduces the single-machine result bit for bit.
func (c *Cluster) RunRoots(ctx context.Context, t Task, lo, hi int64, rootsPerGroup int) (core.ShardResult, error) {
	if err := t.validate(); err != nil {
		return core.ShardResult{}, err
	}
	if hi <= lo {
		return core.ShardResult{}, errors.New("exec: empty root range")
	}
	if t.Model == "" {
		return core.ShardResult{}, errors.New("exec: cluster backend needs the task's registry model name")
	}
	if rootsPerGroup < 1 {
		rootsPerGroup = 1
	}
	plan, err := core.NewPlan(t.Boundaries...)
	if err != nil {
		return core.ShardResult{}, err
	}
	// A start state whose concrete type gob cannot ship fails on the
	// client side of the rpc write, which net/rpc reports like a dead
	// connection. Probe the encoding upfront so a deterministic bad task
	// is rejected here — never retiring workers or cascading through the
	// retry loop, which would poison the shared fleet for every caller.
	if t.Start != nil {
		if err := gob.NewEncoder(io.Discard).Encode(&cluster.ShardRequest{Start: t.Start}); err != nil {
			return core.ShardResult{}, fmt.Errorf("exec: task start state is not transportable: %w", err)
		}
	}
	if err := ctx.Err(); err != nil {
		return core.ShardResult{}, err
	}

	workers := c.alive()
	if len(workers) == 0 {
		return core.ShardResult{}, errors.New("exec: no live workers remain")
	}
	n := hi - lo
	per := (n + int64(len(workers)) - 1) / int64(len(workers))
	if rem := per % int64(rootsPerGroup); rem != 0 {
		per += int64(rootsPerGroup) - rem
	}
	req := func(clo, chi int64) cluster.ShardRequest {
		return cluster.ShardRequest{
			Model:      t.Model,
			Observer:   t.Observer,
			Start:      t.Start,
			Beta:       t.Beta,
			Horizon:    t.Horizon,
			Boundaries: t.Boundaries,
			Ratio:      t.Ratio,
			Ratios:     t.Ratios,
			Seed:       t.Seed,
			RootLo:     clo,
			RootHi:     chi,
			GroupRoots: rootsPerGroup,
		}
	}
	type chunk struct {
		req    cluster.ShardRequest
		result core.ShardResult
		err    error
	}
	var chunks []*chunk
	for clo := lo; clo < hi; clo += per {
		chi := clo + per
		if chi > hi {
			chi = hi
		}
		chunks = append(chunks, &chunk{req: req(clo, chi)})
	}

	var wg sync.WaitGroup
	for i, ch := range chunks {
		wg.Add(1)
		go func(idx int, ch *chunk) {
			defer wg.Done()
			ch.result, ch.err = c.call(ctx, idx, ch.req)
		}(workers[i], ch)
	}
	wg.Wait()

	// Retry every failed chunk serially on the survivors — except chunks
	// the workers rejected as bad requests, which would fail identically
	// everywhere. A failure here means no live worker could run it.
	for _, ch := range chunks {
		if ch.err == nil {
			continue
		}
		if isRequestError(ch.err) {
			return core.ShardResult{}, ch.err
		}
		ch.result, ch.err = c.retry(ctx, ch.req, ch.err)
		if ch.err != nil {
			return core.ShardResult{}, ch.err
		}
	}

	// Merge in range order, rebuilding the aggregate as the in-order sum
	// of the groups — the exact fold RunRootsBy performs locally. This
	// merged aggregate is also what the coordinator books into the
	// plan-quality ledger (exec.SampleOptions.Counters), so cluster-side
	// crossing statistics equal the local backend's to the last bit.
	out := core.ShardResult{Agg: core.NewCounters(plan.M())}
	for _, ch := range chunks {
		out.Roots += ch.result.Roots
		out.Steps += ch.result.Steps
		for _, g := range ch.result.Groups {
			out.Agg.Add(g)
			out.Groups = append(out.Groups, g)
		}
	}
	return out, nil
}
