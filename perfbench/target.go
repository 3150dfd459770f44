package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"time"

	"durability/internal/serve"
)

// Wire forms of durserve's standing-query endpoints; the traced run
// renders the same structs so both runs answer in the same bytes.
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

type subscribeResponse struct {
	ID     string     `json:"id"`
	SubID  uint64     `json:"subId"`
	Stream string     `json:"stream"`
	Answer answerJSON `json:"answer"`
}

type refreshJSON struct {
	SubID  uint64     `json:"subId"`
	Answer answerJSON `json:"answer"`
	Error  string     `json:"error,omitempty"`
}

type tickResponse struct {
	Stream    string        `json:"stream"`
	Tick      int64         `json:"tick"`
	Refreshes []refreshJSON `json:"refreshes"`
}

// answer is one served probability, with what the correctness gate
// checks it against.
type answer struct {
	key                   uint64 // threshold index, or subscription ID
	p, ciLo, ciHi, relErr float64
	target                float64
	capped, satisfied     bool
}

// result is what one operation returned, stamped by drive with when it
// was sent and answered (offsets from the window start).
type result struct {
	op         int
	kind       string
	sent, done time.Duration
	err        error
	answers    []answer
	steps      int64 // simulator steps billed to the op
	bytes      int   // response body size
	tick       int64 // ticks: the stream tick answered

	// Queries: what replaying the answer's root range needs.
	req    *serve.Request
	plan   []float64
	paths  int64
	search int64
}

func (r result) latency() time.Duration { return r.done - r.sent }

// maxBudget is the server's default per-query step cap; a query that
// spent it stopped on budget, not on its quality target.
const maxBudget = 200_000_000

// inlineSlack widens a one-shot query's quality target in the gate. The
// inline core.GMLSS.Run loop stops on the variance of its last scheduled
// bootstrap and then re-bootstraps the pool for the answer it returns, so
// the reported relative error carries the noise of a second bootstrap
// around the value it stopped on. That noise grows as the pool shrinks:
// at a 0.15 target, rare-event answers come back up to 28% above it. The
// batch and standing paths return the variance they stopped on and are
// held to the target exactly.
const inlineSlack = 1.5

func queryResult(resp serve.Response, req serve.Request) result {
	return result{
		kind: "query",
		answers: []answer{{
			p: resp.P, ciLo: resp.CILo, ciHi: resp.CIHi, relErr: resp.RelErr, target: inlineSlack * req.RelErr,
			capped: resp.Steps-resp.SearchSteps >= maxBudget,
		}},
		steps:  resp.Steps,
		req:    &req,
		plan:   resp.Plan,
		paths:  resp.Paths,
		search: resp.SearchSteps,
	}
}

func batchResult(resp serve.BatchResponse, req serve.BatchRequest) result {
	r := result{kind: "batch", steps: resp.SharedSteps + resp.SearchSteps}
	for i, a := range resp.Answers {
		r.answers = append(r.answers, answer{
			key: uint64(i), p: a.P, ciLo: a.CILo, ciHi: a.CIHi, relErr: a.RelErr, target: req.RelErr,
			capped: resp.SharedSteps >= maxBudget,
		})
	}
	return r
}

func (a answerJSON) answer(key uint64, target float64) answer {
	return answer{
		key: key, p: a.P, ciLo: a.CILo, ciHi: a.CIHi, relErr: a.RelErr, target: target,
		capped: a.Capped, satisfied: a.Satisfied,
	}
}

// subTarget is every standing query's relative-error target.
const subTarget = 0.35

func tickResult(resp tickResponse) result {
	r := result{kind: "tick", tick: resp.Tick}
	for _, rf := range resp.Refreshes {
		if rf.Error != "" && r.err == nil {
			r.err = fmt.Errorf("refresh of subscription %d: %s", rf.SubID, rf.Error)
		}
		r.steps += rf.Answer.FreshSteps
		r.answers = append(r.answers, rf.Answer.answer(rf.SubID, subTarget))
	}
	return r
}

func subscribeResult(resp subscribeResponse) result {
	return result{
		kind:    "subscribe",
		steps:   resp.Answer.FreshSteps,
		answers: []answer{resp.Answer.answer(resp.SubID, subTarget)},
	}
}

// errNoUpdate is a long poll that expired without a new answer.
var errNoUpdate = errors.New("no update before the poll expired")

// target is the system under test as drive sees it: the daemon over
// loopback, or the same layers composed in-process. Subscriptions are
// addressed by their index in the schedule.
type target interface {
	query(ctx context.Context, op int, req serve.Request) result
	batch(ctx context.Context, op int, req serve.BatchRequest) result
	subscribe(ctx context.Context, op, idx int, req subscribeReq) result
	unsubscribe(ctx context.Context, op, idx int) result
	tick(ctx context.Context, op int) result
	// poll long-polls subscription idx for an answer past tick since and
	// returns that answer's tick.
	poll(ctx context.Context, idx int, since int64) (int64, error)
	// settle waits until the follower, if there is one, has applied
	// every record the primary has journaled.
	settle(ctx context.Context) error
}

// driveOut is one window's outcome.
type driveOut struct {
	start      time.Time     // the window start every offset counts from
	elapsed    time.Duration // from the start until the last op was settled
	ops        []result      // one per op sent, in schedule order
	churn      []result      // subscription churn after ticks
	updates    []float64     // ms from a tick's send to the long poll delivering it
	yardsticks []time.Duration
}

// send issues one op (a subscription takes index idx) and returns what
// it answered.
func send(ctx context.Context, t target, id, idx int, o op) result {
	switch {
	case o.Query != nil:
		return t.query(ctx, id, *o.Query)
	case o.Batch != nil:
		return t.batch(ctx, id, *o.Batch)
	case o.Sub != nil:
		return t.subscribe(ctx, id, idx, *o.Sub)
	default:
		return t.tick(ctx, id)
	}
}

// warm runs the set-up ops: subscriptions and warm-up ticks strictly in
// order (their order fixes the engine's subscription IDs, and so every
// answer), warm-up queries and ladders conns at a time; then it waits for
// the follower to catch up.
func warm(ctx context.Context, t target, s schedule, conns int) error {
	sem := make(chan struct{}, conns)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var first error
	for i, o := range s.Warm {
		if o.Sub != nil || o.Tick {
			if r := send(ctx, t, -1, i, o); r.err != nil {
				return fmt.Errorf("set-up %s %d: %w", r.kind, i, r.err)
			}
			continue
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(o op) {
			defer wg.Done()
			defer func() { <-sem }()
			if r := send(ctx, t, -1, -1, o); r.err != nil {
				mu.Lock()
				first = cmpOr(first, fmt.Errorf("warm-up: %w", r.err))
				mu.Unlock()
			}
		}(o)
	}
	wg.Wait()
	if first != nil {
		return first
	}
	if err := t.settle(ctx); err != nil {
		return fmt.Errorf("set-up: follower catch-up: %w", err)
	}
	return nil
}

func cmpOr(a, b error) error {
	if a != nil {
		return a
	}
	return b
}

// drive sends the window's ops as a closed loop, the way one client that
// waits for each answer sends them: an op goes out when the one before it
// has been answered and is timed from send to answer, so a slow stretch
// of the machine lengthens only the requests it overlaps. A batch pair
// goes out together on two connections. Each tick is followed by its
// churn on the same connection, while another keeps a long poll armed on
// the watched subscription; then the loop waits for the follower to apply
// all of it, so the follower's replay of one tick never runs beside the
// next. After limit (if positive) no further op is sent, and out.ops
// holds the ops that were. With yardsticks, the idle gap after an op
// times the yardstick once every yardstickEvery.
func drive(ctx context.Context, t target, w workload, s schedule, limit time.Duration, yardsticks bool) driveOut {
	start := time.Now()
	since := func() time.Duration { return time.Since(start) }
	out := driveOut{start: start}
	var lastYardstick time.Duration

	type arrival struct {
		tick int64
		at   time.Duration
	}
	var arrivals []arrival
	pollCtx, stopPoll := context.WithCancel(ctx)
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		if w.Kind != kindTicks {
			return
		}
		var last int64
		for pollCtx.Err() == nil {
			tk, err := t.poll(pollCtx, watched, last)
			if errors.Is(err, errNoUpdate) {
				continue // expired: re-arm
			}
			if err != nil {
				sleepUntil(pollCtx, time.Now().Add(10*time.Millisecond))
				continue
			}
			arrivals = append(arrivals, arrival{tk, since()})
			last = tk
		}
	}()
	next := 0 // the index the next subscription takes: set-up ones come first
	for _, o := range s.Warm {
		if o.Sub != nil {
			next++
		}
	}
	for i := 0; i < len(s.Ops) && ctx.Err() == nil && (limit <= 0 || since() < limit); {
		j := i + 1
		for j < len(s.Ops) && s.Ops[j].Pair {
			j++
		}
		group := make([]result, j-i)
		sent := since()
		var wg sync.WaitGroup
		for k, o := range s.Ops[i+1 : j] {
			wg.Add(1)
			go func() {
				defer wg.Done()
				group[k+1] = send(ctx, t, o.ID, -1, o)
				group[k+1].done = since()
			}()
		}
		group[0] = send(ctx, t, s.Ops[i].ID, -1, s.Ops[i])
		group[0].done = since()
		wg.Wait()
		for k, r := range group {
			r.op, r.sent = s.Ops[i+k].ID, sent
			out.ops = append(out.ops, r)
		}
		o := s.Ops[i]
		for _, idx := range o.Drop {
			cr := t.unsubscribe(ctx, o.ID, idx)
			cr.op = o.ID
			out.churn = append(out.churn, cr)
		}
		for _, req := range o.Add {
			cr := t.subscribe(ctx, o.ID, next, req)
			cr.op = o.ID
			out.churn = append(out.churn, cr)
			next++
		}
		if err := t.settle(ctx); err != nil {
			out.ops[len(out.ops)-len(group)].err = fmt.Errorf("follower catch-up: %w", err)
		}
		if yardsticks && since()-lastYardstick >= yardstickEvery {
			out.yardsticks = append(out.yardsticks, timeYardstick())
			lastYardstick = since()
		}
		i = j
	}
	out.elapsed = since()
	stopPoll()
	<-polled
	sentAt := make(map[int64]time.Duration, len(out.ops))
	for _, r := range out.ops {
		sentAt[r.tick] = r.sent
	}
	for _, a := range arrivals {
		if sent, ok := sentAt[a.tick]; ok {
			out.updates = append(out.updates, ms(a.at-sent))
		}
	}
	return out
}

func sleepUntil(ctx context.Context, t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-ctx.Done():
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// httpTarget drives a durserve over loopback.
type httpTarget struct {
	base     string
	follower string // the follower's base URL, if there is one
	client   *http.Client

	mu      sync.Mutex
	handles map[int]string // subscription index -> durserve handle
}

func newHTTPTarget(addr string, conns int) *httpTarget {
	return &httpTarget{
		base: "http://" + addr,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
		}},
		handles: make(map[int]string),
	}
}

// do sends one request and decodes a 200 answer into out, returning the
// response body size; any other status but 204 is an error.
func (h *httpTarget) do(ctx context.Context, method, path string, body, out any) (int, int, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, h.base+path, rd)
	if err != nil {
		return 0, 0, err
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, len(b), err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		if out != nil {
			if err := json.Unmarshal(b, out); err != nil {
				return resp.StatusCode, len(b), fmt.Errorf("%s %s: decoding answer: %w", method, path, err)
			}
		}
	case http.StatusNoContent:
	default:
		return resp.StatusCode, len(b), fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(b)))
	}
	return resp.StatusCode, len(b), nil
}

func (h *httpTarget) query(ctx context.Context, _ int, req serve.Request) result {
	var resp serve.Response
	_, n, err := h.do(ctx, http.MethodPost, "/query", req, &resp)
	if err != nil {
		return result{kind: "query", err: err}
	}
	r := queryResult(resp, req)
	r.bytes = n
	return r
}

func (h *httpTarget) batch(ctx context.Context, _ int, req serve.BatchRequest) result {
	var resp serve.BatchResponse
	_, n, err := h.do(ctx, http.MethodPost, "/batch", req, &resp)
	if err != nil {
		return result{kind: "batch", err: err}
	}
	r := batchResult(resp, req)
	r.bytes = n
	return r
}

func (h *httpTarget) subscribe(ctx context.Context, _, idx int, req subscribeReq) result {
	var resp subscribeResponse
	_, n, err := h.do(ctx, http.MethodPost, "/subscribe", req, &resp)
	if err != nil {
		return result{kind: "subscribe", err: err}
	}
	h.mu.Lock()
	h.handles[idx] = resp.ID
	h.mu.Unlock()
	r := subscribeResult(resp)
	r.bytes = n
	return r
}

func (h *httpTarget) handle(idx int) string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.handles[idx]
}

func (h *httpTarget) unsubscribe(ctx context.Context, _, idx int) result {
	_, _, err := h.do(ctx, http.MethodDelete, "/subscribe?id="+h.handle(idx), nil, nil)
	return result{kind: "unsubscribe", err: err}
}

func (h *httpTarget) tick(ctx context.Context, _ int) result {
	var resp tickResponse
	_, n, err := h.do(ctx, http.MethodPost, "/tick", map[string]string{"stream": streamName}, &resp)
	if err != nil {
		return result{kind: "tick", err: err}
	}
	r := tickResult(resp)
	r.bytes = n
	return r
}

func (h *httpTarget) poll(ctx context.Context, idx int, since int64) (int64, error) {
	var a answerJSON
	code, _, err := h.do(ctx, http.MethodGet, fmt.Sprintf("/updates?id=%s&since=%d&timeoutSec=30", h.handle(idx), since), nil, &a)
	if err != nil {
		return 0, err
	}
	if code == http.StatusNoContent {
		return 0, errNoUpdate
	}
	return a.Tick, nil
}

// settleEvery is how often settle rereads the follower's progress.
const settleEvery = 5 * time.Millisecond

// settleLimit bounds one wait for the follower.
const settleLimit = 30 * time.Second

// settle reads the next LSN of every store from the primary's
// replication manifest, then rereads the follower's /readyz until each
// store's applied LSN has reached it.
func (h *httpTarget) settle(ctx context.Context) error {
	if h.follower == "" {
		return nil
	}
	var man struct {
		Stores []struct {
			Name    string
			NextLSN int64
		}
	}
	if _, _, err := h.do(ctx, http.MethodGet, "/replicate/manifest", nil, &man); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(ctx, settleLimit)
	defer cancel()
	for {
		// A follower's /readyz answers 503 with its replication lag.
		var ready struct {
			Stores map[string]struct {
				AppliedLSN int64 `json:"appliedLSN"`
			} `json:"stores"`
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.follower+"/readyz", nil)
		if err != nil {
			return err
		}
		resp, err := h.client.Do(req)
		if err != nil {
			return err
		}
		err = json.NewDecoder(resp.Body).Decode(&ready)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("follower /readyz: %w", err)
		}
		behind := -1
		for i, st := range man.Stores {
			if ready.Stores[st.Name].AppliedLSN < st.NextLSN-1 {
				behind = i
				break
			}
		}
		if behind < 0 {
			return nil
		}
		sleepUntil(ctx, time.Now().Add(settleEvery))
		if ctx.Err() != nil {
			st := man.Stores[behind]
			return fmt.Errorf("store %s not applied through LSN %d: %w", st.Name, st.NextLSN-1, ctx.Err())
		}
	}
}

// sane checks one answer: a probability, inside its own confidence
// interval, and at its quality target unless the refresh was capped or
// the condition already holds.
func (a answer) sane() error {
	if math.IsNaN(a.p) || a.p < 0 || a.p > 1 {
		return fmt.Errorf("p = %v is not a probability", a.p)
	}
	if a.satisfied {
		return nil
	}
	if !(a.ciLo <= a.p && a.p <= a.ciHi) {
		return fmt.Errorf("p = %v outside its interval [%v, %v]", a.p, a.ciLo, a.ciHi)
	}
	if !a.capped && !(a.relErr >= 0 && a.relErr <= a.target) {
		return fmt.Errorf("relative error %v misses the target %v", a.relErr, a.target)
	}
	return nil
}
