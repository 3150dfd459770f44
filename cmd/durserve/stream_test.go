package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"durability/internal/mc"
	"durability/internal/stream"
)

func postJSON(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func subscribe(t *testing.T, ts *httptest.Server, body string) subscribeResponse {
	t.Helper()
	resp, raw := postJSON(t, ts, "/subscribe", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe status %d: %s", resp.StatusCode, raw)
	}
	var out subscribeResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSubscribeAndTick(t *testing.T) {
	ts := testServer(t)

	sub := subscribe(t, ts, `{"model":"walk","beta":15,"horizon":100,"re":0.2}`)
	if sub.ID == "" || sub.Stream != "walk" {
		t.Fatalf("subscribe response %+v", sub)
	}
	if sub.Answer.Tick != 0 || sub.Answer.P <= 0 || sub.Answer.FreshSteps == 0 {
		t.Fatalf("initial answer %+v", sub.Answer)
	}

	// Advance the live state; the standing answer refreshes incrementally.
	resp, raw := postJSON(t, ts, "/tick", `{"stream":"walk","steps":3}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tick status %d: %s", resp.StatusCode, raw)
	}
	var tk tickResponse
	if err := json.Unmarshal(raw, &tk); err != nil {
		t.Fatal(err)
	}
	if tk.Tick != 3 || len(tk.Refreshes) != 1 {
		t.Fatalf("tick response %+v", tk)
	}
	if tk.Refreshes[0].Error != "" {
		t.Fatalf("refresh error: %s", tk.Refreshes[0].Error)
	}
	last := tk.Refreshes[0].Answer
	if last.Tick != 3 {
		t.Fatalf("refreshed answer %+v", last)
	}
	if last.FreshSteps+last.SearchSteps >= sub.Answer.FreshSteps+sub.Answer.SearchSteps {
		t.Fatalf("tick 3 cost %d steps, cold start cost %d — not incremental",
			last.FreshSteps+last.SearchSteps, sub.Answer.FreshSteps+sub.Answer.SearchSteps)
	}

	// Stream stats reflect the maintenance work.
	streamsResp, err := http.Get(ts.URL + "/streams")
	if err != nil {
		t.Fatal(err)
	}
	defer streamsResp.Body.Close()
	var st streamStats
	if err := json.NewDecoder(streamsResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Subscriptions != 1 || st.Engine.Ticks != 3 || st.Engine.Refreshes != 4 {
		t.Fatalf("stream stats %+v", st)
	}
}

func TestUpdatesLongPoll(t *testing.T) {
	ts := testServer(t)
	sub := subscribe(t, ts, `{"model":"walk","beta":15,"horizon":100,"re":0.2}`)

	// Arm the long poll before the tick arrives.
	type pollResult struct {
		status int
		body   []byte
	}
	got := make(chan pollResult, 1)
	go func() {
		resp, err := http.Get(fmt.Sprintf("%s/updates?id=%s&since=0&timeoutSec=30", ts.URL, sub.ID))
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		got <- pollResult{status: resp.StatusCode, body: buf.Bytes()}
	}()
	time.Sleep(20 * time.Millisecond)
	if resp, raw := postJSON(t, ts, "/tick", `{"stream":"walk"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("tick status %d: %s", resp.StatusCode, raw)
	}
	select {
	case r := <-got:
		if r.status != http.StatusOK {
			t.Fatalf("long poll status %d: %s", r.status, r.body)
		}
		var ans answerJSON
		if err := json.Unmarshal(r.body, &ans); err != nil {
			t.Fatal(err)
		}
		if ans.Tick != 1 {
			t.Fatalf("long poll woke with tick %d, want 1", ans.Tick)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("long poll did not wake on tick")
	}

	// A poll that outlives its timeout returns 204.
	resp, err := http.Get(fmt.Sprintf("%s/updates?id=%s&since=99&timeoutSec=0.05", ts.URL, sub.ID))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("expired poll status %d, want 204", resp.StatusCode)
	}

	// Unsubscribing wakes in-flight polls with 410 and frees the handle
	// (later polls see 404).
	woken := make(chan pollResult, 1)
	go func() {
		resp, err := http.Get(fmt.Sprintf("%s/updates?id=%s&since=99&timeoutSec=30", ts.URL, sub.ID))
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
		woken <- pollResult{status: resp.StatusCode}
	}()
	time.Sleep(20 * time.Millisecond)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/subscribe?id="+sub.ID, nil)
	delResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusNoContent {
		t.Fatalf("unsubscribe status %d", delResp.StatusCode)
	}
	select {
	case r := <-woken:
		if r.status != http.StatusGone {
			t.Fatalf("poll woken by unsubscribe: status %d, want 410", r.status)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("unsubscribe did not wake the in-flight poll")
	}
	resp, err = http.Get(fmt.Sprintf("%s/updates?id=%s&since=0", ts.URL, sub.ID))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("poll after unsubscribe: status %d, want 404", resp.StatusCode)
	}
}

func TestSubscribeErrors(t *testing.T) {
	ts := testServer(t)
	for _, body := range []string{
		`{not json`, // malformed
		`{"model":"walk","beta":15,"horizon":100} garbage`, // trailing data
		`{"modle":"walk","beta":15,"horizon":100}`,         // unknown field (typo)
		`{"model":"nope","beta":15,"horizon":100}`,         // unknown model
		`{"model":"walk","observer":"nope","beta":15,"horizon":100}`,
		`{"model":"walk","beta":-1,"horizon":100}`,
		`{"model":"walk","beta":15,"horizon":0}`,
	} {
		resp, raw := postJSON(t, ts, "/subscribe", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d (%s), want 400", body, resp.StatusCode, raw)
		}
	}
	// A stream is bound to the model that created it.
	subscribe(t, ts, `{"stream":"shared","model":"walk","beta":15,"horizon":100,"re":0.2}`)
	if resp, raw := postJSON(t, ts, "/subscribe", `{"stream":"shared","model":"gbm","beta":1200,"horizon":100}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("model mismatch on existing stream: status %d (%s), want 400", resp.StatusCode, raw)
	}
	// Unknown stream on /tick.
	if resp, _ := postJSON(t, ts, "/tick", `{"stream":"nope"}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("tick of unknown stream: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts, "/tick", `{oops`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed tick body: status %d, want 400", resp.StatusCode)
	}
	// Unknown subscription handles.
	resp, err := http.Get(ts.URL + "/updates?id=nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("updates for unknown id: status %d, want 404", resp.StatusCode)
	}
}

// A degenerate pool (empty, or hitless at p=0) carries infinite variance
// or relative error; the wire form must stay encodable — encoding/json
// rejects ±Inf outright, which would truncate a 200 response mid-body.
func TestToAnswerJSONStaysEncodable(t *testing.T) {
	for _, a := range []stream.Answer{
		{Result: mc.Result{P: 0, Variance: math.Inf(1)}},   // empty pool
		{Result: mc.Result{P: 0, Variance: 0, Paths: 128}}, // hitless pool
		{Result: mc.Result{P: 0.5, Variance: math.NaN()}},  // pathological
		{Result: mc.Result{P: 1, Variance: 0}, Satisfied: true},
	} {
		j := toAnswerJSON(a)
		if _, err := json.Marshal(j); err != nil {
			t.Errorf("answer %+v does not encode: %v", a, err)
		}
		if j.CILo < 0 || j.CIHi > 1 {
			t.Errorf("CI outside [0,1]: %+v", j)
		}
	}
	degenerate := toAnswerJSON(stream.Answer{Result: mc.Result{P: 0, Variance: math.Inf(1)}})
	if degenerate.RelErr != -1 || degenerate.StdErr != -1 {
		t.Errorf("infinite quality should encode as -1: %+v", degenerate)
	}
}

// Concurrent /tick requests on one stream must serialize on the feed.
func TestConcurrentTicksSerialize(t *testing.T) {
	ts := testServer(t)
	subscribe(t, ts, `{"model":"walk","beta":15,"horizon":100,"re":0.2}`)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, raw := postJSON(t, ts, "/tick", `{"stream":"walk","steps":3}`)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("tick status %d: %s", resp.StatusCode, raw)
			}
		}()
	}
	wg.Wait()
	resp, raw := postJSON(t, ts, "/tick", `{"stream":"walk"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tick status %d: %s", resp.StatusCode, raw)
	}
	var tk tickResponse
	if err := json.Unmarshal(raw, &tk); err != nil {
		t.Fatal(err)
	}
	if tk.Tick != 13 {
		t.Fatalf("tick %d after 4x3+1 serialized ticks, want 13", tk.Tick)
	}
}

// Malformed JSON on /query must be a 400, never a 500 — including bodies
// that parse but carry trailing garbage or misspelled fields.
func TestQueryMalformedBodiesAre400(t *testing.T) {
	ts := testServer(t)
	for _, body := range []string{
		`{not json`,
		`null trailing`,
		`{"model":"walk","beta":8,"horizon":100}{"model":"walk"}`, // second document
		`{"mdoel":"walk","beta":8,"horizon":100}`,                 // typo'd field
		`{"model":"walk","beta":"eight","horizon":100}`,           // wrong type
	} {
		resp, raw := postJSON(t, ts, "/query", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d (%s), want 400", body, resp.StatusCode, raw)
		}
	}
}

// A stream that fails to tick must not starve the rest of the auto-tick
// sweep (the old sweep returned on the first error), and its failures
// must be visible as per-stream counters in GET /streams.
func TestAutoTickContinuesPastFailingStream(t *testing.T) {
	ts, hub := testServerHub(t)
	subscribe(t, ts, `{"model":"walk","beta":15,"horizon":100,"re":0.2}`)

	// Inject broken feeds: they exist in the auto-tick sweep but were never
	// registered with the engine, so every tick of them fails. Three of
	// them make "the healthy stream happened to sort first every sweep"
	// vanishingly unlikely under the old early-return behavior.
	hub.mu.Lock()
	proc := hub.feeds["walk"].proc
	for _, name := range []string{"broken-a", "broken-b", "broken-c"} {
		hub.feeds[name] = &feed{
			model: "walk", proc: proc,
			state: proc.Initial(), src: feedSource(1, name),
		}
	}
	hub.mu.Unlock()

	const sweeps = 4
	for i := 0; i < sweeps; i++ {
		hub.autoTick(context.Background())
	}

	tick, ok := hub.engine.Tick("walk")
	if !ok || tick != sweeps {
		t.Fatalf("healthy stream at tick %d after %d sweeps, want %d (starved by a failing sibling?)", tick, sweeps, sweeps)
	}
	st := hub.stats()
	for _, name := range []string{"broken-a", "broken-b", "broken-c"} {
		if st.TickErrors[name] != sweeps {
			t.Errorf("stream %q: %d tick errors recorded, want %d", name, st.TickErrors[name], sweeps)
		}
	}
	if st.TickErrors["walk"] != 0 {
		t.Errorf("healthy stream booked %d tick errors", st.TickErrors["walk"])
	}
}

// A client abandoning its own long poll is the protocol working: the
// aborted request must drain as 204 like an expired wait, not as a 504
// server error.
func TestUpdatesAbortedLongPollIs204(t *testing.T) {
	ts, hub := testServerHub(t)
	sub := subscribe(t, ts, `{"model":"walk","beta":15,"horizon":100,"re":0.2}`)

	req := httptest.NewRequest(http.MethodGet,
		fmt.Sprintf("/updates?id=%s&since=0&timeoutSec=30", sub.ID), nil)
	ctx, cancel := context.WithCancel(req.Context())
	cancel() // the client has already gone away
	rec := httptest.NewRecorder()
	hub.handleUpdates(rec, req.WithContext(ctx), nil)
	if rec.Code != http.StatusNoContent {
		t.Fatalf("aborted long poll: status %d, want 204", rec.Code)
	}
}

// POST /tick with steps > 1 refreshes every subscription once per step
// but reports only the final step's refresh outcomes — one entry per
// subscription at the final tick, not steps x subscriptions. This pins
// the wire contract clients re-arm against.
func TestTickMultiStepReturnsOnlyLastStepRefreshes(t *testing.T) {
	ts := testServer(t)
	s1 := subscribe(t, ts, `{"model":"walk","beta":15,"horizon":100,"re":0.2}`)
	s2 := subscribe(t, ts, `{"model":"walk","beta":18,"horizon":100,"re":0.2}`)

	resp, raw := postJSON(t, ts, "/tick", `{"stream":"walk","steps":3}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tick status %d: %s", resp.StatusCode, raw)
	}
	var tk tickResponse
	if err := json.Unmarshal(raw, &tk); err != nil {
		t.Fatal(err)
	}
	if tk.Tick != 3 {
		t.Fatalf("tick %d after steps=3, want 3", tk.Tick)
	}
	if len(tk.Refreshes) != 2 {
		t.Fatalf("%d refresh outcomes for 2 subscriptions over 3 steps, want exactly 2 (last step only)", len(tk.Refreshes))
	}
	seen := map[uint64]bool{}
	for _, r := range tk.Refreshes {
		if r.Answer.Tick != 3 {
			t.Errorf("refresh for sub %d reports tick %d, want the final tick 3", r.SubID, r.Answer.Tick)
		}
		seen[r.SubID] = true
	}
	if !seen[s1.SubID] || !seen[s2.SubID] {
		t.Fatalf("refresh outcomes cover subs %v, want both %d and %d", seen, s1.SubID, s2.SubID)
	}
}

// Concurrent /tick, /subscribe, /updates and /streams traffic against one
// hub must be data-race free (the CI race job runs this package with
// -race) and leave the stream at the exact tick count the ticks summed to.
func TestConcurrentStreamEndpoints(t *testing.T) {
	ts, hub := testServerHub(t)
	subscribe(t, ts, `{"model":"walk","beta":15,"horizon":100,"re":0.3}`)

	const (
		tickers     = 3
		ticksEach   = 5
		subscribers = 3
		pollers     = 3
	)
	var wg sync.WaitGroup
	for i := 0; i < tickers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < ticksEach; j++ {
				resp, raw := postJSON(t, ts, "/tick", `{"stream":"walk","steps":1}`)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("tick status %d: %s", resp.StatusCode, raw)
					return
				}
			}
		}()
	}
	for i := 0; i < subscribers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			beta := 14 + i
			sub := subscribe(t, ts, fmt.Sprintf(`{"model":"walk","beta":%d,"horizon":100,"re":0.3}`, beta))
			resp, err := http.Get(fmt.Sprintf("%s/updates?id=%s&since=0&timeoutSec=5", ts.URL, sub.ID))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNoContent {
				t.Errorf("poll status %d", resp.StatusCode)
			}
		}(i)
	}
	for i := 0; i < pollers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/streams")
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
		}()
	}
	wg.Wait()

	if tick, _ := hub.engine.Tick("walk"); tick != tickers*ticksEach {
		t.Fatalf("stream at tick %d after %d concurrent ticks", tick, tickers*ticksEach)
	}
}
