package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"durability/internal/mc"
	"durability/internal/stream"
)

// The renderer's oracle is encoding/json over the wire structs: every
// body an appender produces must equal the struct's encoding byte for
// byte, and an appender must fail exactly where encoding/json fails, with
// the same message.

// edgeFloats are the values where encoding/json's float rule turns: both
// zeros, the 'f'/'e' cutoffs on each side, subnormals, the largest
// finite value, and the non-finite values it refuses.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 1e-6, -1e-6, 9.99999e-7, math.Nextafter(1e-6, 0),
	1e-7, 1.5e-7, 1e-10, 1e-100, 1e-300, 5e-324, math.SmallestNonzeroFloat64,
	1e20, 1e21, -1e21, math.Nextafter(1e21, 0), 1.5e21, 1e22, 1e100, 1e300, math.MaxFloat64,
	0.1, 1.0 / 3, 123456789.125, 0.999999999, 2.5e-5,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

// oddStrings need escaping: quotes, control bytes, HTML-sensitive
// characters, line separators and invalid UTF-8.
var oddStrings = []string{
	"", "walk", "sub-1", `a"b\c`, "<script>&amp;</script>", "tab\tnl\n\x00\x1f",
	"  ", "héllo", "\xff\xfe", "ok\xc3", "日本",
}

// sameAsJSON fails unless got/gotErr match encoding/json's rendering of
// v: equal bytes, or an error with the same message.
func sameAsJSON(t *testing.T, what string, got []byte, gotErr error, v any) {
	t.Helper()
	want, wantErr := json.Marshal(v)
	switch {
	case wantErr != nil || gotErr != nil:
		if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: render error %v, encoding/json error %v", what, gotErr, wantErr)
		}
	case !bytes.Equal(got, want):
		t.Fatalf("%s: rendered\n%s\nencoding/json\n%s", what, got, want)
	}
}

// tickOracle builds the tickResponse a tick's refreshes stand for: one
// refreshJSON per refresh, the error's text when it has one, and a nil
// list (null on the wire) when there are no refreshes.
func tickOracle(streamName string, tick int64, refreshes []stream.Refresh) tickResponse {
	out := tickResponse{Stream: streamName, Tick: tick}
	for _, r := range refreshes {
		rj := refreshJSON{SubID: r.SubID, Answer: toAnswerJSON(r.Answer)}
		if r.Err != nil {
			rj.Error = r.Err.Error()
		}
		out.Refreshes = append(out.Refreshes, rj)
	}
	return out
}

func pick[T any](rnd *rand.Rand, xs []T) T { return xs[rnd.Intn(len(xs))] }

func randFloat(rnd *rand.Rand) float64 {
	switch rnd.Intn(4) {
	case 0:
		return pick(rnd, edgeFloats)
	case 1:
		return math.Float64frombits(rnd.Uint64())
	case 2:
		return rnd.Float64() * math.Pow(10, float64(rnd.Intn(60)-30))
	default:
		return rnd.NormFloat64()
	}
}

func randInt(rnd *rand.Rand) int64 {
	switch rnd.Intn(3) {
	case 0:
		return pick(rnd, []int64{0, 1, -1, math.MaxInt64, math.MinInt64})
	case 1:
		return int64(rnd.Uint64())
	default:
		return rnd.Int63n(1_000_000)
	}
}

func randAnswerJSON(rnd *rand.Rand) answerJSON {
	return answerJSON{
		Tick: randInt(rnd), P: randFloat(rnd), StdErr: randFloat(rnd), RelErr: randFloat(rnd),
		CILo: randFloat(rnd), CIHi: randFloat(rnd), Satisfied: rnd.Intn(2) == 0,
		PoolPaths: randInt(rnd), PoolSteps: randInt(rnd), FreshRoots: randInt(rnd), FreshSteps: randInt(rnd),
		SearchSteps: randInt(rnd), SurvivedRoots: randInt(rnd), DroppedRoots: randInt(rnd),
		Replanned: rnd.Intn(2) == 0, PlanCached: rnd.Intn(2) == 0, Capped: rnd.Intn(2) == 0,
	}
}

// randRefresh draws an engine refresh; its answer passes through
// toAnswerJSON, whose fallbacks leave P as the only field that can be
// non-finite on the wire.
func randRefresh(rnd *rand.Rand) stream.Refresh {
	r := stream.Refresh{
		SubID: rnd.Uint64(),
		Answer: stream.Answer{
			Tick: randInt(rnd),
			Result: mc.Result{
				P: math.Abs(randFloat(rnd)), Variance: randFloat(rnd),
				Paths: randInt(rnd), Steps: randInt(rnd),
			},
			Satisfied: rnd.Intn(2) == 0, FreshRoots: randInt(rnd), FreshSteps: randInt(rnd),
			SearchSteps: randInt(rnd), SurvivedRoots: randInt(rnd), DroppedRoots: randInt(rnd),
			Replanned: rnd.Intn(2) == 0, PlanCached: rnd.Intn(2) == 0, Capped: rnd.Intn(2) == 0,
		},
	}
	if rnd.Intn(20) != 0 {
		r.Answer.Result.P = rnd.Float64() // keep most bodies encodable
	}
	switch rnd.Intn(4) {
	case 0:
		r.Err = errors.New(pick(rnd, oddStrings)) // "" is an empty error, omitted
	case 1:
		r.Err = fmt.Errorf("refresh: %w", errors.New(pick(rnd, oddStrings)))
	}
	return r
}

func TestRenderMatchesEncodingJSON(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		a := randAnswerJSON(rnd)
		got, err := appendAnswer(nil, &a)
		sameAsJSON(t, fmt.Sprintf("answer %+v", a), got, err, a)

		s := subscribeResponse{ID: pick(rnd, oddStrings), SubID: rnd.Uint64(), Stream: pick(rnd, oddStrings), Answer: a}
		got, err = appendSubscribe(nil, &s)
		sameAsJSON(t, fmt.Sprintf("subscribe %+v", s), got, err, s)
	}
	for i := 0; i < 300; i++ {
		var refreshes []stream.Refresh
		switch n := rnd.Intn(8); n {
		case 0: // nil
		case 1:
			refreshes = []stream.Refresh{}
		default:
			for j := 0; j < n*n; j++ {
				refreshes = append(refreshes, randRefresh(rnd))
			}
		}
		name, tick := pick(rnd, oddStrings), randInt(rnd)
		got, err := appendTick(nil, name, tick, refreshes)
		sameAsJSON(t, fmt.Sprintf("tick of %d refreshes", len(refreshes)), got, err, tickOracle(name, tick, refreshes))
	}
	// Every edge float in every float field, and every bool field alone.
	for _, f := range edgeFloats {
		for field := 0; field < 5; field++ {
			var a answerJSON
			*[...]*float64{&a.P, &a.StdErr, &a.RelErr, &a.CILo, &a.CIHi}[field] = f
			got, err := appendAnswer(nil, &a)
			sameAsJSON(t, fmt.Sprintf("float %v in field %d", f, field), got, err, a)
		}
	}
	for flag := 0; flag < 4; flag++ {
		var a answerJSON
		*[...]*bool{&a.Satisfied, &a.Replanned, &a.PlanCached, &a.Capped}[flag] = true
		got, err := appendAnswer(nil, &a)
		sameAsJSON(t, fmt.Sprintf("flag %d", flag), got, err, a)
	}
}

// The renderer appends: a body lands after whatever the buffer already
// holds, which is how writeRendered reuses pooled buffers.
func TestRenderAppendsToBuffer(t *testing.T) {
	a := answerJSON{Tick: 3, P: 0.25}
	got, err := appendAnswer([]byte("prefix"), &a)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(a)
	if string(got) != "prefix"+string(want) {
		t.Fatalf("appended %q, want prefix + %q", got, want)
	}
}

func FuzzAnswerRender(f *testing.F) {
	for i, v := range edgeFloats {
		bits := math.Float64bits(v)
		f.Add(bits, bits, math.Float64bits(edgeFloats[(i+1)%len(edgeFloats)]), bits, bits,
			int64(i), int64(-i), uint64(i), uint8(i*37), oddStrings[i%len(oddStrings)], oddStrings[(i+3)%len(oddStrings)])
	}
	f.Fuzz(func(t *testing.T, pBits, seBits, reBits, loBits, hiBits uint64, tick, n int64, subID uint64, flags uint8, s1, s2 string) {
		a := answerJSON{
			Tick: tick, P: math.Float64frombits(pBits), StdErr: math.Float64frombits(seBits),
			RelErr: math.Float64frombits(reBits), CILo: math.Float64frombits(loBits), CIHi: math.Float64frombits(hiBits),
			Satisfied: flags&1 != 0, PoolPaths: n, PoolSteps: -n, FreshRoots: n ^ tick, FreshSteps: n + 1,
			SearchSteps: tick - 1, SurvivedRoots: int64(subID), DroppedRoots: n * 3,
			Replanned: flags&2 != 0, PlanCached: flags&4 != 0, Capped: flags&8 != 0,
		}
		got, err := appendAnswer(nil, &a)
		sameAsJSON(t, "answer", got, err, a)

		s := subscribeResponse{ID: s1, SubID: subID, Stream: s2, Answer: a}
		got, err = appendSubscribe(nil, &s)
		sameAsJSON(t, "subscribe", got, err, s)

		r := stream.Refresh{SubID: subID, Answer: stream.Answer{
			Tick:      tick,
			Result:    mc.Result{P: a.P, Variance: a.StdErr, Paths: n, Steps: tick},
			Satisfied: a.Satisfied, FreshRoots: n, Replanned: a.Replanned, Capped: a.Capped,
		}}
		if flags&16 != 0 {
			r.Err = errors.New(s1)
		}
		refreshes := []stream.Refresh{r, r}
		if flags&32 != 0 {
			refreshes = nil
		}
		got, err = appendTick(nil, s2, tick, refreshes)
		sameAsJSON(t, "tick", got, err, tickOracle(s2, tick, refreshes))
	})
}

// rawResponse is one driven request's status, headers and body.
type rawResponse struct {
	resp *http.Response
	body []byte
}

func getRaw(t *testing.T, url string) rawResponse {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return rawResponse{resp, buf.Bytes()}
}

// reencodes checks one driven body: a 200 with its Content-Length (not
// chunked), whose bytes equal encoding/json's Encoder output for the
// same values decoded into the wire struct v.
func reencodes(t *testing.T, what string, r rawResponse, v any) {
	t.Helper()
	if r.resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %s", what, r.resp.StatusCode, r.body)
	}
	if cl := r.resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(r.body)) || len(r.resp.TransferEncoding) != 0 {
		t.Fatalf("%s: Content-Length %q, transfer encoding %v for a %d-byte body", what, cl, r.resp.TransferEncoding, len(r.body))
	}
	if err := json.Unmarshal(r.body, v); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(v); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.body, want.Bytes()) {
		t.Fatalf("%s: served\n%s\nencoding/json\n%s", what, r.body, want.Bytes())
	}
}

// Subscribe, tick, then long-poll /updates on a real server: every
// standing-query body is encoding/json's encoding of the wire struct it
// decodes into, trailing newline included.
func TestStandingBodiesMatchEncodingJSON(t *testing.T) {
	ts := testServer(t)
	var ids []string
	for _, body := range []string{
		`{"model":"walk","beta":15,"horizon":100,"re":0.2}`,
		`{"model":"walk","beta":12,"horizon":100,"re":0.2}`,
		`{"stream":"<w&k>","model":"walk","beta":9,"horizon":100,"budget":20000}`,
		`{"model":"walk","beta":1000,"horizon":10,"budget":2000}`, // zero hits: relErr -1
	} {
		resp, raw := postJSON(t, ts, "/subscribe", body)
		var sub subscribeResponse
		reencodes(t, "subscribe "+body, rawResponse{resp, raw}, &sub)
		ids = append(ids, sub.ID)
	}
	for _, name := range []string{"walk", "walk", "<w&k>"} {
		resp, raw := postJSON(t, ts, "/tick", fmt.Sprintf(`{"stream":%q}`, name))
		var tk tickResponse
		reencodes(t, "tick "+name, rawResponse{resp, raw}, &tk)
		if len(tk.Refreshes) == 0 {
			t.Fatalf("tick %s refreshed nothing: %s", name, raw)
		}
	}
	for i, id := range ids {
		var ans answerJSON
		reencodes(t, "updates "+id, getRaw(t, fmt.Sprintf("%s/updates?id=%s&since=0&timeoutSec=5", ts.URL, id)), &ans)
		if ans.Tick == 0 {
			t.Fatalf("updates %s: answer at tick 0 after the ticks", id)
		}
		if i == 3 && ans.RelErr != -1 {
			t.Fatalf("zero-hit subscription's answer %+v, want relErr -1", ans)
		}
	}
}

// A zero-hit one-shot answer has an infinite relative error. It used to
// ship as an empty 200 (the status went out before encoding failed); it
// now renders -1, the standing answers' "no estimate" value, on /query
// and /batch alike.
func TestZeroHitQueryAnswersMinusOne(t *testing.T) {
	ts := testServer(t)
	resp, raw := postJSON(t, ts, "/query", `{"model":"walk","beta":1000,"horizon":10,"budget":2000}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var q struct {
		Hits   int64    `json:"hits"`
		StdErr *float64 `json:"stderr"`
		RelErr *float64 `json:"relErr"`
	}
	if err := json.Unmarshal(raw, &q); err != nil {
		t.Fatalf("body %q: %v", raw, err)
	}
	if q.Hits != 0 || q.RelErr == nil || *q.RelErr != -1 || q.StdErr == nil || *q.StdErr < 0 {
		t.Fatalf("zero-hit query body %s, want hits 0, relErr -1 and a finite stderr", raw)
	}

	resp, raw = postJSON(t, ts, "/batch", `{"model":"walk","betas":[1000,2000],"horizon":10,"budget":2000}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, raw)
	}
	var b struct {
		Answers []struct {
			RelErr float64 `json:"relErr"`
		} `json:"answers"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatalf("batch body %q: %v", raw, err)
	}
	if len(b.Answers) != 2 || b.Answers[0].RelErr != -1 || b.Answers[1].RelErr != -1 {
		t.Fatalf("zero-hit batch body %s, want two answers with relErr -1", raw)
	}
}

// A value that does not encode answers 500 with the JSON error under its
// Content-Length, on the reflective path and the rendered one alike; it
// never commits a 200 first.
func TestUnencodableValueIs500(t *testing.T) {
	check := func(what string, rec *httptest.ResponseRecorder) {
		t.Helper()
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("%s: status %d, want 500", what, rec.Code)
		}
		var body map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body["error"] != "json: unsupported value: +Inf" {
			t.Fatalf("%s: body %q (%v), want the encoding error", what, rec.Body.Bytes(), err)
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
			t.Fatalf("%s: Content-Length %q for a %d-byte body", what, cl, rec.Body.Len())
		}
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, struct{ P float64 }{math.Inf(1)})
	check("writeJSON", rec)

	rec = httptest.NewRecorder()
	a := answerJSON{P: math.Inf(1)}
	writeRendered(rec, nil, func(b []byte) ([]byte, error) { return appendAnswer(b, &a) })
	check("writeRendered", rec)
}
