package main

import (
	"encoding/json"
	"log"
	"math"
	"net/http"
	"reflect"
	"strconv"
	"sync"

	"durability/internal/stream"
	"durability/internal/telemetry"
)

// Wire rendering. The standing-query routes (POST /tick, POST /subscribe,
// GET /updates) render their bodies with the appenders below instead of
// encoding/json's reflection: a tick body carries one answer per
// subscription, and reflecting over hundreds of them costs more than the
// write. The appenders produce exactly the bytes encoding/json produces
// for answerJSON, refreshJSON, tickResponse and subscribeResponse, which
// stay the documented wire form and the tests' oracle (render_test.go).

// Encode-timing routes: the fixed label values of durserve_encode_seconds.
const (
	routeTick      = "tick"
	routeSubscribe = "subscribe"
	routeUpdates   = "updates"
)

var encodeRoutes = []string{routeTick, routeSubscribe, routeUpdates}

// bodyPool recycles rendered response bodies across requests.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// writeRendered renders one standing-query body into a pooled buffer,
// writes it with its Content-Length, and books render plus write into
// seconds. A render failure answers 500 with the JSON error instead.
func writeRendered(w http.ResponseWriter, seconds *telemetry.Histogram, render func([]byte) ([]byte, error)) {
	began := telemetry.Now()
	buf := bodyPool.Get().(*[]byte)
	b, err := render((*buf)[:0])
	if err != nil {
		log.Printf("durserve: rendering response: %v", err)
		httpError(w, http.StatusInternalServerError, err)
	} else {
		writeBody(w, http.StatusOK, append(b, '\n'))
	}
	*buf = b[:0]
	bodyPool.Put(buf)
	seconds.ObserveDuration(telemetry.Since(began))
}

// appendFloat appends f exactly as encoding/json encodes a float64: the
// shortest 'f' form, or 'e' form with a single-digit negative exponent
// unpadded (1e-7, not 1e-07) when |f| < 1e-6 or |f| >= 1e21. ±Inf and
// NaN are errors, as they are for encoding/json.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// appendString appends s through encoding/json's own string encoding
// (HTML escaping, U+FFFD for invalid UTF-8). Strings are a handful per
// body, so they are not worth a second implementation.
func appendString(b []byte, s string) []byte {
	q, _ := json.Marshal(s) // a string always encodes
	return append(b, q...)
}

// The keys of answerJSON's fields, in declaration order.
var (
	answerFloatKeys = [...]string{`,"p":`, `,"stderr":`, `,"relErr":`, `,"ciLo":`, `,"ciHi":`}
	answerIntKeys   = [...]string{`,"poolPaths":`, `,"poolSteps":`, `,"freshRoots":`, `,"freshSteps":`,
		`,"searchSteps":`, `,"survivedRoots":`, `,"droppedRoots":`}
)

// appendAnswer appends the encoding of a.
func appendAnswer(b []byte, a *answerJSON) ([]byte, error) {
	b = append(b, `{"tick":`...)
	b = strconv.AppendInt(b, a.Tick, 10)
	var err error
	for i, v := range [...]float64{a.P, a.StdErr, a.RelErr, a.CILo, a.CIHi} {
		b = append(b, answerFloatKeys[i]...)
		if b, err = appendFloat(b, v); err != nil {
			return b, err
		}
	}
	if a.Satisfied {
		b = append(b, `,"satisfied":true`...)
	}
	for i, v := range [...]int64{a.PoolPaths, a.PoolSteps, a.FreshRoots, a.FreshSteps,
		a.SearchSteps, a.SurvivedRoots, a.DroppedRoots} {
		b = append(b, answerIntKeys[i]...)
		b = strconv.AppendInt(b, v, 10)
	}
	if a.Replanned {
		b = append(b, `,"replanned":true`...)
	}
	if a.PlanCached {
		b = append(b, `,"planCached":true`...)
	}
	if a.Capped {
		b = append(b, `,"capped":true`...)
	}
	return append(b, '}'), nil
}

// appendTick appends the tickResponse encoding of one tick's refresh
// outcomes. Like a tickResponse built from no refreshes, an empty list
// renders as null.
func appendTick(b []byte, streamName string, tick int64, refreshes []stream.Refresh) ([]byte, error) {
	b = append(b, `{"stream":`...)
	b = appendString(b, streamName)
	b = append(b, `,"tick":`...)
	b = strconv.AppendInt(b, tick, 10)
	if len(refreshes) == 0 {
		return append(b, `,"refreshes":null}`...), nil
	}
	b = append(b, `,"refreshes":[`...)
	var err error
	for i := range refreshes {
		r := &refreshes[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"subId":`...)
		b = strconv.AppendUint(b, r.SubID, 10)
		b = append(b, `,"answer":`...)
		a := toAnswerJSON(r.Answer)
		if b, err = appendAnswer(b, &a); err != nil {
			return b, err
		}
		if r.Err != nil {
			if msg := r.Err.Error(); msg != "" {
				b = append(b, `,"error":`...)
				b = appendString(b, msg)
			}
		}
		b = append(b, '}')
	}
	return append(b, "]}"...), nil
}

// appendSubscribe appends the encoding of s.
func appendSubscribe(b []byte, s *subscribeResponse) ([]byte, error) {
	b = append(b, `{"id":`...)
	b = appendString(b, s.ID)
	b = append(b, `,"subId":`...)
	b = strconv.AppendUint(b, s.SubID, 10)
	b = append(b, `,"stream":`...)
	b = appendString(b, s.Stream)
	b = append(b, `,"answer":`...)
	b, err := appendAnswer(b, &s.Answer)
	if err != nil {
		return b, err
	}
	return append(b, '}'), nil
}
