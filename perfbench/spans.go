package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer's public function, recorded by the
// benchmark around the call. Spans of one operation share Op; Parent is
// the span that caused this one (0 for a root). Background work with no
// client operation behind it — checkpoints, the follower — has Op -1.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

func (s span) dur() int64 { return s.End - s.Start }

// spanLog keeps every span of a traced run in memory; it is written out
// only when the run ends, so recording costs two clock reads and an
// append under a lock.
type spanLog struct {
	origin time.Time
	nextID atomic.Int64

	// fgSpan is the foreground span open on the driving goroutine.
	// Journal appends carry no context, so they attach to it; only one
	// foreground operation is in flight when journals are attached (the
	// tick workload drives one connection).
	fgSpan atomic.Pointer[spanRef]

	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

func (l *spanLog) now() int64 { return int64(time.Since(l.origin)) }

func (l *spanLog) record(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// add records a finished span.
func (l *spanLog) add(name string, parent int64, op int, start, end int64) {
	l.record(span{ID: l.reserve(), Parent: parent, Op: op, Name: name, Start: start, End: end})
}

// reserve allocates a span ID before the span ends, so children can name
// it as their parent while it is still open; finish records it.
func (l *spanLog) reserve() int64 { return l.nextID.Add(1) }

func (l *spanLog) finish(id int64, name string, parent int64, op int, start int64) {
	l.record(span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: l.now()})
}

func (l *spanLog) snapshot() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// write dumps the spans as JSON, ordered by start time.
func (l *spanLog) write(path string) error {
	spans := l.snapshot()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	b, err := json.Marshal(struct {
		Origin time.Time `json:"origin"`
		Spans  []span    `json:"spans"`
	}{l.origin, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

type spanCtxKey struct{}

type spanRef struct {
	id int64
	op int
}

// withSpan marks ctx as running under span id of operation op; layer
// calls that take a context (Executor.RunRoots) find their parent here.
func withSpan(ctx context.Context, id int64, op int) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, spanRef{id, op})
}

// spanFrom reports the span ctx runs under, or (0, -1) outside any.
func spanFrom(ctx context.Context) (int64, int) {
	if r, ok := ctx.Value(spanCtxKey{}).(spanRef); ok {
		return r.id, r.op
	}
	return 0, -1
}

type interval struct{ lo, hi int64 }

// unionLen is the total length covered by the intervals.
func unionLen(iv []interval) int64 {
	if len(iv) == 0 {
		return 0
	}
	s := append([]interval(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
	var total int64
	cur := s[0]
	for _, x := range s[1:] {
		if x.lo > cur.hi {
			total += cur.hi - cur.lo
			cur = x
			continue
		}
		cur.hi = max(cur.hi, x.hi)
	}
	return total + cur.hi - cur.lo
}

// selfTimes returns each span's self time: its duration minus the union
// of its children's intervals (clipped to its own), so children that ran
// concurrently are not subtracted twice.
func selfTimes(spans []span) map[int64]int64 {
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	kids := make(map[int64][]interval)
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if lo < hi {
			kids[p.ID] = append(kids[p.ID], interval{lo, hi})
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - unionLen(kids[s.ID])
	}
	return out
}
