package obs

import (
	"time"
)

// Span is one live timed section. Spans form a hierarchy through Child;
// the full path ("compile/regions/analyze") is the aggregation key, so
// a snapshot reports one row per path with call count and total/min/max
// durations rather than one row per instance. Spans are cheap enough
// for per-region compiler work but are not meant for per-instruction
// use — the interpreter's hot loop stays span-free by design.
//
// A nil *Span is a valid no-op (Child returns nil, End does nothing),
// which is what a nil Registry hands out.
type Span struct {
	reg   *Registry
	path  string
	start time.Time
	ended bool
}

// spanStat is the aggregate for one span path.
type spanStat struct {
	count    int64
	total    time.Duration
	min, max time.Duration
}

// Span starts a root span with the given path name.
func (r *Registry) Span(name string) *Span {
	if r == nil {
		return nil
	}
	return &Span{reg: r, path: name, start: time.Now()}
}

// Child starts a nested span whose path extends the receiver's with
// "/name".
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return &Span{reg: s.reg, path: s.path + "/" + name, start: time.Now()}
}

// End stops the span and folds its duration into the registry's
// aggregate for the span's path. End is idempotent: only the first call
// records.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.reg.recordSpan(s.path, s.start, time.Since(s.start))
}

func (r *Registry) recordSpan(path string, start time.Time, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.captureSpans {
		r.spanEvents = append(r.spanEvents, SpanEvent{Path: path, Start: start, Dur: d})
	}
	st := r.spans[path]
	if st == nil {
		st = &spanStat{min: d, max: d}
		r.spans[path] = st
	}
	st.count++
	st.total += d
	if d < st.min {
		st.min = d
	}
	if d > st.max {
		st.max = d
	}
}
