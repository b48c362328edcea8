package obs

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// SpanEvent is one completed span instance retained for trace export:
// where the snapshot aggregates all instances of a path into one row,
// the event log keeps each (path, start, duration) triple so the span
// hierarchy can be inspected on a timeline.
type SpanEvent struct {
	Path  string
	Start time.Time
	Dur   time.Duration
}

// CaptureSpans toggles span-event capture: while enabled, every Span.End
// additionally appends a SpanEvent to the registry's event log (the
// aggregated snapshot rows are unaffected). Capture is off by default —
// a long campaign can End hundreds of thousands of spans — and is meant
// to be switched on at process start by a command-level flag
// (-chrometrace). A nil registry no-ops.
func (r *Registry) CaptureSpans(on bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.captureSpans = on
}

// SpanEvents returns a copy of the captured span events in End order.
func (r *Registry) SpanEvents() []SpanEvent {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SpanEvent, len(r.spanEvents))
	copy(out, r.spanEvents)
	return out
}

// chromeEvent is one Chrome trace-event ("X" complete-event phase) as
// chrome://tracing and Perfetto consume them: timestamps and durations
// are microseconds relative to the trace origin.
type chromeEvent struct {
	Name string `json:"name"`
	Cat  string `json:"cat"`
	Ph   string `json:"ph"`
	TS   int64  `json:"ts"`
	Dur  int64  `json:"dur,omitempty"`
	PID  int    `json:"pid"`
	TID  int    `json:"tid"`
	// Args carries a counter event's ("C" phase) series values; complete
	// events ("X") leave it empty.
	Args map[string]int64 `json:"args,omitempty"`
}

// WriteChromeTrace renders the registry's captured span events as a
// Chrome trace-event JSON array ("[{name, ph:"X", ts, dur, pid, tid},
// ...]") loadable in chrome://tracing or Perfetto. Overlapping spans —
// concurrent campaign workers, nested pipeline stages — are assigned to
// separate tid lanes greedily by start time, so the visual nesting
// matches the real span hierarchy. The event's cat is the first path
// segment ("compile", "sfi", "bench"), so categories can be filtered in
// the viewer. The registry's counters and gauges are appended as "C"
// counter-phase events at the trace's end timestamp, so the final metric
// values show up as counter tracks alongside the span timeline instead
// of being dropped from this sink.
func WriteChromeTrace(w io.Writer, r *Registry) error {
	events := r.SpanEvents()
	sort.SliceStable(events, func(i, j int) bool {
		if !events[i].Start.Equal(events[j].Start) {
			return events[i].Start.Before(events[j].Start)
		}
		// Equal starts: longer span first so the parent opens its lane
		// before the children it encloses.
		return events[i].Dur > events[j].Dur
	})
	var origin time.Time
	if len(events) > 0 {
		origin = events[0].Start
	}
	// Greedy lane assignment: a span goes to the first lane whose last
	// span already ended, or — when it nests inside the lane's open span
	// — to that same lane (chrome://tracing renders same-tid containment
	// as a stack).
	var laneEnd []time.Time
	out := make([]chromeEvent, 0, len(events))
	for _, e := range events {
		lane := -1
		for i := range laneEnd {
			if !e.Start.Before(laneEnd[i]) || !e.Start.Add(e.Dur).After(laneEnd[i]) {
				lane = i
				break
			}
		}
		if lane < 0 {
			laneEnd = append(laneEnd, time.Time{})
			lane = len(laneEnd) - 1
		}
		if end := e.Start.Add(e.Dur); end.After(laneEnd[lane]) {
			laneEnd[lane] = end
		}
		cat := e.Path
		for i := 0; i < len(cat); i++ {
			if cat[i] == '/' {
				cat = cat[:i]
				break
			}
		}
		out = append(out, chromeEvent{
			Name: e.Path, Cat: cat, Ph: "X",
			TS:  e.Start.Sub(origin).Microseconds(),
			Dur: e.Dur.Microseconds(),
			PID: 1, TID: lane + 1,
		})
	}
	// Counter tracks: every counter and gauge value as one "C" event at
	// the end of the timeline (the snapshot is a point-in-time view, so
	// one sample per series is what the registry can honestly report).
	endTS := int64(0)
	for _, e := range events {
		if ts := e.Start.Sub(origin).Microseconds() + e.Dur.Microseconds(); ts > endTS {
			endTS = ts
		}
	}
	snap := r.Snapshot()
	for _, c := range snap.Counters {
		out = append(out, chromeEvent{
			Name: c.Name, Cat: "counter", Ph: "C", TS: endTS, PID: 1,
			Args: map[string]int64{"value": c.Value},
		})
	}
	for _, g := range snap.Gauges {
		out = append(out, chromeEvent{
			Name: g.Name, Cat: "gauge", Ph: "C", TS: endTS, PID: 1,
			Args: map[string]int64{"value": g.Value},
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// WriteChromeTraceFileTo implements the commands' shared -chrometrace
// flag: it writes the captured span events as Chrome trace JSON through
// WriteOutput.
func WriteChromeTraceFileTo(path string, r *Registry, stdout io.Writer) error {
	return WriteOutput(path, stdout, func(w io.Writer) error { return WriteChromeTrace(w, r) })
}
