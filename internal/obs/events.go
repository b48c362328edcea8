package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// EventSink consumes structured event records — one self-describing value
// per event — from instrumented subsystems. It is the streaming sibling of
// the Registry's aggregated metrics: where a counter collapses a campaign
// into totals, a sink preserves each record (the SFI trial ledger is the
// canonical producer; see internal/sfi.TrialRecord).
//
// A sink (NewJSONLSink) marshals each record to one line of JSON. Like
// the rest of the package, a nil *EventSink is a valid no-op, so
// producers can thread one through unconditionally.
//
// Emit serializes under an internal mutex and is safe for concurrent use,
// but producers that need a deterministic stream (the trial ledger's
// byte-identical-given-seed guarantee) must order their Emit calls
// themselves.
type EventSink struct {
	mu  sync.Mutex
	enc *json.Encoder
	err error
}

// NewJSONLSink returns a sink that writes each emitted record as one line
// of JSON to w. The first marshal or write error is retained (see Err) and
// later Emits become no-ops.
func NewJSONLSink(w io.Writer) *EventSink {
	return &EventSink{enc: json.NewEncoder(w)}
}

// Emit records one event, marshaling the value immediately. A nil sink,
// or a sink whose writer has already failed, drops the event.
func (s *EventSink) Emit(v any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	if err := s.enc.Encode(v); err != nil {
		s.err = err
	}
}

// Err returns the first marshal or write error the sink hit, or nil.
func (s *EventSink) Err() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}
