package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	type rec struct {
		A int    `json:"a"`
		B string `json:"b"`
	}
	s.Emit(rec{A: 1, B: "x"})
	s.Emit(rec{A: 2, B: "y"})
	if s.Err() != nil {
		t.Fatalf("Err = %v", s.Err())
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), buf.String())
	}
	var got rec
	if err := json.Unmarshal([]byte(lines[1]), &got); err != nil {
		t.Fatalf("line 2 not JSON: %v", err)
	}
	if got.A != 2 || got.B != "y" {
		t.Fatalf("line 2 = %+v", got)
	}
}

// failWriter keeps the first write and fails every later one.
type failWriter struct {
	n   int
	buf bytes.Buffer
}

func (w *failWriter) Write(p []byte) (int, error) {
	w.n++
	if w.n > 1 {
		return 0, bytes.ErrTooLarge
	}
	return w.buf.Write(p)
}

func TestJSONLSinkRetainsFirstError(t *testing.T) {
	w := &failWriter{}
	s := NewJSONLSink(w)
	s.Emit(1)
	s.Emit(2)
	s.Emit(3)
	if s.Err() == nil {
		t.Fatal("expected retained write error")
	}
	if w.buf.String() != "1\n" {
		t.Fatalf("lines written = %q, want the first record only", w.buf.String())
	}
	if w.n != 2 {
		t.Fatalf("%d writes attempted, want 2 (post-error emits drop)", w.n)
	}
}

func TestNilSinkNoOps(t *testing.T) {
	var s *EventSink
	s.Emit(1) // must not panic
	if s.Err() != nil {
		t.Fatal("nil sink should be a silent no-op")
	}
}

func TestSinkConcurrentEmit(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				s.Emit(map[string]int{"w": i, "j": j})
			}
		}(i)
	}
	wg.Wait()
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 800 {
		t.Fatalf("got %d lines, want 800", len(lines))
	}
	for _, l := range lines {
		if !json.Valid([]byte(l)) {
			t.Fatalf("interleaved write produced invalid JSON line: %q", l)
		}
	}
}

func TestChromeTraceExport(t *testing.T) {
	r := NewRegistry()
	r.CaptureSpans(true)
	root := r.Span("compile")
	child := root.Child("regions")
	time.Sleep(time.Millisecond)
	child.End()
	root.End()
	ev := r.SpanEvents()
	if len(ev) != 2 {
		t.Fatalf("SpanEvents = %d, want 2", len(ev))
	}

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, r); err != nil {
		t.Fatal(err)
	}
	var out []struct {
		Name string `json:"name"`
		Cat  string `json:"cat"`
		Ph   string `json:"ph"`
		TS   int64  `json:"ts"`
		Dur  int64  `json:"dur"`
		TID  int    `json:"tid"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("not a JSON array: %v\n%s", err, buf.String())
	}
	if len(out) != 2 {
		t.Fatalf("got %d events, want 2", len(out))
	}
	// Sorted by start: the root opened first.
	if out[0].Name != "compile" || out[1].Name != "compile/regions" {
		t.Fatalf("unexpected order: %+v", out)
	}
	for _, e := range out {
		if e.Ph != "X" {
			t.Fatalf("phase = %q, want X", e.Ph)
		}
		if e.Cat != "compile" {
			t.Fatalf("cat = %q, want compile", e.Cat)
		}
	}
	// The nested child must share the parent's lane so the viewer stacks
	// them.
	if out[0].TID != out[1].TID {
		t.Fatalf("nested spans split across lanes: %+v", out)
	}
	if out[1].TS < out[0].TS || out[1].TS+out[1].Dur > out[0].TS+out[0].Dur {
		t.Fatalf("child not enclosed by parent: %+v", out)
	}
}

func TestChromeTraceDisjointLanes(t *testing.T) {
	r := NewRegistry()
	r.CaptureSpans(true)
	now := time.Now()
	// Two overlapping, non-nested spans must land on different lanes;
	// a third starting after both ended reuses lane 1.
	r.recordSpan("a", now, 10*time.Millisecond)
	r.recordSpan("b", now.Add(5*time.Millisecond), 10*time.Millisecond)
	r.recordSpan("c", now.Add(20*time.Millisecond), time.Millisecond)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, r); err != nil {
		t.Fatal(err)
	}
	var out []struct {
		Name string `json:"name"`
		TID  int    `json:"tid"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	byName := map[string]int{}
	for _, e := range out {
		byName[e.Name] = e.TID
	}
	if byName["a"] == byName["b"] {
		t.Fatalf("overlapping spans share a lane: %v", byName)
	}
	if byName["c"] != byName["a"] {
		t.Fatalf("freed lane not reused: %v", byName)
	}
}

func TestCaptureSpansOffByDefault(t *testing.T) {
	r := NewRegistry()
	sp := r.Span("x")
	sp.End()
	if n := len(r.SpanEvents()); n != 0 {
		t.Fatalf("capture off but %d events recorded", n)
	}
	var nilReg *Registry
	nilReg.CaptureSpans(true) // must not panic
	if nilReg.SpanEvents() != nil {
		t.Fatal("nil registry SpanEvents should be nil")
	}
}
