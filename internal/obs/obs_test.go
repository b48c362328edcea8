package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestConcurrentCounters hammers one shared and many per-goroutine
// counters from concurrent goroutines; run under -race by make check.
func TestConcurrentCounters(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			shared := r.Counter("shared")
			own := r.Histogram("dist")
			for i := 0; i < perWorker; i++ {
				shared.Inc()
				own.Observe(int64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != workers*perWorker {
		t.Fatalf("shared counter = %d, want %d", got, workers*perWorker)
	}
	h := r.Histogram("dist")
	if h.Count() != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*perWorker)
	}
	if h.Max() != perWorker-1 {
		t.Fatalf("histogram max = %d, want %d", h.Max(), perWorker-1)
	}
}

func TestCounterIdentity(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x") != r.Counter("x") {
		t.Fatal("same name must return the same counter")
	}
	if r.Histogram("x") != r.Histogram("x") {
		t.Fatal("same name must return the same histogram")
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("a").Add(3)
	r.Counter("a").Inc()
	r.Histogram("h").Observe(7)
	sp := r.Span("root")
	sp.Child("kid").End()
	sp.End()
	r.Add("b", 1)
	r.Reset()
	var p *Progress
	p.Step(1)
	p.Finish()
	if got := r.Snapshot(); len(got.Counters) != 0 || len(got.Spans) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", got)
	}
	if Or(nil) != Default() {
		t.Fatal("Or(nil) must resolve to Default()")
	}
	real := NewRegistry()
	if Or(real) != real {
		t.Fatal("Or(r) must return r")
	}
}

func TestSpanNesting(t *testing.T) {
	r := NewRegistry()
	root := r.Span("compile")
	a := root.Child("profile")
	time.Sleep(time.Millisecond)
	a.End()
	a.End() // idempotent: must not double-record
	b := root.Child("regions")
	bb := b.Child("analyze")
	bb.End()
	b.End()
	root.End()

	snap := r.Snapshot()
	want := []string{"compile", "compile/profile", "compile/regions", "compile/regions/analyze"}
	var got []string
	for _, s := range snap.Spans {
		got = append(got, s.Name)
		if s.Count != 1 {
			t.Errorf("span %s count = %d, want 1", s.Name, s.Count)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("span paths = %v, want %v", got, want)
	}
	// The root span encloses its children, so its duration dominates.
	byName := map[string]SpanSnap{}
	for _, s := range snap.Spans {
		byName[s.Name] = s
	}
	if byName["compile"].TotalMS < byName["compile/profile"].TotalMS {
		t.Fatalf("parent span (%.3f ms) shorter than child (%.3f ms)",
			byName["compile"].TotalMS, byName["compile/profile"].TotalMS)
	}
}

func TestSpanAggregation(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 5; i++ {
		r.Span("stage").End()
	}
	snap := r.Snapshot()
	if len(snap.Spans) != 1 || snap.Spans[0].Count != 5 {
		t.Fatalf("want one aggregated span row with count 5, got %+v", snap.Spans)
	}
}

// TestSnapshotDeterminism checks that a quiescent registry snapshots
// identically twice, in sorted order, and that JSON round-trips.
func TestSnapshotDeterminism(t *testing.T) {
	r := NewRegistry()
	r.Add("zeta", 3)
	r.Add("alpha", 1)
	r.Histogram("mid").Observe(5)
	r.Histogram("mid").Observe(100)
	r.Span("s2").End()
	r.Span("s1").End()

	s1, s2 := r.Snapshot(), r.Snapshot()
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("snapshots differ:\n%+v\n%+v", s1, s2)
	}
	if s1.Counters[0].Name != "alpha" || s1.Counters[1].Name != "zeta" {
		t.Fatalf("counters not sorted: %+v", s1.Counters)
	}
	if s1.Spans[0].Name != "s1" || s1.Spans[1].Name != "s2" {
		t.Fatalf("spans not sorted: %+v", s1.Spans)
	}

	var buf1, buf2 bytes.Buffer
	if err := s1.WriteJSON(&buf1); err != nil {
		t.Fatal(err)
	}
	if err := s2.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf1.String() != buf2.String() {
		t.Fatal("JSON encodings of equal snapshots differ")
	}
	var decoded Snapshot
	if err := json.Unmarshal(buf1.Bytes(), &decoded); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if len(decoded.Counters) != 2 || len(decoded.Histograms) != 1 || len(decoded.Spans) != 2 {
		t.Fatalf("round-tripped snapshot lost data: %+v", decoded)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h")
	h.Observe(0)  // bucket [0,0]
	h.Observe(1)  // bucket [1,1]
	h.Observe(2)  // bucket [2,3]
	h.Observe(3)  // bucket [2,3]
	h.Observe(-4) // clamps to 0
	snap := r.Snapshot()
	hs := snap.Histograms[0]
	want := []BucketSnap{{0, 0, 2}, {1, 1, 1}, {2, 3, 2}}
	if !reflect.DeepEqual(hs.Buckets, want) {
		t.Fatalf("buckets = %+v, want %+v", hs.Buckets, want)
	}
	if hs.Sum != 6 || hs.Count != 5 || hs.Max != 3 {
		t.Fatalf("sum/count/max = %d/%d/%d, want 6/5/3", hs.Sum, hs.Count, hs.Max)
	}
}

// TestProgressRateLimit checks that a burst of steps inside one
// interval emits at most one line plus the Finish line.
func TestProgressRateLimit(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf, "trials", 1000, time.Hour)
	for i := 0; i < 1000; i++ {
		p.Step(1)
	}
	if buf.Len() != 0 {
		t.Fatalf("rate-limited progress emitted %q before Finish", buf.String())
	}
	p.Finish()
	if n := bytes.Count(buf.Bytes(), []byte("\n")); n != 1 {
		t.Fatalf("Finish must emit exactly one line, got %d", n)
	}
	if !bytes.Contains(buf.Bytes(), []byte("trials: 1000/1000 (100.0%)")) {
		t.Fatalf("unexpected final line: %q", buf.String())
	}
}

func TestProgressUnknownTotal(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf, "work", 0, time.Nanosecond)
	time.Sleep(time.Millisecond)
	p.Step(3)
	if !bytes.Contains(buf.Bytes(), []byte("work: 3")) {
		t.Fatalf("unexpected line: %q", buf.String())
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth")
	g.Add(5)
	g.Add(-2)
	if g.Value() != 3 {
		t.Fatalf("gauge value = %d, want 3", g.Value())
	}
	g.Set(10)
	if r.Gauge("depth") != g {
		t.Fatal("Gauge must return the registered handle")
	}
	snap := r.Snapshot()
	if len(snap.Gauges) != 1 || snap.Gauges[0].Name != "depth" || snap.Gauges[0].Value != 10 {
		t.Fatalf("gauge snapshot = %+v, want depth=10", snap.Gauges)
	}
	r.Reset()
	if len(r.Snapshot().Gauges) != 0 {
		t.Fatal("Reset must drop gauges")
	}

	var nilG *Gauge
	nilG.Set(1)
	nilG.Add(1)
	if nilG.Value() != 0 {
		t.Fatal("nil gauge must be a no-op")
	}
	var nilR *Registry
	if nilR.Gauge("x") != nil {
		t.Fatal("nil registry must return nil gauge")
	}
}
