package obs

import (
	"encoding/json"
	"io"
	"os"
	"time"
)

// Snapshot is a point-in-time, deterministic view of a registry: every
// section is sorted by name, so two snapshots of identical state render
// and marshal identically. It is the payload of the commands' -metrics
// flag.
type Snapshot struct {
	Counters   []CounterSnap `json:"counters"`
	Gauges     []GaugeSnap   `json:"gauges"`
	Histograms []HistSnap    `json:"histograms"`
	Spans      []SpanSnap    `json:"spans"`
}

// CounterSnap is one counter's snapshot row.
type CounterSnap struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeSnap is one gauge's snapshot row.
type GaugeSnap struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// BucketSnap is one non-empty histogram bucket: Count observations fell
// in the inclusive value range [Lo, Hi].
type BucketSnap struct {
	Lo    int64 `json:"lo"`
	Hi    int64 `json:"hi"`
	Count int64 `json:"count"`
}

// HistSnap is one histogram's snapshot row.
type HistSnap struct {
	Name    string       `json:"name"`
	Count   int64        `json:"count"`
	Sum     int64        `json:"sum"`
	Mean    float64      `json:"mean"`
	Max     int64        `json:"max"`
	Buckets []BucketSnap `json:"buckets,omitempty"`
}

// SpanSnap is the aggregate of every ended span sharing one path.
type SpanSnap struct {
	Name    string  `json:"name"`
	Count   int64   `json:"count"`
	TotalMS float64 `json:"total_ms"`
	MeanMS  float64 `json:"mean_ms"`
	MinMS   float64 `json:"min_ms"`
	MaxMS   float64 `json:"max_ms"`
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// bucketBounds returns the inclusive value range of log2 bucket i.
func bucketBounds(i int) (lo, hi int64) {
	if i == 0 {
		return 0, 0
	}
	lo = int64(1) << (i - 1)
	if i >= 63 {
		return lo, int64(^uint64(0) >> 1)
	}
	return lo, int64(1)<<i - 1
}

// Snapshot captures the registry's current state. Safe to call
// concurrently with metric updates; the result is internally consistent
// per metric (not across metrics) and deterministic for quiescent
// registries. A nil registry yields an empty snapshot.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		Counters:   []CounterSnap{},
		Gauges:     []GaugeSnap{},
		Histograms: []HistSnap{},
		Spans:      []SpanSnap{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range sortedKeys(r.counters) {
		s.Counters = append(s.Counters, CounterSnap{Name: name, Value: r.counters[name].Value()})
	}
	for _, name := range sortedKeys(r.gauges) {
		s.Gauges = append(s.Gauges, GaugeSnap{Name: name, Value: r.gauges[name].Value()})
	}
	for _, name := range sortedKeys(r.hists) {
		h := r.hists[name]
		hs := HistSnap{Name: name, Count: h.Count(), Sum: h.Sum(), Mean: h.Mean(), Max: h.Max()}
		for i := range h.buckets {
			if n := h.buckets[i].Load(); n > 0 {
				lo, hi := bucketBounds(i)
				hs.Buckets = append(hs.Buckets, BucketSnap{Lo: lo, Hi: hi, Count: n})
			}
		}
		s.Histograms = append(s.Histograms, hs)
	}
	for _, name := range sortedKeys(r.spans) {
		st := r.spans[name]
		ss := SpanSnap{
			Name: name, Count: st.count,
			TotalMS: ms(st.total), MinMS: ms(st.min), MaxMS: ms(st.max),
		}
		if st.count > 0 {
			ss.MeanMS = ms(st.total) / float64(st.count)
		}
		s.Spans = append(s.Spans, ss)
	}
	return s
}

// WriteJSON marshals the snapshot as indented JSON.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteOutput implements the commands' output-file flags (-metrics,
// -prom, -chrometrace, -stats): write renders to stdout when path is "-"
// and otherwise to a file created at path, which it closes. An empty path
// is a no-op. stdout is injectable so command tests can capture the "-"
// case without touching os.Stdout.
func WriteOutput(path string, stdout io.Writer, write func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	if path == "-" {
		return write(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteMetricsTo implements the commands' shared -metrics flag: it
// snapshots r and writes JSON through WriteOutput.
func WriteMetricsTo(path string, r *Registry, stdout io.Writer) error {
	return WriteOutput(path, stdout, func(w io.Writer) error { return r.Snapshot().WriteJSON(w) })
}
