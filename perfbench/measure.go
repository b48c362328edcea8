package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"encore/internal/obs"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// durationsMS converts durations to milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// resetPeakRSS resets the process's VmHWM to its current RSS (Linux
// clear_refs value 5), so the next peakRSSMB reads the peak since now.
func resetPeakRSS() error {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	if _, err := f.WriteString("5"); err != nil {
		f.Close()
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return f.Close()
}

// hostRecord describes the machine and run shape behind one result.
type hostRecord struct {
	Workload     string `json:"workload"`
	Seed         uint64 `json:"workload_seed"`
	Trace        bool   `json:"trace"`
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	TrialWorkers int    `json:"trial_workers"`
	Tenants      int    `json:"tenants"`
}

func newHostRecord(workload string, seed uint64, trace bool) hostRecord {
	return hostRecord{
		Workload: workload, Seed: seed, Trace: trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), TrialWorkers: 1, Tenants: tenants(),
	}
}

// tenants is the served workload's client count: one per CPU, at least
// two so that two campaigns always contend.
func tenants() int { return max(2, runtime.NumCPU()) }

// ledgerDigest is an io.Writer that keeps only a SHA-256 and a byte count
// of a JSONL ledger, so a run holds no ledger bytes in memory. onWrite,
// when set, is called after every write (one per ledger record).
type ledgerDigest struct {
	h       hash.Hash
	n       int64
	onWrite func()
}

func newLedgerDigest() *ledgerDigest { return &ledgerDigest{h: sha256.New()} }

func (l *ledgerDigest) Write(p []byte) (int, error) {
	l.h.Write(p)
	l.n += int64(len(p))
	if l.onWrite != nil {
		l.onWrite()
	}
	return len(p), nil
}

func (l *ledgerDigest) sum() string { return hex.EncodeToString(l.h.Sum(nil)) }

// span is one timed call into a layer's public function, recorded by the
// benchmark around the call. Spans of one op share its id; Parent is the
// enclosing span's index, or -1.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced runs pass one around.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its index.
func (t *tracer) add(name string, op, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

// reserve records a span whose end is not known yet; finish sets it.
func (t *tracer) reserve(name string, op, parent int, start time.Time) int {
	return t.add(name, op, parent, start, start)
}

func (t *tracer) finish(id int, end time.Time) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].End = end.Sub(t.t0).Nanoseconds()
	t.mu.Unlock()
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the durations of its direct children. Children of one
// span never overlap (every op is one sequential client).
func (t *tracer) selfTimes() map[string]time.Duration {
	self := map[string]time.Duration{}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		d := time.Duration(s.End - s.Start)
		self[s.Name] += d
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Name] -= d
		}
	}
	return self
}

// write dumps the spans as JSONL.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// counters sums the counters and histograms of per-op registries.
type counters struct {
	c     map[string]int64
	hsum  map[string]int64
	hcnt  map[string]int64
	spans map[string]obs.SpanSnap
}

func newCounters() *counters {
	return &counters{c: map[string]int64{}, hsum: map[string]int64{}, hcnt: map[string]int64{}, spans: map[string]obs.SpanSnap{}}
}

// fold adds a registry's counters and histogram totals.
func (c *counters) fold(reg *obs.Registry) {
	s := reg.Snapshot()
	for _, k := range s.Counters {
		c.c[k.Name] += k.Value
	}
	for _, h := range s.Histograms {
		c.hsum[h.Name] += h.Sum
		c.hcnt[h.Name] += h.Count
	}
	for _, sp := range s.Spans {
		acc := c.spans[sp.Name]
		acc.Count += sp.Count
		acc.TotalMS += sp.TotalMS
		c.spans[sp.Name] = acc
	}
}

// ratio returns num/den, or 0 for an empty denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
