package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Progress is a rate-limited progress reporter for long-running
// campaigns (Monte-Carlo injection sweeps, full-suite experiment runs).
// Step may be called from many workers; at most one line is emitted per
// Interval, plus a final line from Finish. A nil *Progress is a no-op,
// so callers can thread it through unconditionally.
type Progress struct {
	mu    sync.Mutex
	w     io.Writer
	label string
	total int64
	done  int64
	start time.Time
	last  time.Time
	every time.Duration
	note  func() string
}

// DefaultProgressInterval is the emission rate limit used when
// NewProgress is given a non-positive interval.
const DefaultProgressInterval = 500 * time.Millisecond

// NewProgress returns a reporter writing to w, labelled label, for an
// expected total number of steps (0 when unknown). every bounds the
// output rate; <= 0 selects DefaultProgressInterval.
func NewProgress(w io.Writer, label string, total int, every time.Duration) *Progress {
	if every <= 0 {
		every = DefaultProgressInterval
	}
	now := time.Now()
	return &Progress{w: w, label: label, total: int64(total), start: now, last: now, every: every}
}

// Step records n completed units and emits a progress line if the rate
// limit allows.
func (p *Progress) Step(n int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done += int64(n)
	now := time.Now()
	if now.Sub(p.last) < p.every {
		return
	}
	p.last = now
	p.emit(now)
}

// SetNote attaches a callback whose result is appended to every emitted
// progress line (e.g. the worst-region confidence-interval half-width of
// a running campaign). The callback runs under the rate limit — once per
// emitted line, not per Step — and outside any caller lock it needs; an
// empty result adds nothing. A nil f clears the note; a nil *Progress
// no-ops.
func (p *Progress) SetNote(f func() string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.note = f
}

// Finish emits the final progress line (always, regardless of the rate
// limit) so campaigns end with an accurate count.
func (p *Progress) Finish() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.emit(time.Now())
}

// emit writes one progress line; the caller holds p.mu.
func (p *Progress) emit(now time.Time) {
	elapsed := now.Sub(p.start).Seconds()
	rate := 0.0
	if elapsed > 0 {
		rate = float64(p.done) / elapsed
	}
	note := ""
	if p.note != nil {
		if s := p.note(); s != "" {
			note = " " + s
		}
	}
	if p.total > 0 {
		fmt.Fprintf(p.w, "%s: %d/%d (%.1f%%) %.0f/s%s\n",
			p.label, p.done, p.total, 100*float64(p.done)/float64(p.total), rate, note)
	} else {
		fmt.Fprintf(p.w, "%s: %d %.0f/s%s\n", p.label, p.done, rate, note)
	}
}
