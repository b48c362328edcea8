package obs

import (
	"fmt"
	"io"
	"strings"
)

// promName renders a metric name in Prometheus form: the shared
// "encore_" namespace prefix plus the registry name with every character
// outside [a-zA-Z0-9_] (the dots and slashes of the internal dotted
// names) mapped to '_'.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len("encore_") + len(name))
	b.WriteString("encore_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promLabel escapes a label value per the text exposition format:
// backslash, double quote, and newline.
func promLabel(v string) string {
	var b strings.Builder
	b.Grow(len(v))
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4): counters and gauges as single samples,
// histograms as cumulative _bucket series over the registry's log2
// buckets (each non-empty bucket contributes its inclusive upper bound
// as the le= edge) closed by +Inf plus _sum/_count, and span aggregates
// as two labeled families (encore_span_count, encore_span_total_ms with
// a span= path label). Metric names are namespaced under encore_ with
// non-alphanumeric characters mapped to '_'; the output is deterministic
// because the snapshot's sections are name-sorted. This is the payload
// behind encore-serve's /metrics?format=prom and the commands' -prom
// flag; scripts/promlint.go checks the format in CI.
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	for _, c := range s.Counters {
		n := promName(c.Name)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", n, n, c.Value); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		n := promName(g.Name)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", n, n, g.Value); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		n := promName(h.Name)
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", n); err != nil {
			return err
		}
		cum := int64(0)
		for _, b := range h.Buckets {
			cum += b.Count
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", n, b.Hi, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
			n, h.Count, n, h.Sum, n, h.Count); err != nil {
			return err
		}
	}
	if len(s.Spans) > 0 {
		if _, err := fmt.Fprintf(w, "# TYPE encore_span_count counter\n"); err != nil {
			return err
		}
		for _, sp := range s.Spans {
			if _, err := fmt.Fprintf(w, "encore_span_count{span=\"%s\"} %d\n", promLabel(sp.Name), sp.Count); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE encore_span_total_ms counter\n"); err != nil {
			return err
		}
		for _, sp := range s.Spans {
			if _, err := fmt.Fprintf(w, "encore_span_total_ms{span=\"%s\"} %g\n", promLabel(sp.Name), sp.TotalMS); err != nil {
				return err
			}
		}
	}
	return nil
}

// WritePrometheusFileTo implements the commands' shared -prom flag: it
// snapshots r and writes the Prometheus text exposition through
// WriteOutput.
func WritePrometheusFileTo(path string, r *Registry, stdout io.Writer) error {
	return WriteOutput(path, stdout, func(w io.Writer) error { return r.Snapshot().WritePrometheus(w) })
}
