package obsv

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"time"
)

// promEscaper escapes a label value per the Prometheus text exposition
// format (backslash, double quote, newline).
var promEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// promLabels renders a label set as {k="v",...}, or "" when empty. Every
// line WritePrometheus emits gets its labels from here: promEscaper
// already produces the exposition-format escaping, and a %q on top would
// escape the backslashes it inserts a second time.
func promLabels(labels ...Label) string {
	if len(labels) == 0 {
		return ""
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = l.Key + `="` + promEscaper.Replace(l.Value) + `"`
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// writeSamples renders name-sorted samples as one family per name: a
// "# TYPE" line, then the family's series.
func writeSamples(w io.Writer, prefix, suffix, kind string, samples []Sample) {
	for i, s := range samples {
		if i == 0 || s.Name != samples[i-1].Name {
			fmt.Fprintf(w, "# TYPE %s%s%s %s\n", prefix, s.Name, suffix, kind)
		}
		fmt.Fprintf(w, "%s%s%s%s %d\n", prefix, s.Name, suffix, promLabels(s.Labels...), s.Value)
	}
}

// WritePrometheus renders an export — per-op request/error counters and
// latency summaries, and every counter and gauge series — in the
// Prometheus text exposition format. prefix namespaces every metric
// ("mws" → mws_requests_total).
func WritePrometheus(w io.Writer, prefix string, e Export) {
	prefix += "_"
	counters := slices.Clone(e.Counters)
	for _, o := range e.Ops {
		op := []Label{L("op", o.Op)}
		counters = append(counters,
			Sample{Name: "requests", Labels: op, Value: int64(o.Requests)},
			Sample{Name: "errors", Labels: op, Value: int64(o.Errors)})
	}
	sortSamples(counters)
	writeSamples(w, prefix, "_total", "counter", counters)
	writeSamples(w, prefix, "", "gauge", e.Gauges)

	if len(e.Ops) > 0 {
		fmt.Fprintf(w, "# TYPE %srequest_latency_seconds summary\n", prefix)
	}
	for _, o := range e.Ops {
		op, lat := L("op", o.Op), o.Latency
		quantile := func(q string, d time.Duration) {
			fmt.Fprintf(w, "%srequest_latency_seconds%s %g\n", prefix, promLabels(op, L("quantile", q)), d.Seconds())
		}
		quantile("0.5", lat.P50)
		quantile("0.9", lat.P90)
		quantile("0.99", lat.P99)
		fmt.Fprintf(w, "%srequest_latency_seconds_sum%s %g\n", prefix, promLabels(op), lat.Total.Seconds())
		fmt.Fprintf(w, "%srequest_latency_seconds_count%s %d\n", prefix, promLabels(op), lat.Count)
	}
}
