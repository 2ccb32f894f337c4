package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// metricValue is one reported number: the median over the runs behind
// it, their spread, how many there were, and each run's own value in the
// order the runs were made.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	IQR     float64   `json:"iqr"`
	Samples int       `json:"samples"`
	Runs    []float64 `json:"runs,omitempty"`
}

// workloadResult is everything measured on one workload.
type workloadResult struct {
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Notes     []string               `json:"notes,omitempty"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer"`
	// How much slower than reference speed the host ran during the timed
	// phase of each untraced run (hostspeed.go): the gated timings are
	// reported at reference speed, and the clock read this much more.
	HostSlowdown []float64 `json:"host_slowdown"`
	// The last run's ten windows, so drift inside a run is visible.
	WindowRates  []float64 `json:"window_msgs_per_s"`
	WindowP50Ms  []float64 `json:"window_p50_ms"`
	WindowMeanMs []float64 `json:"window_mean_ms,omitempty"`
}

// result is the file a full run writes and -validate and -compare read.
type result struct {
	Schema    int                        `json:"schema"`
	Host      hostInfo                   `json:"host"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

const schemaVersion = 1

func readResult(path string) (*result, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func (r *result) write(path string) error {
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// summarise folds the values of several runs into one metricValue.
func summarise(spec metricSpec, values []float64) metricValue {
	mv := metricValue{Value: median(values), Unit: spec.Unit, IQR: iqr(values), Samples: len(values)}
	if len(values) > 1 {
		mv.Runs = values
	}
	return mv
}

// printMetrics lists metrics by name with unit, spread and sample count.
func printMetrics(w io.Writer, specs []metricSpec, got map[string]metricValue) {
	for _, s := range specs {
		v := got[s.Name]
		fmt.Fprintf(w, "  %-34s %14.4f %-6s iqr %.4g  n=%d\n", s.Name, v.Value, v.Unit, v.IQR, v.Samples)
	}
}

// mismatch says why a result file cannot stand beside this
// benchmark's numbers: another schema, pairing preset or run length than
// the ones cfg (the benchmark's fixed configuration) measures with.
func mismatch(r *result, cfg *config) []string {
	var bad []string
	if r.Schema != schemaVersion {
		bad = append(bad, fmt.Sprintf("schema %d, want %d", r.Schema, schemaVersion))
	}
	if r.Host.Preset != cfg.preset {
		bad = append(bad, fmt.Sprintf("measured on preset %q, the benchmark runs %q", r.Host.Preset, cfg.preset))
	}
	if r.Host.Seconds != cfg.seconds {
		bad = append(bad, fmt.Sprintf("measured for %v s, the benchmark runs %v s", r.Host.Seconds, cfg.seconds))
	}
	return bad
}

// validate checks a result file against the registry and the benchmark's
// configuration: no mismatch, exactly the declared workloads and metric
// names, the declared units, and at least one sample behind every number.
func validate(r *result, cfg *config) []string {
	bad := mismatch(r, cfg)
	for name := range r.Workloads {
		if _, ok := findWorkload(name); !ok {
			bad = append(bad, fmt.Sprintf("unknown workload %q", name))
		}
	}
	check := func(where string, specs []metricSpec, got map[string]metricValue) {
		want := make(map[string]metricSpec, len(specs))
		for _, s := range specs {
			want[s.Name] = s
			v, ok := got[s.Name]
			switch {
			case !ok:
				bad = append(bad, fmt.Sprintf("%s: missing %s", where, s.Name))
			case v.Unit != s.Unit:
				bad = append(bad, fmt.Sprintf("%s: %s has unit %q, want %q", where, s.Name, v.Unit, s.Unit))
			case v.Samples < 1:
				bad = append(bad, fmt.Sprintf("%s: %s has no samples", where, s.Name))
			}
		}
		for name := range got {
			if _, ok := want[name]; !ok {
				bad = append(bad, fmt.Sprintf("%s: undeclared metric %s", where, name))
			}
		}
	}
	for _, w := range workloads {
		wr := r.Workloads[w.Name]
		if wr == nil {
			bad = append(bad, fmt.Sprintf("missing workload %q", w.Name))
			continue
		}
		check(w.Name+" end_to_end", endToEnd, wr.EndToEnd)
		check(w.Name+" per_layer", perLayer, wr.PerLayer)
		if wr.Failed != 0 {
			bad = append(bad, fmt.Sprintf("%s: %d of %d operations failed", w.Name, wr.Failed, wr.Attempted))
		}
	}
	sort.Strings(bad)
	return bad
}

// minCompareSamples is how many runs a spread needs before it can
// resolve anything: below five the quartiles of
// statistics.quantiles(v, n=4) are the extremes themselves.
const minCompareSamples = 5

// compare prints, for every end-to-end metric on every workload, whether
// b is within a's bound: ok, regressed, or unresolved when either side's
// run-to-run spread is wider than the bound (or unknown). It returns the
// number of regressed rows.
func compare(w io.Writer, a, b *result) int {
	regressed := 0
	fmt.Fprintf(w, "%-11s %-22s %14s %14s %8s %8s  %s\n", "workload", "metric", "a", "b", "worse", "bound", "verdict")
	for _, wl := range workloads {
		ra, rb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if ra == nil || rb == nil {
			fmt.Fprintf(w, "%-11s missing from one file\n", wl.Name)
			regressed++
			continue
		}
		for _, m := range endToEnd {
			va, vb := ra.EndToEnd[m.Name], rb.EndToEnd[m.Name]
			worse := (vb.Value - va.Value) / va.Value
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case va.Samples < minCompareSamples || vb.Samples < minCompareSamples,
				va.IQR/va.Value > m.Bound, vb.IQR/vb.Value > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
				regressed++
			}
			fmt.Fprintf(w, "%-11s %-22s %14.4f %14.4f %+7.1f%% %7.0f%%  %s\n",
				wl.Name, m.Name, va.Value, vb.Value, 100*worse, 100*m.Bound, verdict)
		}
	}
	return regressed
}
