package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mwskit/internal/macauth"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// TestRegistryMatchesBenchmarkJSON keeps the driver's view of the
// benchmark and the harness's own registry from drifting apart.
func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
	if b.RunSeconds != int(defaultConfig().seconds) {
		t.Errorf("run_seconds = %d, the harness defaults to %v", b.RunSeconds, defaultConfig().seconds)
	}
	var ws, gated []workloadSpec
	for _, w := range b.Workloads {
		ws = append(ws, workloadSpec{w.Name, w.Why})
	}
	for _, w := range workloads {
		if !harnessOnly[w.Name] {
			gated = append(gated, w)
		}
	}
	if !reflect.DeepEqual(ws, gated) {
		t.Errorf("workloads differ:\n json %v\n code %v", ws, gated)
	}
	specs := func(ms []jsonMetric) (out []metricSpec) {
		for _, m := range ms {
			out = append(out, metricSpec{m.Name, m.Unit, m.Better, m.Bound})
		}
		return out
	}
	if got := specs(b.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", got, endToEnd)
	}
	if got := specs(b.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("per_layer differs:\n json %v\n code %v", got, perLayer)
	}
	for _, w := range workloads {
		if _, ok := impls[w.Name]; !ok {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
}

// TestIQRMatchesPython pins the spread to statistics.quantiles(v, n=4).
func TestIQRMatchesPython(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 8.25 - 2.75},
		{[]float64{3, 1, 2}, 3 - 1},
		{[]float64{10, 20, 30, 45}, 41.25 - 12.5},
	} {
		if got := iqr(c.v); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("iqr(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

// TestSlowdown pins the host slowdown: the mean kernel time over
// refKernel without the slowest tenth of the samples, and 1 when there is
// nothing to go by.
func TestSlowdown(t *testing.T) {
	var none *speedometer
	if got := none.slowdown(0, none.mark()); got != 1 {
		t.Errorf("nil speedometer: slowdown %v, want 1", got)
	}
	s := &speedometer{}
	for i := 0; i < 9; i++ {
		s.samples = append(s.samples, 2*refKernel)
	}
	s.samples = append(s.samples, 100*refKernel) // spent mostly off the processor
	if got := s.slowdown(0, s.mark()); got != 2 {
		t.Errorf("slowdown %v, want 2", got)
	}
	if got := s.slowdown(4, 4); got != 1 {
		t.Errorf("no samples: slowdown %v, want 1", got)
	}
}

// smokeConfig shrinks the benchmark to the test preset and sizes that
// fit under the race detector.
func smokeConfig(t *testing.T) config {
	cfg := defaultConfig()
	cfg.preset = "test"
	cfg.seconds = 1
	cfg.dataDir = t.TempDir()
	cfg.outDir = t.TempDir()
	cfg.depositPreload = 16
	return cfg
}

// TestRefusedDeposits drives meter-warm with devices whose MAC keys the
// server does not know: every deposit is refused, and the run must still
// end with a result that counts them, not with a panic or a NaN.
func TestRefusedDeposits(t *testing.T) {
	cfg := smokeConfig(t)
	cfg.verifyPage = 16
	impl := impls["meter-warm"]
	e, _, err := setUp(&cfg, impl)
	if err != nil {
		t.Fatal(err)
	}
	defer e.destroy()
	preloaded := len(e.acks)
	for i, m := range e.fleet.Meters {
		if e.devs[i], err = e.dep.NewDevice(m.ID, make([]byte, macauth.KeyLen)); err != nil {
			t.Fatal(err)
		}
	}
	r, err := drive(e, "meter-warm", impl, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed == 0 || r.failed > r.attempted {
		t.Errorf("%d of %d operations failed, want every deposit counted", r.failed, r.attempted)
	}
	if n := len(e.acks) - preloaded; n != 0 {
		t.Errorf("%d deposits were acknowledged under a wrong key", n)
	}
	if _, err := json.Marshal(r.e2e); err != nil {
		t.Errorf("metrics of a failed run do not encode: %v", err)
	}
}

// TestSmoke runs all six workloads, the traced pass and the rung ladder
// on the test preset with shrunken sizes, and checks that every declared
// metric comes out, that nothing fails verification, and that the result
// passes -validate and compares clean against itself.
func TestSmoke(t *testing.T) {
	cfg := smokeConfig(t)
	cfg.drainPreload = 64
	cfg.searchCorpus = 16
	cfg.ingestPerSec = 40
	cfg.mixedRate = 50
	cfg.replayEntries = 256
	cfg.verifyPage = 16

	rungs, err := runLadder(&cfg, seconds(cfg.seconds))
	if err != nil {
		t.Fatal(err)
	}
	res := &result{Schema: schemaVersion, Host: host(&cfg), Workloads: make(map[string]*workloadResult)}
	for _, w := range workloads {
		r, err := runWorkload(&cfg, w.Name, rungs)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if r.failed != 0 || r.attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.Name, r.failed, r.attempted, r.notes)
		}
		wr := &workloadResult{Attempted: r.attempted, Failed: r.failed, EndToEnd: map[string]metricValue{}, PerLayer: map[string]metricValue{}}
		for _, s := range endToEnd {
			v, ok := r.e2e[s.Name]
			if !ok || !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, s.Name, v)
			}
			wr.EndToEnd[s.Name] = summarise(s, []float64{v})
		}
		for _, s := range perLayer {
			v, ok := r.layer[s.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: per-layer metric %s = %v", w.Name, s.Name, v)
			}
			wr.PerLayer[s.Name] = summarise(s, []float64{v})
		}
		if _, err := os.Stat(filepath.Join(cfg.outDir, "spans-"+w.Name+".json")); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		res.Workloads[w.Name] = wr
	}
	path := filepath.Join(cfg.outDir, "result.json")
	if err := res.write(path); err != nil {
		t.Fatal(err)
	}
	back, err := readResult(path)
	if err != nil {
		t.Fatal(err)
	}
	if bad := validate(back, &cfg); len(bad) > 0 {
		t.Errorf("validate: %v", bad)
	}
	// Measured on another preset and run length than the benchmark's.
	bf80 := defaultConfig()
	if bad := validate(back, &bf80); len(bad) != 2 {
		t.Errorf("validate against the benchmark's configuration: %v, want the preset and the run length refused", bad)
	}
	delete(back.Workloads["rc-drain"].EndToEnd, "op_p50_ms")
	if bad := validate(back, &cfg); len(bad) != 1 {
		t.Errorf("validate missed a removed metric: %v", bad)
	}
	// -compare: minCompareSamples runs a side resolve; half the throughput on one
	// workload is exactly one regressed row.
	clone := func(scale float64) *result {
		c := &result{Workloads: make(map[string]*workloadResult)}
		for name, wr := range res.Workloads {
			cw := &workloadResult{EndToEnd: make(map[string]metricValue)}
			for k, v := range wr.EndToEnd {
				v.Samples = minCompareSamples
				if name == "meter-warm" && k == "msgs_per_s" {
					v.Value *= scale
				}
				cw.EndToEnd[k] = v
			}
			c.Workloads[name] = cw
		}
		return c
	}
	var out bytes.Buffer
	if n := compare(&out, clone(1), clone(1)); n != 0 {
		t.Errorf("a result regressed against itself:\n%s", out.String())
	}
	out.Reset()
	if n := compare(&out, clone(1), clone(0.5)); n != 1 {
		t.Errorf("halved throughput gave %d regressed rows, want 1:\n%s", n, out.String())
	}
}
