package obsv_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"mwskit/internal/core"
	"mwskit/internal/obsv"
	"mwskit/internal/wal"
	"mwskit/internal/wire"
)

// get fetches one path of a debug handler.
func get(t *testing.T, h http.Handler, path string) (*http.Response, string) {
	t.Helper()
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

// scriptedDeployment serves one deposit, one retrieval, one keyword
// search, one key extraction and one refused request per service: every
// kind of series either daemon exports gets at least one member.
func scriptedDeployment(t *testing.T) *core.Deployment {
	t.Helper()
	dep, err := core.NewDeployment(core.DeploymentConfig{Dir: t.TempDir(), Preset: "test", Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dep.Close() })
	if err := dep.Start(); err != nil {
		t.Fatal(err)
	}
	mwsConn, err := dep.DialMWS()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mwsConn.Close() })
	pkgConn, err := dep.DialPKG()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pkgConn.Close() })

	key, err := dep.MWS.RegisterDevice("meter")
	if err != nil {
		t.Fatal(err)
	}
	sd, err := dep.NewDevice("meter", key)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := dep.EnrollClient("rc", []byte("pw"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dep.Grant("rc", "A1"); err != nil {
		t.Fatal(err)
	}
	if _, err := sd.DepositTagged(mwsConn, "A1", []byte("power outage at feeder 7"), []string{"outage"}); err != nil {
		t.Fatal(err)
	}
	boot, err := rc.Retrieve(mwsConn, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	trapdoor, err := rc.FetchTrapdoor(pkgConn, boot, "outage")
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // fresh authenticator timestamp
	hits, err := rc.Search(mwsConn, trapdoor, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := rc.FetchKeys(pkgConn, hits); err != nil {
		t.Fatal(err)
	}
	// Refused: a deposit and an extraction with no payload at all.
	mwsConn.Do(wire.Frame{Type: wire.TDeposit})
	pkgConn.Do(wire.Frame{Type: wire.TExtract})
	return dep
}

var (
	promLine  = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? (\S+)$`)
	promLabel = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"`)
)

// seriesNames reduces a /metrics body to the sorted set of its "# TYPE"
// lines and of its series as name{key,key} with the keys sorted — label
// order carries no meaning in the exposition format.
func seriesNames(t *testing.T, body string) []string {
	t.Helper()
	set := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "#") {
			set[line] = true
			continue
		}
		m := promLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("not an exposition line: %q", line)
		}
		var keys []string
		for _, l := range promLabel.FindAllStringSubmatch(m[2], -1) {
			keys = append(keys, l[1])
		}
		sort.Strings(keys)
		name := m[1]
		if len(keys) > 0 {
			name += "{" + strings.Join(keys, ",") + "}"
		}
		set[name] = true
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// TestSeriesNamesGolden pins every series name, kind and label key either
// daemon exports on /metrics against testdata/series_names.golden, which
// the parent of the commit that merged internal/metrics into this package
// wrote and no later commit regenerates: a rename, a drop or an addition
// is an edit of that file, reviewed as such (DESIGN.md §10 is checked
// against it by hand).
func TestSeriesNamesGolden(t *testing.T) {
	dep := scriptedDeployment(t)
	var got []string
	for _, svc := range []struct {
		name string
		reg  *obsv.Registry
	}{{"mws", dep.MWS.StatsRegistry()}, {"pkg", dep.PKG.StatsRegistry()}} {
		resp, body := get(t, obsv.DebugHandler(svc.name, svc.reg, nil), "/metrics")
		if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
			t.Errorf("%s /metrics content type %q", svc.name, ct)
		}
		got = append(got, seriesNames(t, body)...)
	}
	want, err := os.ReadFile("testdata/series_names.golden")
	if err != nil {
		t.Fatal(err)
	}
	if g := strings.Join(got, "\n") + "\n"; g != string(want) {
		t.Errorf("series set differs from testdata/series_names.golden:\n got:\n%s\nwant:\n%s", g, want)
	}
}

// TestSeriesCatalog holds DESIGN.md §10's series table to the golden: every
// series of either daemon is a row entry with the same label keys and its
// family's kind, and the table lists nothing the daemons do not export.
func TestSeriesCatalog(t *testing.T) {
	golden, err := os.ReadFile("testdata/series_names.golden")
	if err != nil {
		t.Fatal(err)
	}
	kinds, exported := map[string]string{}, map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		line = strings.TrimPrefix(line, "# TYPE ")
		line = strings.TrimPrefix(strings.TrimPrefix(line, "mws_"), "pkg_")
		if family, kind, ok := strings.Cut(line, " "); ok {
			kinds[family] = kind
		} else {
			exported[line] = true
		}
	}
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, _ := strings.Cut(string(design), "| Series | Kind | Bumped by | Answers |\n")
	table, _, _ = strings.Cut(table, "\n\n")
	listed := map[string]bool{}
	for _, row := range strings.Split(table, "\n")[1:] {
		cells := strings.Split(row, "|")
		for _, m := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(cells[1], -1) {
			listed[m[1]] = true
			family, _, _ := strings.Cut(m[1], "{")
			if kinds[family] == "" {
				family = strings.TrimSuffix(strings.TrimSuffix(family, "_sum"), "_count")
			}
			if kind := strings.TrimSpace(cells[2]); kinds[family] != kind {
				t.Errorf("DESIGN.md calls %s a %s, /metrics a %q", m[1], kind, kinds[family])
			}
		}
	}
	for s := range exported {
		if !listed[s] {
			t.Errorf("%s is exported and missing from DESIGN.md §10's series table", s)
		}
	}
	for s := range listed {
		if !exported[s] {
			t.Errorf("DESIGN.md §10 lists %s, which no daemon exports", s)
		}
	}
}

// promSeries parses the counter and gauge lines of a /metrics body back
// into samples (the "_total" suffix marks a counter), unescaping label
// values independently of the renderer.
func promSeries(t *testing.T, prefix, body string) (counters, gauges []obsv.Sample) {
	t.Helper()
	unescape := strings.NewReplacer(`\\`, `\`, `\"`, `"`, `\n`, "\n")
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		m := promLine.FindStringSubmatch(line)
		if m == nil || strings.Contains(m[1], "request_latency_seconds") {
			continue
		}
		s := obsv.Sample{Name: strings.TrimPrefix(m[1], prefix+"_")}
		for _, l := range promLabel.FindAllStringSubmatch(m[2], -1) {
			s.Labels = append(s.Labels, obsv.L(l[1], unescape.Replace(l[2])))
		}
		var err error
		if s.Value, err = strconv.ParseInt(m[3], 10, 64); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		if name, ok := strings.CutSuffix(s.Name, "_total"); ok {
			s.Name = name
			counters = append(counters, s)
		} else {
			gauges = append(gauges, s)
		}
	}
	return counters, gauges
}

// sorted orders samples as text: the two surfaces list the same series,
// /metrics with the per-op counters merged in.
func sorted(samples []obsv.Sample) []string {
	out := make([]string, len(samples))
	for i, s := range samples {
		out[i] = fmt.Sprintf("%s %q %d", s.Name, s.Labels, s.Value)
	}
	sort.Strings(out)
	return out
}

// TestSurfacesAgree: /metrics and TStats are two renderings of one
// obsv.Collect, so they must agree series for series on name, label set
// (in the same key-sorted order) and value — for label text that needs
// escaping on one surface and not on the other too.
func TestSurfacesAgree(t *testing.T) {
	reg := obsv.NewRegistry()
	reg.Observe("Deposit", time.Millisecond, 0)
	reg.Observe("Deposit", time.Millisecond, wire.CodeAuth)
	reg.Observe("Deposit", time.Millisecond, wire.CodeTimeout)
	reg.Observe(`o"p\`, time.Millisecond, wire.CodeAuth)
	reg.Counter("storage_shard_appends", obsv.L("shard", "3")).Add(7)
	reg.Counter("odd", obsv.L("b", "x\ny"), obsv.L("a", `1,b="2"\`)).Inc()
	reg.Gauge("storage_shard_messages", obsv.L("shard", "3")).Set(-2)

	_, body := get(t, obsv.DebugHandler("svc", reg, nil), "/metrics")
	counters, gauges := promSeries(t, "svc", body)
	stats := wire.StatsFromRegistry(reg)
	for _, op := range stats.Ops {
		l := []obsv.Label{obsv.L("op", op.Op)}
		stats.Counters = append(stats.Counters,
			obsv.Sample{Name: "requests", Labels: l, Value: int64(op.Requests)},
			obsv.Sample{Name: "errors", Labels: l, Value: int64(op.Errors)})
	}
	if got, want := sorted(counters), sorted(stats.Counters); !slices.Equal(got, want) {
		t.Errorf("counters differ:\n/metrics %q\nTStats   %q", got, want)
	}
	if got, want := sorted(gauges), sorted(stats.Gauges); !slices.Equal(got, want) {
		t.Errorf("gauges differ:\n/metrics %q\nTStats   %q", got, want)
	}
	if !strings.Contains(body, `svc_errors_by_code_total{code="2",op="Deposit"} 1`) {
		t.Errorf("errors_by_code labels are not key-sorted on /metrics:\n%s", body)
	}
}

// TestDebugHandler covers the rest of the debug surface: a known
// counter's value on /metrics, /healthz, and /traces with and without a
// filter, with a bad filter and with no tracer.
func TestDebugHandler(t *testing.T) {
	reg := obsv.NewRegistry()
	reg.Counter("peks_searches").Add(3)
	tracer := obsv.NewTracer("mws", 16, 0, nil)
	var ids []uint64
	for _, name := range []string{"Deposit", "Retrieve"} {
		_, sp := tracer.StartRoot(context.Background(), name)
		sp.End()
		ids = append(ids, sp.Context().TraceID)
	}
	h := obsv.DebugHandler("mws", reg, tracer)

	if _, body := get(t, h, "/metrics"); !strings.Contains(body, "\nmws_peks_searches_total 3\n") {
		t.Errorf("/metrics lacks the registered counter:\n%s", body)
	}
	if resp, body := get(t, h, "/healthz"); resp.StatusCode != http.StatusOK || body != "ok\n" {
		t.Errorf("/healthz = %d %q", resp.StatusCode, body)
	}

	traces := func(h http.Handler, path string) (doc struct {
		Service string
		Count   int
		Spans   []obsv.SpanRecord
	}) {
		t.Helper()
		resp, body := get(t, h, path)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
			t.Fatalf("%s = %d %q", path, resp.StatusCode, resp.Header.Get("Content-Type"))
		}
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatalf("%s: %v in %s", path, err, body)
		}
		return doc
	}
	if doc := traces(h, "/traces"); doc.Service != "mws" || doc.Count != 2 || len(doc.Spans) != 2 {
		t.Errorf("/traces = %+v", doc)
	}
	one := traces(h, "/traces?trace="+strconv.FormatUint(ids[1], 10))
	if one.Count != 1 || one.Spans[0].TraceID != ids[1] || one.Spans[0].Name != "Retrieve" {
		t.Errorf("filtered /traces = %+v", one)
	}
	if resp, _ := get(t, h, "/traces?trace=0x10"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad trace id answered %d", resp.StatusCode)
	}
	if doc := traces(obsv.DebugHandler("pkg", reg, nil), "/traces"); doc.Service != "pkg" || doc.Count != 0 {
		t.Errorf("/traces without a tracer = %+v", doc)
	}
}
