package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"mnoc/internal/exp"
	"mnoc/internal/server"
)

// tinyOptions is the radix-16 scale the server tests use.
func tinyOptions() exp.Options {
	return exp.Options{N: 16, Seed: 1, QAPIters: 50, Cycles: 1e6, SimAccesses: 20}
}

func tinyConfig(traced bool, want *expected) config {
	return config{seed: 7, window: 20 * time.Millisecond, traced: traced, opt: tinyOptions(), expect: want}
}

var (
	refOnce sync.Once
	ref     *reference
	refErr  error
)

// tinyReference is the reference kernel the tiny runs share. Only the
// runs that check the end-to-end metrics use it: under the race
// detector each of its runs takes a quarter of a second.
func tinyReference(t *testing.T) *reference {
	t.Helper()
	refOnce.Do(func() { ref, refErr = newReference() })
	if refErr != nil {
		t.Fatal(refErr)
	}
	return ref
}

// benchmarkJSON is the driver's view of the benchmark.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) *benchmarkJSON {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return &b
}

// TestSpecMatchesBenchmarkJSON pins BENCHMARK.json to metrics.json:
// the same workloads, and every metric with the same unit, direction
// and bound.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for n := range workloads {
		want = append(want, n)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, the benchmark runs %v", names, want)
	}
	listed := map[string]metricSpec{}
	for _, m := range b.EndToEnd {
		m.Kind = endToEnd
		listed[m.Name] = m
	}
	for _, m := range b.PerLayer {
		m.Kind = perLayer
		listed[m.Name] = m
	}
	if len(listed) != len(sp.Metrics) {
		t.Errorf("BENCHMARK.json lists %d metrics, metrics.json %d", len(listed), len(sp.Metrics))
	}
	for _, m := range sp.Metrics {
		l, ok := listed[m.Name]
		if !ok {
			t.Errorf("%s: missing from BENCHMARK.json", m.Name)
			continue
		}
		if l.Kind != m.Kind || l.Unit != m.Unit || l.Better != m.Better || l.Bound != m.Bound {
			t.Errorf("%s: BENCHMARK.json has %s/%s/%s/%g, metrics.json %s/%s/%s/%g",
				m.Name, l.Kind, l.Unit, l.Better, l.Bound, m.Kind, m.Unit, m.Better, m.Bound)
		}
		for _, w := range m.Workloads {
			if _, ok := workloads[w]; !ok {
				t.Errorf("%s: unknown workload %q", m.Name, w)
			}
		}
		for _, mv := range m.Moves {
			if !slices.ContainsFunc(sp.Aliases, func(a metricSpec) bool { return a.Name == mv.Metric }) &&
				!slices.ContainsFunc(b.EndToEnd, func(e metricSpec) bool { return e.Name == mv.Metric }) {
				t.Errorf("%s: moves unknown end-to-end metric %q", m.Name, mv.Metric)
			}
		}
	}
}

// runTiny runs a workload at radix 16 and returns its printed report.
func runTiny(t *testing.T, name string, cfg config, keys []serveKey) (*result, string) {
	t.Helper()
	var res *result
	var err error
	if keys != nil {
		res, err = serveWith(cfg, keys)
	} else {
		res, err = workloads[name].run(cfg)
	}
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := report(&out, sp, name, res, cfg.traced); err != nil {
		t.Fatalf("%s: report: %v", name, err)
	}
	return res, out.String()
}

// resultLine decodes the last line of a report.
func resultLine(t *testing.T, out string) (correct bool, attempted, failed int, metrics map[string]metricValue) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("result line %q: %v", lines[len(lines)-1], err)
	}
	return r.Correct, r.Attempted, r.Failed, r.Metrics
}

// checkMetrics asserts the result line carries exactly the listed
// metrics, each with its unit.
func checkMetrics(t *testing.T, name string, got map[string]metricValue, list []metricSpec) {
	t.Helper()
	if len(got) != len(list) {
		t.Errorf("%s: %d metrics printed, BENCHMARK.json lists %d", name, len(got), len(list))
	}
	for _, m := range list {
		v, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not printed", name, m.Name)
		case v.Unit != m.Unit:
			t.Errorf("%s: metric %s printed in %q, want %q", name, m.Name, v.Unit, m.Unit)
		}
	}
}

// TestWorkloadsAtTinyScale records each workload's outputs at radix 16,
// then checks that a run against them passes and prints every metric
// by name and unit, untraced and traced, and that a corrupted digest
// fails the run.
func TestWorkloadsAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := loadBenchmarkJSON(t)
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"regen-quick", "sim-paper", "serve-warm"} {
		t.Run(name, func(t *testing.T) {
			want := &expected{digests: map[string]string{}, recording: true}
			if _, out := runTiny(t, name, tinyConfig(true, want), nil); !strings.Contains(out, "per-layer self time") {
				t.Errorf("traced report has no per-layer table:\n%s", out)
			}
			want.recording = false
			if len(want.digests) == 0 {
				t.Fatal("no outputs recorded")
			}

			_, out := runTiny(t, name, tinyConfig(true, want), nil)
			correct, attempted, failed, metrics := resultLine(t, out)
			if !correct || failed != 0 || attempted == 0 {
				t.Fatalf("traced run against recorded outputs: correct=%t attempted=%d failed=%d\n%s", correct, attempted, failed, out)
			}
			checkMetrics(t, name, metrics, b.PerLayer)
			if !strings.Contains(out, "overhead") {
				t.Errorf("traced report has no tracing overhead:\n%s", out)
			}

			cfg := tinyConfig(false, want)
			cfg.ref = tinyReference(t)
			_, out = runTiny(t, name, cfg, nil)
			correct, _, _, metrics = resultLine(t, out)
			if !correct {
				t.Fatalf("untraced run failed:\n%s", out)
			}
			checkMetrics(t, name, metrics, b.EndToEnd)
			for _, m := range metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric not positive: %+v", m)
				}
			}
			for _, a := range sp.Aliases {
				if slices.Contains(a.Workloads, name) && !printedWithUnit(out, a.Name, a.Unit) {
					t.Errorf("%s not printed with unit %s:\n%s", a.Name, a.Unit, out)
				}
			}

			for k := range want.digests {
				want.digests[k] = strings.Repeat("0", 64)
				break
			}
			_, out = runTiny(t, name, tinyConfig(false, want), nil)
			if correct, _, failed, _ := resultLine(t, out); correct || failed == 0 {
				t.Errorf("a corrupted digest passed: correct=%t failed=%d\n%s", correct, failed, out)
			}
		})
	}
}

// printedWithUnit reports whether out has a line naming metric with unit.
func printedWithUnit(out, metric, unit string) bool {
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) >= 3 && f[0] == metric && f[len(f)-1] == unit {
			return true
		}
	}
	return false
}

// TestNon200IsAFailure adds a request the server rejects to the key
// set: every response to it counts as a failed op.
func TestNon200IsAFailure(t *testing.T) {
	keys, err := serveKeys()
	if err != nil {
		t.Fatal(err)
	}
	bad := server.SolveRequest{Bench: "no-such-bench"}
	body, err := json.Marshal(bad)
	if err != nil {
		t.Fatal(err)
	}
	keys = append(keys[:2], serveKey{path: "/v1/solve", key: bad.FlightKey(), class: "solve", span: "server.solve", body: body})
	want := &expected{digests: map[string]string{}, recording: true}
	_, out := runTiny(t, "serve-warm", tinyConfig(false, want), keys)
	correct, attempted, failed, _ := resultLine(t, out)
	if correct || failed == 0 || failed == attempted {
		t.Errorf("correct=%t attempted=%d failed=%d, want only the bad key's requests to fail\n%s", correct, attempted, failed, out)
	}
}
