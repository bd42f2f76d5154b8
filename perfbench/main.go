// Command perfbench is the repository's end-to-end benchmark. It drives
// the evaluation engine only through its public functions, times those
// calls, checks every output against committed expectations and prints
// one result line of JSON for the benchmark driver.
//
// Three workloads (see metrics.json for every metric they report):
//
//	regen-quick  cold `mnoc bench -exp everything` passes at radix 64
//	sim-paper    the multicore simulator at the paper's radix 256
//	serve-warm   warm /v1/solve and /v1/evaluate through the handler
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload regen-quick --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with no span recording. With --trace 1 the run alternates untraced
// and traced rounds, prints a per-layer self-time table and the tracing
// overhead, writes its spans to .bench_build/perfbench/ and reports the
// per-layer metrics. --write-expected regenerates the committed
// digests from the current program's outputs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// spansDir is where a traced run writes its spans, inside the checkout
// and ignored by git.
const spansDir = ".bench_build/perfbench"

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: regen-quick, sim-paper or serve-warm")
		seed     = flag.Int64("seed", 1, "workload seed: sets the order of entries, runs and requests")
		seconds  = flag.Float64("seconds", 10, "measurement window in seconds")
		traced   = flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
		write    = flag.Bool("write-expected", false, "rewrite the committed digests from this run's outputs")
	)
	flag.Parse()
	if err := run(os.Stdout, *workload, *seed, *seconds, *traced == 1, *write); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, name string, seed int64, seconds float64, traced, write bool) error {
	wl, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return fmt.Errorf("non-positive --seconds %g", seconds)
	}
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	want, err := loadExpected(wl.expectFile)
	if err != nil {
		return err
	}
	want.recording = write
	if wl.golden != "" {
		if want.golden, err = readGolden(wl.golden); err != nil {
			return err
		}
	}
	ref, err := newReference()
	if err != nil {
		return err
	}
	cfg := config{
		seed:      seed,
		window:    time.Duration(seconds * float64(time.Second)),
		traced:    traced,
		opt:       wl.opt,
		expect:    want,
		ref:       ref,
		refServer: wl.refServer,
	}
	res, err := wl.run(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if write {
		return want.write(filepath.Join("perfbench", "expected", wl.expectFile))
	}
	if traced {
		if err := writeSpans(filepath.Join(spansDir, "spans-"+name+".jsonl"), res.spans); err != nil {
			return err
		}
	}
	return report(w, spec, name, res, traced)
}

// report prints the human-readable summary and, last, the JSON result
// line: end-to-end metrics untraced, per-layer metrics traced.
func report(w io.Writer, spec *spec, name string, res *result, traced bool) error {
	fmt.Fprintf(w, "perfbench %s: %d ops attempted, %d failed\n", name, res.attempted, res.failed)
	for _, c := range res.failures {
		fmt.Fprintln(w, "  check failed:", c)
	}
	printEndToEnd(w, spec, name, res, traced)
	kind := endToEnd
	values := res.e2e
	if traced {
		printLayerTable(w, res.table, res.tableWall)
		kind = perLayer
		values = res.layers
		fmt.Fprintln(w, "per-layer metrics:")
	}
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{
		Correct:   res.failed == 0 && len(res.failures) == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range spec.Metrics {
		if m.Kind != kind {
			continue
		}
		v, ok := values[m.Name]
		switch {
		case !slices.Contains(m.Workloads, name):
			v = 0 // a layer this workload bypasses does no work
		case !ok:
			return fmt.Errorf("%s: metric %s was not measured", name, m.Name)
		}
		out.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		if traced && slices.Contains(m.Workloads, name) {
			fmt.Fprintf(w, "  %-28s %14.6g  %s\n", m.Name, v, m.Unit)
		}
	}
	blob, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", blob)
	return err
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
