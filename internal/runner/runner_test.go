package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mnoc/internal/exp"
	"mnoc/internal/fault"
	"mnoc/internal/runner/artifact"
	"mnoc/internal/telemetry"
)

// testOptions keeps the full registry fast enough for CI while still
// exercising every experiment.
func testOptions() *exp.Options {
	return &exp.Options{N: 16, Seed: 1, QAPIters: 50, Cycles: 1e6, SimAccesses: 20}
}

// renderRegistry runs the full paper registry under cfg and returns
// the rendered table output.
func renderRegistry(t *testing.T, cfg Config) (string, *Runner) {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Precompute(context.Background()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.Run(context.Background(), &buf, exp.Registry()); err != nil {
		t.Fatal(err)
	}
	return buf.String(), r
}

func TestRunEntriesWorkerDeterminism(t *testing.T) {
	out1, _ := renderRegistry(t, Config{Options: testOptions(), Workers: 1})
	out8, _ := renderRegistry(t, Config{Options: testOptions(), Workers: 8})
	if out1 != out8 {
		t.Fatalf("workers=1 and workers=8 disagree:\n--- w1 ---\n%s\n--- w8 ---\n%s", out1, out8)
	}
	if !strings.Contains(out1, "== table1:") || !strings.Contains(out1, "== fig10:") {
		t.Fatalf("registry output incomplete:\n%s", out1)
	}
}

func TestColdWarmCacheDeterminism(t *testing.T) {
	dir := t.TempDir()
	cold, rc := renderRegistry(t, Config{Options: testOptions(), Workers: 8, CacheDir: dir})
	if s := rc.Context().Solves(); s.Shapes == 0 || s.QAP == 0 || s.Networks == 0 || s.Sims == 0 {
		t.Fatalf("cold run did not solve: %+v", s)
	}

	warm, rw := renderRegistry(t, Config{Options: testOptions(), Workers: 8, CacheDir: dir})
	if warm != cold {
		t.Fatalf("warm run output differs from cold:\n--- cold ---\n%s\n--- warm ---\n%s", cold, warm)
	}
	if s := rw.Context().Solves(); s != (exp.SolveCounts{}) {
		t.Fatalf("warm run re-solved: %+v", s)
	}
	st := rw.Store().Stats()
	if st.Misses != 0 || st.Puts != 0 {
		t.Fatalf("warm run missed the cache: %+v", st)
	}
	if !strings.Contains(rw.Summary(), dir) {
		t.Fatalf("summary does not name the cache dir: %s", rw.Summary())
	}

	// The same invariants, read back through the telemetry registry
	// instead of the ad-hoc counters: the cold run solves, the warm run
	// is hits-only.
	creg, wreg := rc.Telemetry(), rw.Telemetry()
	if v := creg.Counter("solve.count").Value(); v == 0 {
		t.Fatal("cold run registry shows zero solves")
	}
	if v := creg.Counter(artifact.MetricMiss).Value(); v == 0 {
		t.Fatal("cold run registry shows zero cache misses")
	}
	if v := wreg.Counter(artifact.MetricHit).Value(); v == 0 {
		t.Fatal("warm run registry shows zero cache hits")
	}
	if v := wreg.Counter("solve.count").Value(); v != 0 {
		t.Fatalf("warm run registry shows %d solves, want 0", v)
	}
	if v := wreg.Counter(artifact.MetricMiss).Value(); v != 0 {
		t.Fatalf("warm run registry shows %d cache misses, want 0", v)
	}
	for _, kind := range []string{"shapes", "qap", "networks", "sims"} {
		if v := wreg.Counter("solve." + kind).Value(); v != 0 {
			t.Errorf("warm run registry shows %d solve.%s, want 0", v, kind)
		}
	}
	// The decode histogram is the warm path's cost: it must have seen
	// at least one artifact decode.
	snap := wreg.Snapshot()
	if h, ok := snap.Histograms["artifact.decode_ms"]; !ok || h.Count == 0 {
		t.Fatalf("warm run recorded no artifact decodes: %+v", snap.Histograms["artifact.decode_ms"])
	}
}

// TestRunMetricsReportAndTrace drives one run end to end through the
// machine-readable outputs: the metrics report round-trips as JSON with
// the eagerly-registered name set, and the trace writers emit loadable
// JSONL and Chrome trace files.
func TestRunMetricsReportAndTrace(t *testing.T) {
	_, r := renderRegistry(t, Config{Options: testOptions(), Workers: 4})

	dir := t.TempDir()
	mpath := filepath.Join(dir, "metrics.json")
	if err := r.WriteMetricsFile(mpath, map[string]any{"subcommand": "test"}); err != nil {
		t.Fatal(err)
	}
	body, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	var rep telemetry.Report
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("metrics report is not valid JSON: %v\n%s", err, body)
	}
	if rep.Meta["subcommand"] != "test" {
		t.Fatalf("metadata lost: %+v", rep.Meta)
	}
	names := rep.Metrics.Names()
	for _, want := range []string{"runner.entries", "sim.runs", "solve.count", artifact.MetricHit} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("metrics report misses %q (have %v)", want, names)
		}
	}
	if r.Telemetry().Counter("runner.entries").Value() == 0 {
		t.Fatal("runner recorded no entries")
	}

	for _, name := range []string{"trace.jsonl", "trace.json"} {
		tpath := filepath.Join(dir, name)
		if err := r.WriteTraceFile(tpath); err != nil {
			t.Fatal(err)
		}
		if fi, err := os.Stat(tpath); err != nil || fi.Size() == 0 {
			t.Fatalf("trace file %s missing or empty (err=%v)", name, err)
		}
	}
	if r.Tracer().Len() == 0 {
		t.Fatal("run recorded no spans")
	}
}

// TestFaultSweepPointErrorContext regression-tests the sweep's error
// wrapping: a failing point must name its index, benchmark, scale and
// policy so a joined multi-point failure stays attributable. The
// failure vector is a replayed schedule generated for a different radix
// than the sweep's network.
func TestFaultSweepPointErrorContext(t *testing.T) {
	sched, err := fault.DefaultInjectorConfig(1).Generate(8, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "n8.sched")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Write(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	fc := FaultConfig{
		N: 16, Bench: "syn_uniform", Cycles: 20_000, Flits: 1_000, Seed: 1,
		SchedulePath: path,
	}
	store, err := NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	_, err = FaultSweep(context.Background(), store, 2, fc, reg, nil)
	if err == nil {
		t.Fatal("mismatched-radix schedule did not fail")
	}
	for _, want := range []string{"fault point 1/1", "syn_uniform", "oblivious"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("point error misses %q: %v", want, err)
		}
	}
	if v := reg.Counter("fault.point_errors").Value(); v != 1 {
		t.Errorf("fault.point_errors = %d, want 1", v)
	}
}

func TestRunEntriesJoinsAllErrors(t *testing.T) {
	r, err := New(Config{Options: testOptions(), Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	boom := func(id string) exp.Entry {
		return exp.Entry{ID: id, Title: id, Run: func(context.Context, *exp.Context) (*exp.Table, error) {
			return nil, os.ErrNotExist
		}}
	}
	ok := exp.Entry{ID: "ok", Title: "ok", Run: func(context.Context, *exp.Context) (*exp.Table, error) {
		return &exp.Table{ID: "ok", Title: "ok"}, nil
	}}
	_, err = r.RunEntries(context.Background(), []exp.Entry{boom("first"), ok, boom("second")})
	if err == nil {
		t.Fatal("failing entries reported no error")
	}
	for _, want := range []string{"first", "second"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error misses %q: %v", want, err)
		}
	}
}

// TestRunEntriesFailFast: with Config.FailFast the first error cancels
// the run context, so an in-flight entry blocked on ctx aborts; without
// it, the run context is never cancelled and the entry completes.
func TestRunEntriesFailFast(t *testing.T) {
	boom := exp.Entry{ID: "boom", Title: "boom", Run: func(context.Context, *exp.Context) (*exp.Table, error) {
		return nil, os.ErrNotExist
	}}
	// waitsStarted makes "waits" provably in flight before boomAfter
	// fails: the pool never starts an entry once fail-fast has fired.
	waitsStarted := make(chan struct{})
	boomAfter := exp.Entry{ID: "boom", Title: "boom", Run: func(context.Context, *exp.Context) (*exp.Table, error) {
		<-waitsStarted
		return nil, os.ErrNotExist
	}}
	waits := exp.Entry{ID: "waits", Title: "waits", Run: func(ctx context.Context, _ *exp.Context) (*exp.Table, error) {
		close(waitsStarted)
		<-ctx.Done() // only fail-fast cancellation can release this
		return nil, ctx.Err()
	}}

	r, err := New(Config{Options: testOptions(), Workers: 2, FailFast: true})
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.RunEntries(context.Background(), []exp.Entry{boomAfter, waits})
	if err == nil {
		t.Fatal("fail-fast run reported no error")
	}
	for _, want := range []string{"boom", "waits", context.Canceled.Error()} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("fail-fast error misses %q: %v", want, err)
		}
	}

	// Without fail-fast the run context stays live, so "checks" takes
	// its non-cancelled branch and succeeds despite boom's failure.
	checks := exp.Entry{ID: "checks", Title: "checks", Run: func(ctx context.Context, _ *exp.Context) (*exp.Table, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		default:
			return &exp.Table{ID: "checks", Title: "checks"}, nil
		}
	}}
	r2, err := New(Config{Options: testOptions(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = r2.RunEntries(context.Background(), []exp.Entry{boom, checks})
	if err == nil || strings.Contains(err.Error(), "checks") {
		t.Fatalf("non-fail-fast error should name only boom: %v", err)
	}
}

// errWriter fails every write.
type errWriter struct{}

func (errWriter) Write([]byte) (int, error) { return 0, os.ErrClosed }

// TestWriteTablesNamesFailingTable regression-tests the output error
// wrapping: render and CSV failures must name the table that caused
// them so a batch write stays attributable.
func TestWriteTablesNamesFailingTable(t *testing.T) {
	tbl := &exp.Table{ID: "tbl_x", Title: "x", Header: []string{"a"}, Rows: [][]string{{"1"}}}

	r, err := New(Config{Options: testOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.WriteTables(errWriter{}, []*exp.Table{tbl}); err == nil || !strings.Contains(err.Error(), "table tbl_x") {
		t.Errorf("text write error does not name the table: %v", err)
	}

	// CSVDir pointing at an existing file makes MkdirAll fail.
	blocked := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(blocked, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	rc, err := New(Config{Options: testOptions(), CSVDir: blocked})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rc.WriteTables(&buf, []*exp.Table{tbl}); err == nil || !strings.Contains(err.Error(), "table tbl_x") {
		t.Errorf("CSV write error does not name the table: %v", err)
	}

	rj, err := New(Config{Options: testOptions(), JSON: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := rj.WriteTables(errWriter{}, []*exp.Table{tbl}); err == nil {
		t.Errorf("JSON write to failing writer succeeded")
	}
}

func TestFaultSweepDeterminism(t *testing.T) {
	fc := FaultConfig{
		N: 16, Bench: "syn_uniform", Cycles: 20_000, Flits: 1_000, Seed: 1,
		Scales: []float64{0, 1, 2},
	}
	render := func(fc FaultConfig, workers int) string {
		r, err := New(Config{Options: testOptions(), Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.FaultSweep(context.Background(), fc)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.Render(&buf, false); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	seq := render(fc, 1)
	par := render(fc, 8)
	if seq != par {
		t.Fatalf("fault sweep differs across worker counts:\n--- w1 ---\n%s\n--- w8 ---\n%s", seq, par)
	}
	if !strings.Contains(seq, "scale 2.00:") {
		t.Fatalf("sweep output incomplete:\n%s", seq)
	}
	// A point depends on the seed and its scale alone: a one-scale
	// sweep reproduces that point's line of the full sweep.
	one := fc
	one.Scales = []float64{2}
	point := strings.SplitN(render(one, 1), "\n", 2)[0]
	if !strings.Contains(seq, point+"\n") {
		t.Fatalf("one-scale sweep point %q missing from the full sweep:\n%s", point, seq)
	}
}

func TestFaultSweepScheduleRoundtrip(t *testing.T) {
	fc := FaultConfig{
		N: 16, Bench: "syn_uniform", Cycles: 20_000, Flits: 1_000, Seed: 1,
		Scales: []float64{2},
	}
	r, err := New(Config{Options: testOptions(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.FaultSweep(context.Background(), fc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "f.sched")
	if err := res.SaveSchedule(path); err != nil {
		t.Fatal(err)
	}

	// Replaying the saved schedule reproduces the sweep point.
	replay := fc
	replay.Scales = nil
	replay.SchedulePath = path
	res2, err := r.FaultSweep(context.Background(), replay)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Points) != 1 {
		t.Fatalf("replay produced %d points, want 1", len(res2.Points))
	}
	a, b := res.Points[0].Recovery, res2.Points[0].Recovery
	if a.Delivered != b.Delivered || a.Retries != b.Retries || a.RuntimeCycles != b.RuntimeCycles {
		t.Fatalf("replayed schedule diverges: %+v vs %+v", a, b)
	}
}

func TestLoadConfig(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cfg.json")
	body := `{
  "scale": "quick",
  "seed": 7,
  "workers": 3,
  "cache_dir": "/tmp/x",
  "fault": {"n": 32, "bench": "fft", "cycles": 1000, "flits": 10, "scales": [0, 1]}
}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := cfg.ResolveOptions()
	if err != nil {
		t.Fatal(err)
	}
	if opt.N != exp.Quick().N || opt.Seed != 7 {
		t.Fatalf("resolved options = %+v", opt)
	}
	if cfg.ResolveWorkers() != 3 || cfg.Fault.N != 32 || cfg.Fault.Bench != "fft" {
		t.Fatalf("config = %+v", cfg)
	}

	// Unknown fields fail loudly.
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"scalee": "quick"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadConfig(bad); err == nil {
		t.Fatal("unknown config field accepted")
	}
}

func TestResolveOptions(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		n    int
		seed int64
		ok   bool
	}{
		{Config{}, exp.Paper().N, 1, true},
		{Config{Scale: "paper"}, exp.Paper().N, 1, true},
		{Config{Scale: "quick", Seed: 9}, exp.Quick().N, 9, true},
		{Config{Options: testOptions()}, 16, 1, true},
		{Config{Scale: "huge"}, 0, 0, false},
	} {
		opt, err := tc.cfg.ResolveOptions()
		if tc.ok != (err == nil) {
			t.Errorf("%+v: err = %v", tc.cfg, err)
			continue
		}
		if err == nil && (opt.N != tc.n || opt.Seed != tc.seed) {
			t.Errorf("%+v resolved to %+v", tc.cfg, opt)
		}
	}
}
