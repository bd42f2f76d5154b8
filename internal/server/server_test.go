package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"mnoc/internal/exp"
	"mnoc/internal/runner"
	"mnoc/internal/telemetry"
)

// testConfig keeps server tests fast: radix 16, tiny QAP budget —
// the same scale the runner tests use.
func testConfig() Config {
	return Config{
		Runner: runner.Config{
			Options:  &exp.Options{N: 16, Seed: 1, QAPIters: 50, Cycles: 1e6, SimAccesses: 20},
			FailFast: true,
		},
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	blob, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return postRaw(t, url, string(blob))
}

// postRaw POSTs body verbatim, for requests json.Marshal cannot build.
func postRaw(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestSolveEndpoint(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	resp, body := post(t, ts.URL+"/v1/solve", SolveRequest{Bench: "fft", Kind: "dist4", QAP: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out SolveResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.TotalWatts <= 0 || out.BaseWatts <= 0 {
		t.Fatalf("non-positive watts: %+v", out)
	}
	if out.Normalized <= 0 || out.Normalized >= 1.5 {
		t.Fatalf("implausible normalized power %g", out.Normalized)
	}
	// A mapped multi-mode design must not cost more than base.
	if out.Normalized > 1 {
		t.Errorf("dist4+QAP normalized %g > 1", out.Normalized)
	}
}

func TestEvaluateEndpoint(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	resp, body := post(t, ts.URL+"/v1/evaluate", EvaluateRequest{Bench: "fft", Policy: "base", Scale: 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out EvaluateResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.MNoCCycles == 0 || out.RNoCCycles == 0 {
		t.Fatalf("missing performance cycles: %+v", out)
	}
	if out.Speedup <= 0 {
		t.Fatalf("speedup %g", out.Speedup)
	}
	// Scale=2 doubles the wattage exactly (power is linear in traffic).
	resp1, body1 := post(t, ts.URL+"/v1/evaluate", EvaluateRequest{Bench: "fft", Policy: "base"})
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp1.StatusCode, body1)
	}
	var out1 EvaluateResponse
	if err := json.Unmarshal(body1, &out1); err != nil {
		t.Fatal(err)
	}
	if got, want := out.TotalWatts, 2*out1.TotalWatts; got < want*0.999 || got > want*1.001 {
		t.Errorf("scaled watts %g, want %g", got, want)
	}
}

func TestBenchEndpoint(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	resp, body := post(t, ts.URL+"/v1/bench", BenchRequest{ID: "fig3"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var tables []exp.Table
	if err := json.Unmarshal(body, &tables); err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || tables[0].ID != "fig3" || len(tables[0].Rows) == 0 {
		t.Fatalf("unexpected tables: %s", body)
	}
}

// badRequest is one malformed or invalid POST and the rejection it
// must get.
type badRequest struct {
	path string
	body any    // JSON-encoded unless raw is set
	raw  string // sent verbatim
	want int    // status; 0 means 400
	msg  string // expected in the error envelope, if set
}

// payload returns the body as sent.
func (tc badRequest) payload(tb testing.TB) string {
	if tc.raw != "" {
		return tc.raw
	}
	blob, err := json.Marshal(tc.body)
	if err != nil {
		tb.Fatal(err)
	}
	return string(blob)
}

// badRequests is TestBadRequests' table, shared as FuzzHandlers' seeds.
func badRequests() []badRequest {
	tooMany := make([]string, len(exp.Registry())+len(exp.Extensions())+1)
	for i := range tooMany {
		tooMany[i] = fmt.Sprintf("id%d", i)
	}
	return []badRequest{
		{path: "/v1/solve", body: SolveRequest{Bench: "nope", Kind: "dist4"}},
		{path: "/v1/solve", body: SolveRequest{Bench: "fft", Kind: "nope"}},
		{path: "/v1/solve", body: map[string]any{"bench": "fft", "typo_field": 1}},
		{path: "/v1/evaluate", body: EvaluateRequest{Bench: "fft", Policy: "base", Scale: -1}},
		{path: "/v1/evaluate", body: EvaluateRequest{Bench: "fft", Policy: "base", Scale: 1e308}, msg: "traffic scale"},
		{path: "/v1/bench", body: BenchRequest{ID: "nope"}},
		{path: "/v1/bench", body: BenchRequest{}},
		{path: "/v1/bench", body: BenchRequest{IDs: tooMany}, msg: "at most"},
		{path: "/v1/bench", body: BenchRequest{IDs: []string{"table1", "fig2"}, ID: "table1"}, msg: "repeated"},
		{path: "/v1/solve", raw: `{"bench":"fft","kind":"dist4"} {"bench":"fft"}`, msg: "trailing data"},
		{path: "/v1/solve", raw: `{"bench":"fft","kind":"dist4"}garbage`},
		{path: "/v1/solve", raw: `{"bench":"fft","kind":"dist4"` + strings.Repeat(" ", maxRequestBytes) + `}`,
			want: http.StatusRequestEntityTooLarge},
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	for _, tc := range badRequests() {
		want := tc.want
		if want == 0 {
			want = http.StatusBadRequest
		}
		resp, body := postRaw(t, ts.URL+tc.path, tc.payload(t))
		if resp.StatusCode != want {
			t.Errorf("%s %+v %.60q: status %d (%s), want %d", tc.path, tc.body, tc.raw, resp.StatusCode, body, want)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error envelope missing: %s", tc.path, body)
		}
		if !strings.Contains(e.Error, tc.msg) {
			t.Errorf("%s: error %q does not mention %q", tc.path, e.Error, tc.msg)
		}
	}
	// GET on a POST route.
	resp, err := http.Get(ts.URL + "/v1/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/solve: %d, want 405", resp.StatusCode)
	}
}

// FuzzHandlers sends arbitrary bodies to every POST endpoint of a
// warmed radix-16 handler (wired into `make fuzz`). Whatever the body,
// the server must not panic or answer 5xx, and every response is one
// JSON value. Two statuses are held to their cause: a 504 (the one
// 5xx allowed) only when the body set timeout_ms, a 429 only when the
// admission queue was full.
func FuzzHandlers(f *testing.F) {
	endpoints := []string{"/v1/solve", "/v1/evaluate", "/v1/bench", "/v1/adapt/evaluate"}
	valid := []struct {
		path, body string
	}{
		{"/v1/solve", `{"bench":"fft","kind":"dist4","qap":true}`},
		{"/v1/evaluate", `{"bench":"fft","policy":"base","scale":2}`},
		{"/v1/bench", `{"id":"fig3"}`},
		{"/v1/adapt/evaluate", `{"bench":"radix"}`},
	}
	cfg := testConfig()
	cfg.Adapt = adaptTestController(f)
	s, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	h := s.Handler()
	do := func(path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return rec
	}
	for _, v := range valid {
		if rec := do(v.path, v.body); rec.Code != http.StatusOK {
			f.Fatalf("warming %s %s: status %d: %s", v.path, v.body, rec.Code, rec.Body)
		}
		f.Add(uint8(slices.Index(endpoints, v.path)), v.body)
	}
	for _, tc := range badRequests() {
		f.Add(uint8(slices.Index(endpoints, tc.path)), tc.payload(f))
	}
	rejected := s.Runner().Telemetry().Counter("server.rejected")
	f.Fuzz(func(t *testing.T, endpoint uint8, body string) {
		path := endpoints[int(endpoint)%len(endpoints)]
		before := rejected.Value()
		rec := do(path, body)
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("%s %.80q: status %d with a body that is not JSON: %q", path, body, rec.Code, rec.Body)
		}
		switch code := rec.Code; {
		case code == http.StatusGatewayTimeout:
			var req struct {
				TimeoutMS int64 `json:"timeout_ms"`
			}
			if json.Unmarshal([]byte(body), &req) != nil || req.TimeoutMS <= 0 {
				t.Fatalf("%s %.80q: 504 without a client timeout_ms", path, body)
			}
		case code == http.StatusTooManyRequests:
			if rejected.Value() == before {
				t.Fatalf("%s %.80q: 429 with room in the admission queue", path, body)
			}
		case code >= 500:
			t.Fatalf("%s %.80q: status %d: %s", path, body, code, rec.Body)
		}
	})
}

func TestHealthzAndVersion(t *testing.T) {
	cfg := testConfig()
	cfg.Version = "test-1"
	_, ts := newTestServer(t, cfg)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/version")
	if err != nil {
		t.Fatal(err)
	}
	var v struct {
		Version string `json:"version"`
		Radix   int    `json:"radix"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if v.Version != "test-1" || v.Radix != 16 {
		t.Fatalf("version payload: %+v", v)
	}
}

// TestCoalescing is the ISSUE's -race acceptance test: N identical
// concurrent solves must produce N successful responses but exactly
// ONE additional solve (the network build) — the flight group and the
// exp-layer singleflight collapse the duplicates, and the artifact
// cache is written once.
func TestCoalescing(t *testing.T) {
	s, ts := newTestServer(t, testConfig())
	reg := s.Runner().Telemetry()

	// Warm everything the dist2 solve needs except the network itself
	// (a base solve builds the traffic shape).
	resp, body := post(t, ts.URL+"/v1/solve", SolveRequest{Bench: "fft", Kind: "base"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup: %d %s", resp.StatusCode, body)
	}
	before := reg.Counter("solve.count").Value()

	const n = 16
	var wg sync.WaitGroup
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			blob, _ := json.Marshal(SolveRequest{Bench: "fft", Kind: "dist2"})
			resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(blob))
			if err != nil {
				return
			}
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Fatalf("request %d: status %d", i, c)
		}
	}
	if got := reg.Counter("solve.count").Value() - before; got != 1 {
		t.Errorf("solve.count advanced by %d, want exactly 1", got)
	}
	// A repeat burst is pure cache: no further solves.
	during := reg.Counter("solve.count").Value()
	resp, body = post(t, ts.URL+"/v1/solve", SolveRequest{Bench: "fft", Kind: "dist2"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat: %d %s", resp.StatusCode, body)
	}
	if got := reg.Counter("solve.count").Value(); got != during {
		t.Errorf("warm repeat solved again: %d -> %d", during, got)
	}
}

// TestDeadline504NoLeak: a request whose deadline expires while queued
// behind a busy worker returns 504 — and the server sheds it without
// leaking a goroutine. The worker slot is occupied directly (the
// admission pool is a buffered channel) so the test does not depend on
// timing a concurrent slow solve.
func TestDeadline504NoLeak(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	cfg.QueueDepth = 4
	s, ts := newTestServer(t, cfg)
	reg := s.Runner().Telemetry()

	baseline := runtime.NumGoroutine()

	// Occupy the single worker slot.
	s.admit.workers <- struct{}{}

	// This request can only wait in the queue; its 1ms deadline fires
	// there.
	resp, body := post(t, ts.URL+"/v1/solve", SolveRequest{Bench: "fft", Kind: "dist2", TimeoutMS: 1})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, body)
	}
	if reg.Counter("server.timeouts").Value() == 0 {
		t.Errorf("server.timeouts not incremented")
	}

	// Releasing the slot lets the abandoned flight observe its cancelled
	// context and exit; every goroutine the request spawned must wind
	// down. Keep-alive connection goroutines (client read/write loops
	// and the server's conn handler) are torn down explicitly so only a
	// leaked flight can keep the count elevated.
	<-s.admit.workers
	waitFor(t, func() bool {
		http.DefaultClient.CloseIdleConnections()
		return runtime.NumGoroutine() <= baseline+2
	})
}

// TestOverload429: with the queue full, new work is rejected
// immediately with Retry-After. The queue is filled directly so the
// rejection is deterministic.
func TestOverload429(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	cfg.QueueDepth = 1
	s, ts := newTestServer(t, cfg)
	reg := s.Runner().Telemetry()

	s.admit.queue <- struct{}{}
	defer func() { <-s.admit.queue }()

	resp, body := post(t, ts.URL+"/v1/solve", SolveRequest{Bench: "fft", Kind: "dist2"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d (%s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Errorf("429 without Retry-After")
	}
	if reg.Counter("server.rejected").Value() == 0 {
		t.Errorf("server.rejected not incremented")
	}
}

// TestMetricsEndpoints checks both exposition formats and pins the
// registered metric-name surface after the CI smoke sequence
// (healthz, one dist4 solve, metrics) against
// testdata/golden/metrics_names_server.txt.
func TestMetricsEndpoints(t *testing.T) {
	_, ts := newTestServer(t, testConfig())

	if resp, _ := http.Get(ts.URL + "/healthz"); resp != nil {
		resp.Body.Close()
	}
	resp, body := post(t, ts.URL+"/v1/solve", SolveRequest{Bench: "fft", Kind: "dist4"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d %s", resp.StatusCode, body)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var rep telemetry.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rep.Metrics.Counters["server.requests"] == 0 {
		t.Errorf("server.requests missing from snapshot")
	}

	golden, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", "metrics_names_server.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.TrimSpace(string(golden))
	got := strings.Join(rep.Metrics.Names(), "\n")
	if got != want {
		t.Errorf("metric names diverge from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	resp, err = http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("prom content type %q", ct)
	}
	for _, want := range []string{"# TYPE server_requests counter", "server_request_ms_bucket{le=\"+Inf\"}"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("prom output missing %q", want)
		}
	}
}

// TestLatencyBucketsResolveWarmPath pins the sub-millisecond end of
// both request-latency layouts: a 0.03 ms observation, typical of a
// warm request, lands in the le="0.05" bucket.
func TestLatencyBucketsResolveWarmPath(t *testing.T) {
	for name, buckets := range map[string][]float64{
		"server.request_ms": RequestMSBuckets,
		"load.request_ms":   loadMSBuckets,
	} {
		reg := telemetry.NewRegistry()
		reg.Histogram(name, buckets...).Observe(0.03)
		for _, b := range reg.Snapshot().Histograms[name].Buckets {
			if b.Count != 0 && b.LE != "0.05" {
				t.Errorf("%s: 0.03 ms landed in le=%q, want le=\"0.05\"", name, b.LE)
			}
			if b.LE == "0.05" && b.Count != 1 {
				t.Errorf("%s: le=\"0.05\" holds %d observations, want 1", name, b.Count)
			}
		}
	}
}

// TestLoadGenerator drives RunLoad against an in-process server: zero
// failures and sane percentiles.
func TestLoadGenerator(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	res, err := RunLoad(context.Background(), LoadOptions{
		BaseURL:     ts.URL,
		Requests:    60,
		Concurrency: 8,
		Mix: []SolveRequest{
			{Bench: "fft", Kind: "dist2"},
			{Bench: "fft", Kind: "base", QAP: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 60 || res.Failures != 0 {
		t.Fatalf("load result: %+v", res)
	}
	if res.P50MS < 0 || res.P99MS < res.P50MS {
		t.Errorf("percentiles out of order: %+v", res)
	}
	if !strings.Contains(res.String(), "p99") {
		t.Errorf("summary line: %q", res.String())
	}
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}

// TestGracefulShutdown: Serve drains an in-flight request before
// returning.
func TestGracefulShutdown(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	addrCh := make(chan string, 1)
	served := make(chan error, 1)
	go func() {
		served <- s.Serve(ctx, "127.0.0.1:0", 5*time.Second, func(a string) { addrCh <- a })
	}()
	addr := <-addrCh

	reqDone := make(chan int, 1)
	go func() {
		blob, _ := json.Marshal(SolveRequest{Bench: "fft", Kind: "dist2"})
		resp, err := http.Post(fmt.Sprintf("http://%s/v1/solve", addr), "application/json", bytes.NewReader(blob))
		if err != nil {
			reqDone <- 0
			return
		}
		resp.Body.Close()
		reqDone <- resp.StatusCode
	}()
	// The request counter increments at handler entry, so it is
	// monotonic and observable even if the request finishes before the
	// poller runs; either way the drain must deliver a 200.
	waitFor(t, func() bool { return s.Runner().Telemetry().Counter("server.requests").Value() >= 1 })
	cancel()
	if code := <-reqDone; code != http.StatusOK {
		t.Errorf("in-flight request during shutdown: status %d, want 200", code)
	}
	if err := <-served; err != nil {
		t.Errorf("Serve returned %v", err)
	}
}

func TestEvaluateLossModel(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	req := EvaluateRequest{Bench: "fft", Policy: "dist2"}
	resp, avgBody := post(t, ts.URL+"/v1/evaluate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, avgBody)
	}
	// The default accounting must not grow a loss_model field — older
	// clients see byte-identical bodies.
	if bytes.Contains(avgBody, []byte("loss_model")) {
		t.Fatalf("default evaluate body mentions loss_model: %s", avgBody)
	}
	req.LossModel = "worst"
	resp, wcBody := post(t, ts.URL+"/v1/evaluate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("loss_model=worst status %d: %s", resp.StatusCode, wcBody)
	}
	var avg, wc EvaluateResponse
	if err := json.Unmarshal(avgBody, &avg); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(wcBody, &wc); err != nil {
		t.Fatal(err)
	}
	if wc.LossModel != "worst" {
		t.Errorf("loss_model echo %q, want worst", wc.LossModel)
	}
	// Longest-path pricing charges every destination the worst path, so
	// it strictly dominates per-destination pricing.
	if wc.TotalWatts <= avg.TotalWatts {
		t.Errorf("worst-case watts %g <= average %g", wc.TotalWatts, avg.TotalWatts)
	}
	if wc.BaseWatts <= avg.BaseWatts {
		t.Errorf("worst-case base watts %g <= average %g", wc.BaseWatts, avg.BaseWatts)
	}
	// An explicit average spelling is the default accounting.
	req.LossModel = "average"
	resp, explBody := post(t, ts.URL+"/v1/evaluate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("loss_model=average status %d: %s", resp.StatusCode, explBody)
	}
	if !bytes.Equal(explBody, avgBody) {
		t.Errorf("explicit average body differs from default:\n%s\n%s", explBody, avgBody)
	}
	// Unknown models are rejected up front.
	req.LossModel = "median"
	resp, body := post(t, ts.URL+"/v1/evaluate", req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("loss_model=median status %d (%s), want 400", resp.StatusCode, body)
	}
}

// TestResponseWireFormat pins the JSON key names and order of every
// response that embeds BreakdownDTO: the DTO dedup (and any future
// field shuffle) must not move a byte on the wire.
func TestResponseWireFormat(t *testing.T) {
	dto := BreakdownDTO{SourceUW: 1, OEUW: 2, ElecUW: 3}
	for _, tc := range []struct {
		name string
		v    any
		want string
	}{
		{
			"solve", &SolveResponse{
				Bench: "fft", Kind: "dist4", QAP: true, BreakdownDTO: dto,
				TotalWatts: 4, BaseWatts: 5, Normalized: 6,
			},
			`{"bench":"fft","kind":"dist4","qap":true,"source_uw":1,"oe_uw":2,"electrical_uw":3,"total_watts":4,"base_watts":5,"normalized":6}`,
		},
		{
			"evaluate", &EvaluateResponse{
				Bench: "fft", Policy: "base", QAP: false, Scale: 1,
				TotalWatts: 4, BaseWatts: 5, MNoCCycles: 6, RNoCCycles: 7, Speedup: 8,
			},
			`{"bench":"fft","policy":"base","qap":false,"scale":1,"total_watts":4,"base_watts":5,"mnoc_cycles":6,"rnoc_cycles":7,"speedup":8}`,
		},
		{
			"evaluate-worst", &EvaluateResponse{
				Bench: "fft", Policy: "base", QAP: false, Scale: 1, LossModel: "worst",
				TotalWatts: 4, BaseWatts: 5, MNoCCycles: 6, RNoCCycles: 7, Speedup: 8,
			},
			`{"bench":"fft","policy":"base","qap":false,"scale":1,"loss_model":"worst","total_watts":4,"base_watts":5,"mnoc_cycles":6,"rnoc_cycles":7,"speedup":8}`,
		},
		{
			"adapt-evaluate", &AdaptEvaluateResponse{
				Bench: "fft", Generation: 9, TotalWatts: 4, BreakdownDTO: dto,
			},
			`{"bench":"fft","generation":9,"total_watts":4,"source_uw":1,"oe_uw":2,"electrical_uw":3}`,
		},
	} {
		blob, err := json.Marshal(tc.v)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if string(blob) != tc.want {
			t.Errorf("%s wire format drifted:\n got %s\nwant %s", tc.name, blob, tc.want)
		}
	}
}

// TestWriteJSON drives writeJSON for a response type and a generic
// value and checks status, content type and body bytes against
// MarshalIndent plus the Encoder's trailing newline.
func TestWriteJSON(t *testing.T) {
	for name, v := range map[string]any{
		"evaluate": &EvaluateResponse{Bench: "fft", Policy: "comm4", Scale: 1,
			TotalWatts: 1.5, BaseWatts: 3, MNoCCycles: 10, RNoCCycles: 25, Speedup: 2.5},
		"generic": map[string]string{"status": "ok"},
	} {
		rec := httptest.NewRecorder()
		writeJSON(rec, 200, v)
		if rec.Code != 200 {
			t.Errorf("%s: status %d", name, rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: content type %q", name, ct)
		}
		want, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if got := rec.Body.String(); got != string(want)+"\n" {
			t.Errorf("%s: body drifted:\n got: %q\nwant: %q", name, got, want)
		}
	}
}
