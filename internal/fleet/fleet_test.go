package fleet

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"mnoc/internal/runner"
	"mnoc/internal/server"
)

// newRealBackend boots a full mnoc server (runner, flight group,
// admission) for fleet end-to-end tests.
func newRealBackend(t *testing.T) (*server.Server, *httptest.Server) {
	t.Helper()
	s, err := server.New(server.Config{
		Runner: runner.Config{Options: testOptions(), FailFast: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func solveCount(s *server.Server) uint64 {
	return s.Runner().Telemetry().Snapshot().Counters["solve.count"]
}

// TestFleetCoalescesExactlyOnce is the tentpole acceptance test: N
// identical concurrent requests through the proxy trigger exactly one
// solve FLEET-WIDE. The proxy pins the flight key to one replica;
// that replica's flight group and memo cache do the rest. The
// expected solve work is measured on a solo reference backend serving
// the same request once.
func TestFleetCoalescesExactlyOnce(t *testing.T) {
	solo, soloTS := newRealBackend(t)
	req := server.SolveRequest{Bench: "fft", Kind: "dist4", QAP: true}
	if resp, body := postJSON(t, soloTS.URL+"/v1/solve", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("solo solve: %d %s", resp.StatusCode, body)
	}
	want := solveCount(solo)
	if want == 0 {
		t.Fatal("solo reference run recorded no solves")
	}

	sA, tsA := newRealBackend(t)
	sB, tsB := newRealBackend(t)
	_, proxy := newTestProxy(t, ProxyConfig{Backends: []string{tsA.URL, tsB.URL}})

	const clients = 16
	var wg sync.WaitGroup
	errs := make([]string, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postJSON(t, proxy.URL+"/v1/solve", req)
			if resp.StatusCode != http.StatusOK {
				errs[i] = string(body)
			}
		}(i)
	}
	wg.Wait()
	for i, e := range errs {
		if e != "" {
			t.Fatalf("client %d failed: %s", i, e)
		}
	}
	got := solveCount(sA) + solveCount(sB)
	if got != want {
		t.Fatalf("fleet-wide solve.count = %d, want %d (one logical solve): coalescing leaked across replicas", got, want)
	}
}

// TestFleetSurvivesBackendDeathMidLoad is the second acceptance test:
// gracefully killing one backend while a load run streams through the
// proxy yields ZERO client-visible failures — the drain flips
// /healthz, the prober evicts, and connection errors fail over with
// the request body replayed.
func TestFleetSurvivesBackendDeathMidLoad(t *testing.T) {
	sA, tsA := newRealBackend(t)
	_, tsB := newRealBackend(t)
	_ = sA
	p, err := NewProxy(ProxyConfig{
		Backends:       []string{tsA.URL, tsB.URL},
		HealthInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	proxyTS := httptest.NewServer(p.Handler())
	t.Cleanup(proxyTS.Close)
	probeCtx, stopProbe := context.WithCancel(context.Background())
	defer stopProbe()
	go p.health.run(probeCtx, p.Ring().Backends())

	// Warm both replicas through the proxy first so the kill window
	// exercises routing, not cold solves.
	for _, m := range server.DefaultMix() {
		if resp, body := postJSON(t, proxyTS.URL+"/v1/solve", m); resp.StatusCode != http.StatusOK {
			t.Fatalf("warm-up: %d %s", resp.StatusCode, body)
		}
	}

	done := make(chan *server.LoadResult, 1)
	loadErr := make(chan error, 1)
	go func() {
		res, err := server.RunLoad(context.Background(), server.LoadOptions{
			BaseURL:     proxyTS.URL,
			Requests:    300,
			Concurrency: 4,
			Timeout:     30 * time.Second,
		})
		loadErr <- err
		done <- res
	}()

	// Kill backend A mid-load: drain (healthz 503 → prober evicts),
	// then close the listener so new connections are refused.
	time.Sleep(25 * time.Millisecond)
	sA.StartDrain()
	tsA.Close()

	if err := <-loadErr; err != nil {
		t.Fatal(err)
	}
	res := <-done
	if res.Failures != 0 {
		t.Fatalf("killing one backend surfaced %d client failures (statuses %v), want 0", res.Failures, res.Statuses)
	}
	if res.Requests != 300 {
		t.Fatalf("load sent %d requests, want 300", res.Requests)
	}
	snap := p.Telemetry().Snapshot()
	if snap.Counters[MetricProxyEvictions] == 0 {
		t.Error("dead backend was never evicted")
	}
}

// TestLoadRoundRobinsAcrossEndpoints pins the multi-endpoint loadgen
// path: with two base URLs, request i goes to URL i%2, so each backend
// sees exactly half the requests however the workers interleave.
func TestLoadRoundRobinsAcrossEndpoints(t *testing.T) {
	a, tsA := newStubBackend(t, "A")
	b, tsB := newStubBackend(t, "B")
	res, err := server.RunLoad(context.Background(), server.LoadOptions{
		BaseURLs:    []string{tsA.URL, tsB.URL},
		Requests:    20,
		Concurrency: 4,
		Timeout:     5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 0 {
		t.Fatalf("failures %d", res.Failures)
	}
	if a.count() != 10 || b.count() != 10 {
		t.Fatalf("round-robin load split A=%d B=%d, want 10/10", a.count(), b.count())
	}
}
