package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"time"

	"mnoc/internal/core"
	"mnoc/internal/server"
)

// loadCmd drives a running `mnoc serve` with concurrent /v1/solve
// requests and reports throughput plus latency percentiles — the
// acceptance harness for the admission controller, coalescing and the
// artifact cache under concurrency. Any non-200 response counts as a
// failure and makes the command exit 1.
func loadCmd(args []string) {
	fs := flag.NewFlagSet("mnoc load", flag.ExitOnError)
	var (
		url         = fs.String("url", "http://localhost:8080", "base URL of the running server")
		addrList    = fs.String("addr", "", "comma-separated base URLs; requests round-robin across them (wins over -url)")
		requests    = fs.Int("requests", 1000, "total request count")
		concurrency = fs.Int("concurrency", 32, "in-flight requests")
		bench       = fs.String("bench", "", "single-benchmark mix: send only this workload (default: the built-in three-way mix)")
		kind        = fs.String("kind", core.KindComm4, kindUsage+" (with -bench)")
		qap         = fs.Bool("qap", false, "request QAP thread mapping for -bench")
		timeoutMS   = fs.Int64("timeout-ms", 60_000, "client-side per-request timeout")
		retries     = fs.Int("retries", 3, "max retries of a 429 response, honouring Retry-After plus jitter (0 = fail immediately)")
		retrySeed   = fs.Int64("retry-seed", 1, "seed for the retry jitter, for reproducible load runs")
	)
	fs.Parse(args)

	opts := server.LoadOptions{
		BaseURL:     *url,
		Requests:    *requests,
		Concurrency: *concurrency,
		Timeout:     time.Duration(*timeoutMS) * time.Millisecond,
		Retries:     *retries,
		RetrySeed:   *retrySeed,
	}
	if *addrList != "" {
		opts.BaseURLs = splitList(*addrList)
	}
	if *bench != "" {
		opts.Mix = []server.SolveRequest{{Bench: *bench, Kind: *kind, QAP: *qap}}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// Identify each target before firing: /version says whether it is a
	// single replica or a fleet proxy (and how wide its ring is), so a
	// load report is attributable to the thing it actually hit.
	targets := opts.BaseURLs
	if len(targets) == 0 {
		targets = []string{opts.BaseURL}
	}
	for _, base := range targets {
		fmt.Println("mnoc load:", describeTarget(ctx, base))
	}
	res, err := server.RunLoad(ctx, opts)
	if err != nil {
		fail("load", err)
	}
	fmt.Println("mnoc load:", res)
	statuses := make([]int, 0, len(res.Statuses))
	for s := range res.Statuses {
		statuses = append(statuses, s)
	}
	sort.Ints(statuses)
	for _, s := range statuses {
		label := fmt.Sprintf("HTTP %d", s)
		if s == 0 {
			label = "transport error"
		}
		fmt.Printf("mnoc load:   %-15s %d\n", label, res.Statuses[s])
	}
	if res.Retries > 0 {
		fmt.Printf("mnoc load:   %-15s %d\n", "retried 429s", res.Retries)
	}
	if res.Failures > 0 {
		fail("load", fmt.Errorf("%d of %d requests failed", res.Failures, res.Requests))
	}
}

// describeTarget probes one base URL's /version. Unreachable or
// role-less (older) servers degrade to a plain line rather than
// failing the run — the load itself is the real check.
func describeTarget(ctx context.Context, base string) string {
	reqCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(reqCtx, http.MethodGet, base+"/version", nil)
	if err != nil {
		return fmt.Sprintf("target %s", base)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Sprintf("target %s (unreachable: %v)", base, err)
	}
	defer resp.Body.Close()
	var ver struct {
		Role string `json:"role"`
		Ring int    `json:"ring"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ver); err != nil || ver.Role == "" {
		return fmt.Sprintf("target %s", base)
	}
	return fmt.Sprintf("target %s role=%s ring=%d", base, ver.Role, ver.Ring)
}
