// Command mnoc is the single entry point to the reproduction: every
// former mnoc-* tool is a subcommand sharing one execution engine
// (internal/runner) and, with -cache-dir, one persistent artifact
// cache.
//
// Usage:
//
//	mnoc bench [-exp all|ext|everything|<id>] [-scale paper|quick] [-seed N]
//	           [-json] [-csv dir] [-workers N] [-cache-dir dir] [-config f.json]
//	           [-metrics-out m.json] [-trace-out t.json] [-pprof addr]
//	mnoc power -i trace.trc | -matrix m.csv [-kind base|cluster2|comm2|comm4|dist2|dist4]
//	           [-qap] [-cache-dir dir]
//	mnoc topo  [-n 64] [-bench water_s] [-kind base|cluster2|comm2|comm4|dist2|dist4]
//	           [-qap] [-export f] [-cache-dir dir]
//	mnoc compare [-bench water_s] [-loss average|worst] [-scale paper|quick]
//	           [-seed N] [-qap] [-workers N] [-cache-dir dir] [-config f.json]
//	mnoc trace gen|info [flags]
//	mnoc sim   [-bench fft] [-n 64] [-net mnoc|rnoc|cmnoc] [-accesses N]
//	           [-metrics-out m.json] [-trace-out t.json] [-pprof addr]
//	mnoc fault [-n 16] [-bench syn_uniform] [-scales 0,0.5,1,2,4] [-workers N]
//	           [-cache-dir dir] [-config f.json]
//	           [-metrics-out m.json] [-trace-out t.json] [-pprof addr]
//	mnoc serve [-addr :8080] [-scale paper|quick] [-seed N] [-workers N] [-queue N]
//	           [-cache-dir dir] [-config f.json] [-default-timeout-ms N]
//	           [-max-timeout-ms N] [-drain-ms N] [-fail-fast]
//	           [-adapt -adapt-trace f.trace [-adapt-window N] [-adapt-speed cps]
//	            [-adapt-guard-db dB] [-adapt-faults sched.txt]]
//	           [-artifact-serve] [-artifact-store url]
//	mnoc proxy -backends url1,url2[,...] [-addr :8090] [-replicas N]
//	           [-health-interval-ms N] [-failovers N] [-drain-ms N]
//	mnoc sweep [-exp all|ext|everything|<id>] [-scale paper|quick] [-seed N]
//	           [-workers N] [-cache-dir dir] [-addr url1,url2] [-artifact-store url]
//	           [-fault-scales 0,1,2 [-fault-bench b] [-fault-n N]] [-timeout-ms N]
//	mnoc load  [-url http://localhost:8080] [-addr url1,url2] [-requests N]
//	           [-concurrency N] [-bench b [-kind k] [-qap]] [-timeout-ms N]
//	           [-retries N] [-retry-seed N]
//	mnoc replay -trace f.trace [-window N] [-seed N] [-faults sched.txt] [-speed cps]
//	            [-log out.txt] | -gen [-out f.trace] [-n 16] [-phases b:cyc:flits,...]
//
// serve exposes the engine over HTTP/JSON (docs/SERVER.md): POST
// /v1/solve, /v1/evaluate and /v1/bench behind bounded admission,
// per-request deadlines and request coalescing, plus GET /healthz,
// /version and /metrics (?format=prom for Prometheus text). load is
// its companion load generator. With -adapt, serve also runs the
// online adaptation loop (docs/ADAPT.md) and exposes GET /v1/adapt and
// POST /v1/adapt/evaluate; replay is its offline twin.
//
// The fleet trio (docs/FLEET.md): proxy consistent-hashes flight keys
// across replicas so identical requests coalesce at one backend;
// serve -artifact-serve exposes the artifact store over HTTP so
// replicas (-artifact-store) share one warm cache; sweep runs the bench
// path locally, or shards it across live backends, and its tables are
// byte-identical to a single-process run either way.
//
// The observability trio (docs/TELEMETRY.md): -metrics-out writes the
// end-of-run counters/gauges/histograms as JSON, -trace-out writes the
// recorded spans (.jsonl = JSON Lines, otherwise Chrome trace JSON for
// chrome://tracing), -pprof serves net/http/pprof while running.
//
// Run `mnoc <subcommand> -h` for the full flag set of each.
package main

import (
	"fmt"
	"os"
	"strings"

	"mnoc/internal/core"
)

// commands maps each subcommand to its implementation and one-line
// summary, in help order.
var commands = []struct {
	name    string
	summary string
	run     func(args []string)
}{
	{"bench", "regenerate the paper's tables and figures", benchCmd},
	{"power", "evaluate a trace or matrix under a power topology", powerCmd},
	{"topo", "design a power topology and print its layout", topoCmd},
	{"compare", "compare power topologies under average vs worst-case loss", compareCmd},
	{"trace", "generate and inspect packet traces (gen | info)", traceCmd},
	{"sim", "run the trace-driven multicore simulation", simCmd},
	{"fault", "sweep fault intensity and report the degradation curve", faultCmd},
	{"serve", "run the HTTP/JSON evaluation service", serveCmd},
	{"proxy", "front a fleet of replicas with flight-key-affine routing", proxyCmd},
	{"sweep", "shard a design-space sweep over workers and merge deterministically", sweepCmd},
	{"load", "load-test a running server and report latency percentiles", loadCmd},
	{"replay", "replay a recorded trace through the online adaptation loop (or -gen one)", replayCmd},
}

func main() {
	if len(os.Args) < 2 {
		usage(2)
	}
	name, args := os.Args[1], os.Args[2:]
	switch name {
	case "help", "-h", "-help", "--help":
		usage(0)
	}
	for _, c := range commands {
		if c.name == name {
			c.run(args)
			return
		}
	}
	fmt.Fprintf(os.Stderr, "mnoc: unknown subcommand %q\n\n", name)
	usage(2)
}

func usage(code int) {
	w := os.Stderr
	if code == 0 {
		w = os.Stdout
	}
	fmt.Fprintln(w, "usage: mnoc <subcommand> [flags]")
	fmt.Fprintln(w)
	for _, c := range commands {
		fmt.Fprintf(w, "  %-7s %s\n", c.name, c.summary)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "run 'mnoc <subcommand> -h' for flags")
	os.Exit(code)
}

// kindUsage is the -kind help of `mnoc power` and `mnoc topo`: the
// registry's design kinds (core.KindSpec).
var kindUsage = "design kind, one of: " + strings.Join(core.Kinds(), ", ")

// fail prints a subcommand-scoped error and exits.
func fail(sub string, err error) {
	fmt.Fprintf(os.Stderr, "mnoc %s: %v\n", sub, err)
	os.Exit(1)
}
