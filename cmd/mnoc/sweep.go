package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"mnoc/internal/exp"
	"mnoc/internal/fleet"
	"mnoc/internal/runner"
	"mnoc/internal/runner/artifact"
	"mnoc/internal/runner/pool"
	"mnoc/internal/telemetry"
)

// sweepCmd is the sweep coordinator (docs/FLEET.md). Locally it runs
// the bench path — the experiment entries on the runner's worker pool,
// then, optionally, one fault sweep over -fault-scales. With -addr it
// shards the entries one unit each across live backends and merges the
// partial tables deterministically. Either way the tables on stdout
// are byte-identical to a single-process `mnoc bench` run of the same
// entries: tables go to stdout, everything else to stderr, so
// `mnoc sweep | diff - golden` is the acceptance check.
func sweepCmd(args []string) {
	fs := flag.NewFlagSet("mnoc sweep", flag.ExitOnError)
	var (
		which      = fs.String("exp", "all", "experiment id, 'all' (paper artefacts), 'ext' (extensions), or 'everything' (ids: "+idList()+")")
		scale      = fs.String("scale", "paper", "paper (radix-256) or quick (radix-64)")
		seed       = fs.Int64("seed", 1, "random seed for workloads and heuristics")
		workers    = fs.Int("workers", 4, "sweep worker count (each worker runs one unit at a time)")
		cacheDir   = fs.String("cache-dir", "", "persistent artifact cache directory")
		configPath = fs.String("config", "", "JSON runner config file; explicitly-set flags override it")
		addrs      = fs.String("addr", "", "comma-separated backend base URLs: run units remotely via POST /v1/bench instead of in-process")
		storeURL   = fs.String("artifact-store", "", "remote artifact store base URL (a backend running -artifact-serve)")
		faultStr   = fs.String("fault-scales", "", "comma-separated fault-rate multipliers to sweep as extra units (local mode only)")
		faultBench = fs.String("fault-bench", "syn_uniform", "workload for -fault-scales")
		faultN     = fs.Int("fault-n", 16, "crossbar radix for -fault-scales")
		timeoutMS  = fs.Int64("timeout-ms", 300_000, "client-side per-unit timeout for remote units")
	)
	tf := addTelemetryFlags(fs)
	fs.Parse(args)

	entries, err := pickEntries(*which)
	if err != nil {
		fail("sweep", err)
	}
	var faultScales []float64
	if *faultStr != "" {
		faultScales, err = parseScales(*faultStr)
		if err != nil {
			fail("sweep", err)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	startPprof("sweep", *tf.pprofAddr)
	begin := time.Now()

	if *addrs != "" {
		if len(faultScales) > 0 {
			fail("sweep", fmt.Errorf("-fault-scales needs local execution; drop -addr"))
		}
		sweepRemote(ctx, entries, splitList(*addrs), *storeURL, *workers,
			time.Duration(*timeoutMS)*time.Millisecond, tf, begin)
		return
	}
	sweepLocal(ctx, entries, faultScales, *faultBench, *faultN,
		sweepRunnerConfig(*configPath, fs, *scale, *seed, *cacheDir, *storeURL),
		*workers, tf, begin)
}

// sweepRunnerConfig resolves the runner config the same way benchCmd
// does: config file first, explicitly-set flags override.
func sweepRunnerConfig(configPath string, fs *flag.FlagSet, scale string, seed int64, cacheDir, storeURL string) runner.Config {
	cfg, err := loadBase(configPath)
	if err != nil {
		fail("sweep", err)
	}
	cfg.FailFast = true
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "scale":
			cfg.Scale = scale
			cfg.Options = nil
		case "seed":
			cfg.Seed = seed
		case "cache-dir":
			cfg.CacheDir = cacheDir
		}
	})
	if storeURL != "" {
		remote := fleet.NewRemote(storeURL)
		warnIfUnreachable("sweep", remote)
		cfg.Store = remote
	}
	return cfg
}

// sweepLocal runs the bench path in-process: one runner, its worker
// pool sized by -workers, the entries' tables rendered in entry order
// and, with -fault-scales, one fault sweep over every scale.
func sweepLocal(ctx context.Context, entries []exp.Entry, faultScales []float64,
	faultBench string, faultN int, cfg runner.Config, workers int, tf *telemetryFlags, begin time.Time) {
	cfg.Workers = workers
	r, err := runner.New(cfg)
	if err != nil {
		fail("sweep", err)
	}
	fmt.Fprintf(os.Stderr, "mnoc sweep: mode=local radix=%d seed=%d entries=%d fault-scales=%d workers=%d\n",
		r.Options().N, r.Options().Seed, len(entries), len(faultScales), r.Workers())
	if err := r.Precompute(ctx); err != nil {
		fail("sweep", err)
	}
	tables, err := r.RunEntries(ctx, entries)
	if err != nil {
		fail("sweep", err)
	}
	var merged bytes.Buffer
	for _, t := range tables {
		if err := t.Fprint(&merged); err != nil {
			fail("sweep", fmt.Errorf("rendering table %s: %w", t.ID, err))
		}
	}
	if _, err := os.Stdout.Write(merged.Bytes()); err != nil {
		fail("sweep", err)
	}
	if len(faultScales) > 0 {
		fc := runner.DefaultFaultConfig()
		fc.Scales = faultScales
		fc.Bench = faultBench
		fc.N = faultN
		fc.Seed = r.Options().Seed
		res, err := r.FaultSweep(ctx, fc)
		if err != nil {
			fail("sweep", err)
		}
		if err := res.Render(os.Stdout, false); err != nil {
			fail("sweep", err)
		}
	}
	storeSweepArtifact(r.Store(), entries, faultScales, r.Options().N, r.Options().Seed, merged.Bytes())
	meta := map[string]any{
		"subcommand": "sweep", "mode": "local", "radix": r.Options().N,
		"seed": r.Options().Seed, "entries": len(entries), "fault_scales": len(faultScales),
		"workers": r.Workers(), "wall_ms": time.Since(begin).Milliseconds(),
	}
	if err := writeTelemetry(r.Telemetry(), r.Tracer(), *tf.metricsOut, *tf.traceOut, meta); err != nil {
		fail("sweep", err)
	}
	fmt.Fprintln(os.Stderr, "mnoc sweep:", r.Summary())
}

// sweepRemote shards the entries across live backends, one unit per
// entry on a fail-fast worker pool; each unit POSTs /v1/bench and
// renders the returned tables locally, so the merged bytes match the
// local path exactly. The worker index picks the endpoint, so the pool
// doubles as the load balancer.
func sweepRemote(ctx context.Context, entries []exp.Entry, endpoints []string,
	storeURL string, workers int, timeout time.Duration, tf *telemetryFlags, begin time.Time) {
	if len(endpoints) == 0 {
		fail("sweep", fmt.Errorf("-addr parsed to an empty endpoint list"))
	}
	ids := make([]string, len(entries))
	for i, e := range entries {
		ids[i] = e.ID
	}
	reg := telemetry.NewRegistry()
	fleet.RegisterMetrics(reg)
	fmt.Fprintf(os.Stderr, "mnoc sweep: mode=remote endpoints=%d units=%d workers=%d\n",
		len(endpoints), len(ids), workers)
	for _, ep := range endpoints {
		fmt.Fprintf(os.Stderr, "mnoc sweep:   endpoint %s\n", ep)
	}

	units := fleet.RemoteEntryUnits(ids, endpoints, timeout)
	outs := make([][]byte, len(units))
	unitsC := reg.Counter(fleet.MetricSweepUnits)
	steals, err := pool.Run(ctx, len(units), workers, true, reg, func(ctx context.Context, worker, i int) error {
		out, err := units[i].Run(ctx, worker)
		unitsC.Inc()
		if err != nil {
			return fmt.Errorf("sweep unit %s: %w", units[i].ID, err)
		}
		outs[i] = out
		return nil
	})
	reg.Counter(fleet.MetricSweepSteals).Add(uint64(steals))
	if err != nil {
		fail("sweep", err)
	}
	merged := fleet.Merge(outs)
	if _, err := os.Stdout.Write(merged); err != nil {
		fail("sweep", err)
	}
	if storeURL != "" {
		remote := fleet.NewRemote(storeURL)
		warnIfUnreachable("sweep", remote)
		remote.Instrument(reg)
		storeSweepArtifact(remote, entries, nil, 0, 0, merged)
	}
	fmt.Fprintf(os.Stderr, "mnoc sweep: units=%d steals=%d\n", unitsC.Value(), steals)
	if err := writeTelemetry(reg, telemetry.NewTracer(1), *tf.metricsOut, *tf.traceOut, map[string]any{
		"subcommand": "sweep", "mode": "remote", "endpoints": len(endpoints),
		"units": len(ids), "workers": workers,
		"wall_ms": time.Since(begin).Milliseconds(),
	}); err != nil {
		fail("sweep", err)
	}
}

// storeSweepArtifact writes the merged sweep output as one
// content-addressed artifact and reports its key, so a fleet's sweep
// results are fetchable by content from the shared store.
func storeSweepArtifact(store artifact.Store, entries []exp.Entry, faultScales []float64, n int, seed int64, merged []byte) {
	ids := make([]string, len(entries))
	for i, e := range entries {
		ids[i] = e.ID
	}
	key := artifact.NewKey(artifact.KindSweep, artifact.VersionSweep).
		Str("ids", strings.Join(ids, ",")).
		Int("n", n).
		Int64("seed", seed).
		Floats("fault_scales", faultScales).
		Sum()
	if err := store.Put(key, artifact.EncodeSweep(merged)); err != nil {
		fmt.Fprintln(os.Stderr, "mnoc sweep: storing merged artifact:", err)
		return
	}
	where := "memory"
	if loc, ok := artifact.Unwrap(store).(artifact.Locator); ok {
		where = loc.Location()
	}
	fmt.Fprintf(os.Stderr, "mnoc sweep: merged artifact %s (%s)\n", key, where)
}

// warnIfUnreachable pings the remote artifact store at startup: a
// typoed URL should warn loudly instead of silently degrading every
// read to a miss.
func warnIfUnreachable(sub string, remote *fleet.Remote) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := remote.Ping(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "mnoc %s: warning: %v (store degrades to miss-only)\n", sub, err)
	}
}
