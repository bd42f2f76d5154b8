package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"mnoc/internal/exp"
	"mnoc/internal/runner"
	"mnoc/internal/telemetry"
	"mnoc/internal/workload"
)

// regenWorkers is the worker count of a cold pass: one per core of the
// 2-core reference host.
const regenWorkers = 2

// regenCounters are the Runner.Telemetry() counters reported per pass.
var regenCounters = []string{
	"solve.shapes", "solve.qap", "solve.networks", "solve.sims",
	"artifact.hit", "artifact.miss", "artifact.put",
	"sim.accesses", "sim.packets", "power.evaluations", "noc.replay.packets",
}

// regenStages are the pipeline spans of a pass, each the metric
// "<stage>_ms" (self time per pass).
var regenStages = []string{"workload.shape", "mapping.qap", "design.network", "sim.perf"}

// runRegen measures cold passes of every registry and extension entry:
// a fresh runner over an in-memory store builds the per-benchmark
// shapes and QAP mappings, the design networks and the Table 1
// simulations, then runs all entries on the worker pool and renders
// their tables. Every artifact is written, none is read back from the
// store. The seed orders the artifact builds and the entries.
func runRegen(cfg config) (*result, error) {
	ctx := context.Background()
	res := newResult()
	entries := append(exp.Registry(), exp.Extensions()...)
	rng := rand.New(rand.NewSource(cfg.seed))

	// Set-up: a runner with its precompute, which also grows the heap
	// to the size a pass needs before the first timed pass.
	var setups setupTimes
	for i := 0; i < setupReps; i++ {
		err := setups.timeSetup(cfg.ref, func() error {
			r, err := runner.New(regenConfig(cfg.opt))
			if err != nil {
				return err
			}
			return r.Precompute(ctx)
		})
		if err != nil {
			return nil, err
		}
	}

	rec := newRecorder()
	var busy []float64
	var counters map[string]uint64
	plain, traced, err := rounds(cfg, 1, 1, func(_ int, tr bool) (*opStats, error) {
		var pr *recorder
		if tr {
			pr = rec
		}
		p, err := regenPass(ctx, cfg.opt, entries, rng, pr)
		if err != nil {
			return nil, err
		}
		res.op(checkRegen(cfg.expect, entries, p.rendered))
		if tr {
			busy = append(busy, p.busyFrac)
			counters = p.counters
		}
		return serialOp(p.dur, p.cpu, p.allocBytes), nil
	})
	if err != nil {
		return nil, err
	}

	res.measured(plain, traced, &setups, cfg)
	res.aliases["regen_s"] = res.e2e["wall.op_p50_ms"] / 1000
	if cfg.traced {
		res.spans = rec.all()
		res.table = layerTable(res.spans)
		res.tableWall = traced.busy
		rows := rowByName(res.table)
		n := float64(len(traced.durs))
		for _, s := range regenStages {
			res.layers[s+"_ms"] = ms(rows[s].Self) / n
		}
		for _, e := range entries {
			res.layers["entry."+e.ID+"_ms"] = ms(rows["entry."+e.ID].Self) / n
		}
		res.layers["runner.busy_frac"] = median(busy)
		for _, c := range regenCounters {
			res.layers[c] = float64(counters[c])
		}
	}
	return res, nil
}

func regenConfig(opt exp.Options) runner.Config {
	return runner.Config{Options: &opt, Workers: regenWorkers}
}

// regenOut is one pass's outputs and measurements.
type regenOut struct {
	dur, cpu   time.Duration
	allocBytes uint64
	rendered   [][]byte // each entry's table, in entry order
	busyFrac   float64
	counters   map[string]uint64
}

// regenPass runs one cold pass. rec, when non-nil, records its spans.
func regenPass(ctx context.Context, opt exp.Options, entries []exp.Entry, rng *rand.Rand, rec *recorder) (*regenOut, error) {
	benches := workload.Names()
	var kinds []string
	for _, k := range exp.DesignKinds() {
		if k != exp.DesignBase {
			kinds = append(kinds, k)
		}
	}
	order := rng.Perm(len(entries))
	perms := make([][]int, len(regenStages))
	for i, s := range regenStages {
		n := len(benches)
		if s == "design.network" {
			n = len(kinds)
		}
		perms[i] = rng.Perm(n)
	}

	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	root := rec.start(0, "regen.pass", "")
	var epoch time.Duration
	if rec != nil {
		epoch = time.Since(rec.epoch)
	}
	sp := rec.start(root.id, "runner.new", "")
	r, err := runner.New(regenConfig(opt))
	sp.end()
	if err != nil {
		return nil, err
	}
	c := r.Context()
	calls := map[string]func(string) error{
		"workload.shape": func(b string) error { _, err := c.Shape(ctx, b); return err },
		"mapping.qap":    func(b string) error { _, err := c.QAPMapping(ctx, b); return err },
		"design.network": func(k string) error { _, err := c.DesignNetwork(ctx, k); return err },
		"sim.perf":       func(b string) error { _, _, err := c.Performance(ctx, b); return err },
	}
	for i, s := range regenStages {
		keys := benches
		if s == "design.network" {
			keys = kinds
		}
		jobs := make([]func() error, len(keys))
		for j, p := range perms[i] {
			k, call, stage := keys[p], calls[s], s
			jobs[j] = func() error {
				sp := rec.start(root.id, stage, k)
				defer sp.end()
				if err := call(k); err != nil {
					return fmt.Errorf("%s %s: %w", stage, k, err)
				}
				return nil
			}
		}
		if err := onWorkers(regenWorkers, jobs); err != nil {
			return nil, err
		}
	}
	shuffled := make([]exp.Entry, len(entries))
	for i, p := range order {
		shuffled[i] = entries[p]
	}
	es := rec.start(root.id, "runner.entries", "")
	tables, err := r.RunEntries(ctx, shuffled)
	entriesDur := es.end()
	if err != nil {
		return nil, err
	}
	sp = rec.start(root.id, "tables.render", "")
	rendered := make([][]byte, len(entries))
	for i, p := range order {
		var b bytes.Buffer
		if err := tables[i].Fprint(&b); err != nil {
			return nil, err
		}
		rendered[p] = b.Bytes()
	}
	sp.end()
	dur := root.end()
	cpu := cpuTime() - cpu0
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	out := &regenOut{dur: dur, cpu: cpu, allocBytes: after.TotalAlloc - before.TotalAlloc, rendered: rendered}
	if rec != nil {
		var entryTime time.Duration
		rec.addProgram(r.Tracer(), epoch, func(s telemetry.Span) int64 {
			if s.Component == "runner" && strings.HasPrefix(s.Name, "entry.") {
				entryTime += time.Duration(s.DurUS) * time.Microsecond
				return es.id
			}
			return -1
		})
		out.busyFrac = entryTime.Seconds() / (regenWorkers * entriesDur.Seconds())
		out.counters = r.Telemetry().Snapshot().Counters
	}
	return out, nil
}

// checkRegen compares a pass's tables with the golden registry tables
// and the committed extension digests.
func checkRegen(want *expected, entries []exp.Entry, rendered [][]byte) string {
	var problems []string
	var registry []byte
	nReg := len(exp.Registry())
	for i, e := range entries {
		if i < nReg {
			registry = append(registry, rendered[i]...)
			continue
		}
		if p := want.check(e.ID, rendered[i]); p != "" {
			problems = append(problems, p)
		}
	}
	if p := want.checkGolden("registry tables", registry); p != "" {
		problems = append(problems, p)
	}
	return strings.Join(problems, "; ")
}
