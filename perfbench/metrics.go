package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mnoc/internal/exp"
)

// metrics.json is the machine-readable metric table: every metric's
// unit, direction, the workloads that report it and, for a layer
// metric, the end-to-end metric and workload it should move.
// BENCHMARK.json carries the subset of it the driver reads.
//
//go:embed metrics.json
var specJSON []byte

const (
	endToEnd = "end_to_end"
	perLayer = "per_layer"
)

type spec struct {
	// Aliases are the end-to-end metrics under the names a user of one
	// workload knows them by (regen_s, serve_p99_us, ...). Each is the
	// gated metric it names, or a fixed multiple of it, on one workload.
	Aliases []metricSpec `json:"aliases"`
	Metrics []metricSpec `json:"metrics"`
}

type metricSpec struct {
	Name      string   `json:"name"`
	Kind      string   `json:"kind,omitempty"`
	Unit      string   `json:"unit"`
	Better    string   `json:"better"`
	Bound     float64  `json:"bound,omitempty"`
	Workloads []string `json:"workloads"`
	Moves     []move   `json:"moves,omitempty"`
}

type move struct {
	Metric   string `json:"metric"`
	Workload string `json:"workload"`
}

func loadSpec() (*spec, error) {
	var s spec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		return nil, fmt.Errorf("metrics.json: %w", err)
	}
	return &s, nil
}

// setupReps is how many times a workload sets up; setup_s is the
// median of their CPU times at reference speed.
const setupReps = 9

// cpuTime is the CPU time the process has used so far, user plus
// system, over all its threads. Unlike host time it leaves out the time
// the process waited for a CPU, taken by other tenants of a shared host
// (steal time) or by other processes.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// setupTimes are the host and CPU seconds of a workload's set-ups.
type setupTimes struct{ wall, cpu []float64 }

// timeSetup runs one set-up and records its times. The reference
// kernel runs before the first set-up only, so that the set-ups run
// back to back as a user's would.
func (s *setupTimes) timeSetup(ref *reference, setup func() error) error {
	if len(s.cpu) == 0 {
		ref.sample()
	}
	begin, c0 := time.Now(), cpuTime()
	if err := setup(); err != nil {
		return err
	}
	s.cpu = append(s.cpu, (cpuTime() - c0).Seconds())
	s.wall = append(s.wall, time.Since(begin).Seconds())
	return nil
}

// config is one run's settings.
type config struct {
	seed   int64
	window time.Duration
	traced bool
	// opt is the program's own experiment scale; its Seed stays the
	// program's, so the committed digests hold for every workload seed.
	opt    exp.Options
	expect *expected
	// ref is the reference kernel the gated times are scaled by, its
	// parts weighted by refServer; nil leaves them unscaled.
	ref       *reference
	refServer float64
}

// workloadDef is one benchmark workload.
type workloadDef struct {
	expectFile string
	// golden, when set, is the repository file the workload's
	// registry tables must match byte for byte.
	golden string
	opt    exp.Options
	run    func(config) (*result, error)
	// refServer is the weight of the reference kernel's server part
	// in the workload's scaling, the memory part's being 1 - refServer:
	// sim-paper is cache and directory lookups, serve-warm is a server,
	// and regen-quick runs simulations and solvers alike.
	refServer float64
}

var workloads = map[string]workloadDef{
	"regen-quick": {expectFile: "regen-quick.txt", golden: "testdata/golden/bench_quick.txt", opt: exp.Quick(), run: runRegen, refServer: 0.5},
	"sim-paper":   {expectFile: "sim-paper.txt", opt: exp.Paper(), run: runSim, refServer: 0},
	"serve-warm":  {expectFile: "serve-warm.txt", opt: exp.Quick(), run: runServe, refServer: 1},
}

// result is what a workload measured and checked.
type result struct {
	attempted, failed int
	failures          []string // the first few failed checks, for the log

	// e2e holds the end-to-end metrics of the untraced rounds and
	// e2eTraced those of the traced rounds (trace mode only); their
	// difference is the tracing overhead.
	e2e, e2eTraced map[string]float64
	// aliases are the workload's end-to-end metrics under their user
	// names, from the untraced rounds.
	aliases map[string]float64
	samples int

	// refMemory and refServer are the medians of the reference
	// kernel's parts over its refRuns runs, in CPU milliseconds and
	// microseconds of latency; refScale brings the run's times to
	// reference speed.
	refMemory, refServer, refScale float64
	refRuns                        int

	layers    map[string]float64
	table     []layerRow
	tableWall time.Duration
	spans     []span
}

func newResult() *result {
	return &result{
		e2e: map[string]float64{}, e2eTraced: map[string]float64{},
		aliases: map[string]float64{}, layers: map[string]float64{},
	}
}

// op counts one attempted operation and, when problem is non-empty,
// its failure.
func (r *result) op(problem string) {
	if problem == "" {
		r.ops(1, 0, nil)
		return
	}
	r.ops(1, 1, []string{problem})
}

// ops counts attempted operations, the failed ones among them and the
// failures' descriptions, of which the first few are kept.
func (r *result) ops(attempted, failed int, problems []string) {
	r.attempted += attempted
	r.failed += failed
	for _, p := range problems {
		if len(r.failures) < 10 {
			r.failures = append(r.failures, p)
		}
	}
}

// measured derives the end-to-end metrics from the untraced rounds
// and, in trace mode, from the traced ones, with the tracing overhead
// on the median op. Call it once every op is counted.
func (r *result) measured(plain, traced *opStats, setup *setupTimes, cfg config) {
	r.refScale = 1
	if ref := cfg.ref; ref != nil {
		r.refMemory, r.refServer, r.refRuns = median(ref.memory), median(ref.server), len(ref.memory)
		w := cfg.refServer
		r.refScale = math.Pow(ms(refMemoryNominal)/r.refMemory, 1-w) * math.Pow(us(refServerNominal)/r.refServer, w)
	}
	r.e2e = plain.endToEnd(setup, r.refScale)
	r.samples = len(plain.durs)
	r.aliases["failed_frac"] = float64(r.failed) / float64(max(r.attempted, 1))
	for _, m := range []string{"cpu.setup_s", "cpu.ms_per_op", "wall.setup_s", "wall.op_p50_ms", "wall.ops_per_s"} {
		r.layers[m] = r.e2e[m]
	}
	r.layers["ref.memory_ms"] = r.refMemory
	r.layers["ref.server_us"] = r.refServer
	if cfg.traced {
		r.e2eTraced = traced.endToEnd(setup, r.refScale)
		u, t := r.e2e["ref_ms_per_op"], r.e2eTraced["ref_ms_per_op"]
		r.layers["trace.overhead_pct"] = 100 * (t - u) / u
	}
}

// opStats accumulates the timed operations of one kind of round.
type opStats struct {
	durs []time.Duration
	// busy is the wall time the ops ran in: the sum of op times for a
	// serial loop, the client window for a concurrent one.
	busy       time.Duration
	allocBytes uint64
	// cpuPerOp holds one sample of process CPU milliseconds per op
	// for each op of a serial loop, or for each round of a concurrent
	// one.
	cpuPerOp []float64
	// latency gates a concurrent loop on the median host latency of
	// its ops: its CPU time is known only per round, as a mean that
	// carries every request's garbage collection and tail, while the
	// median request is steady. A serial loop is gated on the median
	// CPU time of its ops, which leaves out waiting for a CPU.
	latency bool
}

func (s *opStats) add(o *opStats) {
	s.durs = append(s.durs, o.durs...)
	s.busy += o.busy
	s.allocBytes += o.allocBytes
	s.cpuPerOp = append(s.cpuPerOp, o.cpuPerOp...)
	s.latency = s.latency || o.latency
}

// serialOp is the stats of one op of a serial loop.
func serialOp(dur, cpu time.Duration, allocBytes uint64) *opStats {
	return &opStats{durs: []time.Duration{dur}, busy: dur, allocBytes: allocBytes, cpuPerOp: []float64{ms(cpu)}}
}

// endToEnd derives the gated end-to-end metrics, CPU times brought to
// reference speed by scale, and beside them the unscaled CPU times
// under "cpu." and the host times under "wall.".
func (s *opStats) endToEnd(setup *setupTimes, scale float64) map[string]float64 {
	n := float64(len(s.durs))
	op := median(s.cpuPerOp)
	if s.latency {
		op = ms(quantile(s.durs, 0.50))
	}
	return map[string]float64{
		"setup_s":            median(setup.cpu) * scale,
		"ref_ms_per_op":      op * scale,
		"alloc_bytes_per_op": float64(s.allocBytes) / n,
		"cpu.setup_s":        median(setup.cpu),
		"cpu.ms_per_op":      median(s.cpuPerOp),
		"wall.setup_s":       median(setup.wall),
		"wall.op_p50_ms":     ms(quantile(s.durs, 0.50)),
		"wall.ops_per_s":     n / s.busy.Seconds(),
	}
}

// quantile is the nearest-rank q-quantile of ds.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// rounds runs round(i, traced) until the window is spent, and at
// least minRounds times, and returns the stats of the untraced and of
// the traced rounds. In trace mode, groups of group consecutive rounds
// alternate between untraced and traced, so both kinds see the same
// conditions, and at least one group of each runs. The reference
// kernel runs before each round and after the last.
func rounds(cfg config, minRounds, group int, round func(i int, traced bool) (*opStats, error)) (plain, traced *opStats, err error) {
	if cfg.traced {
		minRounds = max(minRounds, 2*group)
	}
	plain, traced = &opStats{}, &opStats{}
	defer cfg.ref.sample()
	begin := time.Now()
	for i := 0; i < minRounds || time.Since(begin) < cfg.window; i++ {
		cfg.ref.sample()
		tr := cfg.traced && (i/group)%2 == 1
		st, err := round(i, tr)
		if err != nil {
			return nil, nil, err
		}
		if tr {
			traced.add(st)
		} else {
			plain.add(st)
		}
	}
	return plain, traced, nil
}

// printEndToEnd prints the end-to-end metrics by name and unit: the
// gated ones, then the workload's user names for them. In trace mode
// it adds the traced rounds' values and the tracing overhead.
func printEndToEnd(w io.Writer, sp *spec, name string, res *result, traced bool) {
	fmt.Fprintf(w, "reference kernel, median of %d runs: memory part %.4g ms of CPU (%g at reference speed), server part %.4g us latency (%g at reference speed); times x %.4g are at reference speed\n",
		res.refRuns, res.refMemory, ms(refMemoryNominal), res.refServer, us(refServerNominal), res.refScale)
	fmt.Fprintf(w, "end-to-end metrics (%d samples):\n", res.samples)
	if traced {
		fmt.Fprintf(w, "  %-20s %14s %14s %14s  %s\n", "metric", "untraced", "traced", "overhead", "unit")
	}
	for _, m := range sp.Metrics {
		if m.Kind != endToEnd {
			continue
		}
		if traced {
			u, t := res.e2e[m.Name], res.e2eTraced[m.Name]
			fmt.Fprintf(w, "  %-20s %14.6g %14.6g %14.6g  %s\n", m.Name, u, t, t-u, m.Unit)
			continue
		}
		fmt.Fprintf(w, "  %-20s %14.6g  %s\n", m.Name, res.e2e[m.Name], m.Unit)
	}
	for _, m := range sp.Metrics {
		if strings.HasPrefix(m.Name, "cpu.") || strings.HasPrefix(m.Name, "wall.") {
			fmt.Fprintf(w, "  %-20s %14.6g  %s\n", m.Name, res.e2e[m.Name], m.Unit)
		}
	}
	for _, a := range sp.Aliases {
		if slices.Contains(a.Workloads, name) {
			fmt.Fprintf(w, "  %-20s %14.6g  %s\n", a.Name, res.aliases[a.Name], a.Unit)
		}
	}
}

// onWorkers runs jobs on n goroutines, taking them in slice order, and
// returns every job's error joined.
func onWorkers(n int, jobs []func() error) error {
	var next atomic.Int64
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				errs[i] = jobs[i]()
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}
