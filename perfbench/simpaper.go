package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"mnoc/internal/noc"
	"mnoc/internal/sim"
	"mnoc/internal/workload"
)

// rnocCluster is the rNoC cluster size exp.Performance simulates.
const rnocCluster = 4

var simNets = []string{"mnoc", "rnoc"}

// simPair is one (benchmark, network) simulation.
type simPair struct{ bench, net string }

func (p simPair) key() string { return p.bench + "/" + p.net }

// simStats are the simulated statistics of one run: fixed for fixed
// inputs, whatever the host.
type simStats struct {
	accesses, cycles, l2Misses, packets, invalidations uint64
}

// runSim measures the multicore simulator on the Table 1 / Fig. 10
// inputs: every SPLASH stand-in on the mNoC crossbar and on rNoC(n, 4),
// one serial closed loop. An op builds the access streams, the network
// and the machine, then runs it. Ops sweep over all pairs, each sweep
// in a new seeded order; a run makes at least one full sweep, and a
// traced run alternates untraced and traced sweeps.
func runSim(cfg config) (*result, error) {
	res := newResult()
	var pairs []simPair
	for _, b := range workload.Names() {
		for _, n := range simNets {
			pairs = append(pairs, simPair{b, n})
		}
	}
	rng := rand.New(rand.NewSource(cfg.seed))

	// Set-up: one warm-up simulation (the first pair), which grows the
	// heap to the size a run needs before the first timed op.
	var setups setupTimes
	for i := 0; i < setupReps; i++ {
		err := setups.timeSetup(cfg.ref, func() error {
			o, err := simOp(cfg, pairs[0], nil)
			if err == nil {
				res.op(o.problem)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
	}

	rec := newRecorder()
	stats := map[simPair]simStats{}
	var tracedOps []*simOut
	var plainAccesses uint64
	var perm []int
	plain, traced, err := rounds(cfg, len(pairs), len(pairs), func(i int, tr bool) (*opStats, error) {
		if i%len(pairs) == 0 {
			perm = rng.Perm(len(pairs))
		}
		p := pairs[perm[i%len(pairs)]]
		var pr *recorder
		if tr {
			pr = rec
		}
		o, err := simOp(cfg, p, pr)
		if err != nil {
			return nil, err
		}
		res.op(o.problem)
		stats[p] = o.stats
		if tr {
			tracedOps = append(tracedOps, o)
		} else {
			plainAccesses += o.stats.accesses
		}
		return serialOp(o.dur, o.cpu, o.allocBytes), nil
	})
	if err != nil {
		return nil, err
	}

	res.measured(plain, traced, &setups, cfg)
	res.aliases["sim_accesses_per_s"] = float64(plainAccesses) / plain.busy.Seconds()
	if cfg.traced {
		res.spans = rec.all()
		res.table = layerTable(res.spans)
		res.tableWall = traced.busy
		simLayers(res, tracedOps, stats)
	}
	return res, nil
}

// simLayers fills the sim-paper layer metrics: host time and
// allocations per run, from the traced ops, and the simulated
// statistics summed over one sweep of every pair.
func simLayers(res *result, ops []*simOut, stats map[simPair]simStats) {
	rows := rowByName(res.table)
	n := float64(len(ops))
	var runs = map[string]float64{}
	var accesses, hostNS float64
	var buildBytes, buildAllocs, runBytes, runAllocs float64
	for _, o := range ops {
		runs[o.pair.net]++
		accesses += float64(o.stats.accesses)
		hostNS += float64(o.dur.Nanoseconds())
		buildBytes += float64(o.buildBytes)
		buildAllocs += float64(o.buildAllocs)
		runBytes += float64(o.runBytes)
		runAllocs += float64(o.runAllocs)
	}
	res.layers["sim.streams_ms"] = ms(rows["sim.streams"].Self) / n
	res.layers["sim.build_ms"] = ms(rows["sim.build"].Self) / n
	for _, net := range simNets {
		res.layers["sim.run_ms."+net] = ms(rows["sim.run."+net].Self) / runs[net]
	}
	res.layers["sim.host_ns_per_access"] = hostNS / accesses
	res.layers["sim.build_bytes"] = buildBytes / n
	res.layers["sim.build_allocs"] = buildAllocs / n
	res.layers["sim.run_bytes"] = runBytes / n
	res.layers["sim.run_allocs"] = runAllocs / n
	var sum simStats
	for _, s := range stats {
		sum.accesses += s.accesses
		sum.cycles += s.cycles
		sum.l2Misses += s.l2Misses
		sum.packets += s.packets
		sum.invalidations += s.invalidations
	}
	res.layers["sim.accesses"] = float64(sum.accesses)
	res.layers["sim.cycles"] = float64(sum.cycles)
	res.layers["sim.l2_misses"] = float64(sum.l2Misses)
	res.layers["sim.packets"] = float64(sum.packets)
	res.layers["sim.dir_invalidations"] = float64(sum.invalidations)
}

// simOut is one simulation's outputs and measurements.
type simOut struct {
	pair       simPair
	dur, cpu   time.Duration
	allocBytes uint64
	// build/run allocations, measured on traced ops only.
	buildBytes, buildAllocs, runBytes, runAllocs uint64
	stats                                        simStats
	problem                                      string
}

// simOp runs one simulation the way exp.Performance does and checks
// its statistics and packet trace against the committed digest. With a
// recorder it also splits host time and allocations by phase.
func simOp(cfg config, p simPair, rec *recorder) (*simOut, error) {
	b, err := workload.ByName(p.bench)
	if err != nil {
		return nil, err
	}
	sc := sim.DefaultConfig(cfg.opt.N)
	out := &simOut{pair: p}
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	root := rec.start(0, "sim.op", p.key())
	sp := rec.start(root.id, "sim.streams", "")
	streams, err := sim.StreamsFromBenchmark(b, sc, cfg.opt.SimAccesses, cfg.opt.Seed)
	sp.end()
	if err != nil {
		return nil, err
	}
	if rec != nil {
		runtime.ReadMemStats(&m1)
	}
	sp = rec.start(root.id, "sim.build", "")
	var net noc.Network
	if p.net == "mnoc" {
		net, err = noc.NewMNoC(cfg.opt.N)
	} else {
		net, err = noc.NewRNoC(cfg.opt.N, rnocCluster)
	}
	if err != nil {
		return nil, err
	}
	m, err := sim.NewMachine(sc, net)
	sp.end()
	if err != nil {
		return nil, err
	}
	if rec != nil {
		runtime.ReadMemStats(&m2)
		out.buildBytes, out.buildAllocs = m2.TotalAlloc-m1.TotalAlloc, m2.Mallocs-m1.Mallocs
		runtime.ReadMemStats(&m1)
	}
	sp = rec.start(root.id, "sim.run."+p.net, "")
	res, err := m.Run(streams)
	sp.end()
	if err != nil {
		return nil, err
	}
	if rec != nil {
		runtime.ReadMemStats(&m2)
		out.runBytes, out.runAllocs = m2.TotalAlloc-m1.TotalAlloc, m2.Mallocs-m1.Mallocs
	}
	out.dur = root.end()
	out.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m2)
	out.allocBytes = m2.TotalAlloc - m0.TotalAlloc

	out.stats = simStats{
		accesses:      res.Accesses,
		cycles:        res.RuntimeCycles,
		l2Misses:      res.L2Misses,
		packets:       uint64(len(res.Trace.Packets)),
		invalidations: res.Directory.InvalidationsSent,
	}
	out.problem = cfg.expect.check(p.key(), simDigestInput(res))
	res.Recycle()
	return out, nil
}

// simDigestInput is the canonical text of a run's results: every
// statistic plus a hash of its packet trace.
func simDigestInput(r *sim.Result) []byte {
	h := sha256.New()
	var buf [20]byte
	for _, pk := range r.Trace.Packets {
		binary.LittleEndian.PutUint64(buf[0:], pk.Cycle)
		binary.LittleEndian.PutUint32(buf[8:], uint32(pk.Src))
		binary.LittleEndian.PutUint32(buf[12:], uint32(pk.Dst))
		binary.LittleEndian.PutUint32(buf[16:], uint32(pk.Flits))
		h.Write(buf[:])
	}
	return []byte(fmt.Sprintf("%s cycles=%d accesses=%d l2=%d mem=%.9g dir=%+v sends=%d retries=%d nacks=%d lost=%d trace=%d/%d/%x",
		r.NetworkName, r.RuntimeCycles, r.Accesses, r.L2Misses, r.AvgMemLatency, r.Directory,
		r.Sends, r.Retries, r.NACKs, r.LostPackets, r.Trace.N, r.Trace.Cycles, h.Sum(nil)))
}
