package sim

import (
	"slices"
	"sync"
	"testing"

	"mnoc/internal/noc"
	"mnoc/internal/telemetry"
	"mnoc/internal/workload"
)

func smallConfig(cores int) Config {
	cfg := DefaultConfig(cores)
	cfg.L1SizeBytes = 4 * 1024
	cfg.L2SizeBytes = 32 * 1024
	return cfg
}

func newMachine(t *testing.T, cores int) *Machine {
	t.Helper()
	net, err := noc.NewMNoC(cores)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(smallConfig(cores), net)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(256).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig(256)
	bad.Cores = 1
	if err := bad.Validate(); err == nil {
		t.Error("1 core accepted")
	}
	bad = DefaultConfig(16)
	bad.MemCycles = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero memory latency accepted")
	}
}

func TestNewMachineRejectsMismatch(t *testing.T) {
	net, err := noc.NewMNoC(16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMachine(smallConfig(32), net); err == nil {
		t.Error("core/network mismatch accepted")
	}
}

func TestRunEmptyAndMismatchedStreams(t *testing.T) {
	m := newMachine(t, 4)
	if _, err := m.Run(make([][]Access, 3)); err == nil {
		t.Error("stream count mismatch accepted")
	}
	res, err := m.Run(make([][]Access, 4))
	if err != nil {
		t.Fatal(err)
	}
	if res.RuntimeCycles != 0 || res.Accesses != 0 {
		t.Errorf("empty run produced work: %+v", res)
	}
}

func TestPrivateWorkingSetHitsAfterWarmup(t *testing.T) {
	m := newMachine(t, 4)
	// Core 0 reads the same block repeatedly: 1 miss, then hits.
	streams := make([][]Access, 4)
	for i := 0; i < 100; i++ {
		streams[0] = append(streams[0], Access{Addr: 0x1000})
	}
	res, err := m.Run(streams)
	if err != nil {
		t.Fatal(err)
	}
	if res.L2Misses != 1 {
		t.Errorf("misses = %d, want 1", res.L2Misses)
	}
	if res.Accesses != 100 {
		t.Errorf("accesses = %d", res.Accesses)
	}
}

func TestSharingGeneratesCoherenceTraffic(t *testing.T) {
	m := newMachine(t, 4)
	shared := uint64(0x40) // homed at core 1
	streams := make([][]Access, 4)
	// Core 2 writes, then core 3 reads the same block (the heap
	// interleaves them; the directory must forward or refetch).
	for i := 0; i < 50; i++ {
		streams[2] = append(streams[2], Access{Write: true, Addr: shared})
		streams[3] = append(streams[3], Access{Addr: shared})
	}
	res, err := m.Run(streams)
	if err != nil {
		t.Fatal(err)
	}
	if res.Directory.InvalidationsSent == 0 && res.Directory.Forwards == 0 {
		t.Errorf("no coherence activity: %+v", res.Directory)
	}
	if len(res.Trace.Packets) == 0 {
		t.Error("no packets traced")
	}
	if err := res.Trace.Validate(); err != nil {
		t.Errorf("invalid trace: %v", err)
	}
}

func TestWriteThenReadOtherCoreForwards(t *testing.T) {
	m := newMachine(t, 8)
	shared := uint64(0x40 * 3)
	streams := make([][]Access, 8)
	streams[2] = []Access{{Write: true, Addr: shared}}
	// Core 5 starts later (longer think chain forces ordering via
	// more accesses before the shared one).
	streams[5] = []Access{{Addr: 0x5000}, {Addr: 0x5040}, {Addr: 0x5080}, {Addr: shared}}
	res, err := m.Run(streams)
	if err != nil {
		t.Fatal(err)
	}
	if res.Directory.Forwards == 0 {
		t.Errorf("dirty read did not forward: %+v", res.Directory)
	}
	if res.Directory.DataFromOwner == 0 {
		t.Error("no owner-supplied data")
	}
}

func TestStreamsFromBenchmark(t *testing.T) {
	b, err := workload.ByName("ocean_c")
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(16)
	streams, err := StreamsFromBenchmark(b, cfg, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(streams) != 16 {
		t.Fatalf("%d streams", len(streams))
	}
	for c, st := range streams {
		if len(st) != 200 {
			t.Fatalf("core %d has %d accesses", c, len(st))
		}
	}
	// Determinism.
	again, err := StreamsFromBenchmark(b, cfg, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	for c := range streams {
		for i := range streams[c] {
			if streams[c][i] != again[c][i] {
				t.Fatal("streams not deterministic")
			}
		}
	}
	if _, err := StreamsFromBenchmark(b, cfg, 0, 1); err == nil {
		t.Error("zero accesses accepted")
	}
}

func TestEndToEndBenchmarkRunProducesTrace(t *testing.T) {
	cores := 16
	m := newMachine(t, cores)
	b, err := workload.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	streams, err := StreamsFromBenchmark(b, smallConfig(cores), 300, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(streams)
	if err != nil {
		t.Fatal(err)
	}
	if res.RuntimeCycles == 0 || res.L2Misses == 0 {
		t.Fatalf("implausible run: %+v", res)
	}
	if err := res.Trace.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.AvgMemLatency <= float64(DefaultConfig(cores).L2HitCycles) {
		t.Errorf("avg memory latency %.1f implausibly low", res.AvgMemLatency)
	}
}

// TestMNoCOutperformsRNoC is the paper's performance claim in miniature:
// on identical streams, the flat mNoC crossbar finishes no later than
// the clustered rNoC (Table 1's 1.1× performance). 64 cores is the
// smallest scale at which the serpentine geometry is meaningful — below
// that the fixed 18 cm waveguide is stretched over too few nodes.
func TestMNoCOutperformsRNoC(t *testing.T) {
	cores := 64
	b, err := workload.ByName("water_ns")
	if err != nil {
		t.Fatal(err)
	}
	streams, err := StreamsFromBenchmark(b, smallConfig(cores), 400, 3)
	if err != nil {
		t.Fatal(err)
	}
	run := func(n noc.Network) uint64 {
		m, err := NewMachine(smallConfig(cores), n)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(streams)
		if err != nil {
			t.Fatal(err)
		}
		return res.RuntimeCycles
	}
	mn, err := noc.NewMNoC(cores)
	if err != nil {
		t.Fatal(err)
	}
	rn, err := noc.NewRNoC(cores, 4)
	if err != nil {
		t.Fatal(err)
	}
	tm := run(mn)
	tr := run(rn)
	if tm >= tr {
		t.Errorf("mNoC runtime %d not below rNoC %d", tm, tr)
	}
}

func TestRunDeterministic(t *testing.T) {
	cores := 8
	b, err := workload.ByName("barnes")
	if err != nil {
		t.Fatal(err)
	}
	streams, err := StreamsFromBenchmark(b, smallConfig(cores), 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := newMachine(t, cores).Run(streams)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := newMachine(t, cores).Run(streams)
	if err != nil {
		t.Fatal(err)
	}
	if r1.RuntimeCycles != r2.RuntimeCycles || len(r1.Trace.Packets) != len(r2.Trace.Packets) {
		t.Errorf("nondeterministic: %d/%d vs %d/%d",
			r1.RuntimeCycles, len(r1.Trace.Packets), r2.RuntimeCycles, len(r2.Trace.Packets))
	}
}

// TestRecycleDetachesTrace pins Result.Recycle: it drops the trace,
// keeps the statistics, and a second call is a no-op.
func TestRecycleDetachesTrace(t *testing.T) {
	cores := 8
	b, err := workload.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	streams, err := StreamsFromBenchmark(b, smallConfig(cores), 200, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := newMachine(t, cores).Run(streams)
	if err != nil {
		t.Fatal(err)
	}
	cycles := res.RuntimeCycles
	res.Recycle()
	if res.Trace != nil {
		t.Fatal("Recycle left the trace attached")
	}
	if res.RuntimeCycles != cycles {
		t.Errorf("Recycle changed the runtime: %d, want %d", res.RuntimeCycles, cycles)
	}
	res.Recycle()
	var nilRes *Result
	nilRes.Recycle()
}

// TestConcurrentMachinesAgree runs fresh machines in parallel (under
// -race in `make check`) and checks every run's runtime and packet
// trace against a serial reference: machines share no state.
func TestConcurrentMachinesAgree(t *testing.T) {
	cores := 8
	benches := []string{"fft", "barnes", "radix"}
	type job struct {
		streams [][]Access
		want    *Result
	}
	jobs := make([]job, len(benches))
	for i, name := range benches {
		b, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		streams, err := StreamsFromBenchmark(b, smallConfig(cores), 150, 7)
		if err != nil {
			t.Fatal(err)
		}
		want, err := newMachine(t, cores).Run(streams)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = job{streams: streams, want: want}
	}

	const workers = 8
	const iters = 3
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			j := jobs[w%len(jobs)]
			for i := 0; i < iters; i++ {
				// A fresh machine per run: caches and directory state
				// warm across Run calls on one machine. t.Fatal is not
				// safe off the test goroutine, so errors use t.Error.
				net, err := noc.NewMNoC(cores)
				if err != nil {
					t.Error(err)
					return
				}
				m, err := NewMachine(smallConfig(cores), net)
				if err != nil {
					t.Error(err)
					return
				}
				res, err := m.Run(j.streams)
				if err != nil {
					t.Error(err)
					return
				}
				if res.RuntimeCycles != j.want.RuntimeCycles ||
					!slices.Equal(res.Trace.Packets, j.want.Trace.Packets) {
					t.Errorf("worker %d run %d: %d cycles/%d packets, want %d/%d",
						w, i, res.RuntimeCycles, len(res.Trace.Packets),
						j.want.RuntimeCycles, len(j.want.Trace.Packets))
				}
			}
		}()
	}
	wg.Wait()
}

// TestBroadcastInvReducesPackets exercises the Section 7 extension: on a
// widely-shared write-heavy pattern, broadcast invalidation must put
// fewer packets on the network without breaking the protocol.
func TestBroadcastInvReducesPackets(t *testing.T) {
	cores := 16
	shared := uint64(0x40)
	streams := make([][]Access, cores)
	// All cores read the block, then core 0 writes it, repeatedly.
	for round := 0; round < 20; round++ {
		for c := 1; c < cores; c++ {
			streams[c] = append(streams[c], Access{Addr: shared})
		}
		streams[0] = append(streams[0], Access{Write: true, Addr: shared})
	}
	run := func(broadcast bool) *Result {
		cfg := smallConfig(cores)
		cfg.BroadcastInv = broadcast
		net, err := noc.NewMNoC(cores)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMachine(cfg, net)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(streams)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	uni := run(false)
	bc := run(true)
	if bc.Directory.BroadcastInvs == 0 {
		t.Fatal("broadcast invalidation never used")
	}
	if len(bc.Trace.Packets) >= len(uni.Trace.Packets) {
		t.Errorf("broadcast packets %d not below unicast %d",
			len(bc.Trace.Packets), len(uni.Trace.Packets))
	}
	if bc.RuntimeCycles > uni.RuntimeCycles {
		t.Errorf("broadcast runtime %d worse than unicast %d", bc.RuntimeCycles, uni.RuntimeCycles)
	}
	// Same work either way.
	if bc.Accesses != uni.Accesses || bc.Directory.Writes != uni.Directory.Writes {
		t.Error("protocol behaviour diverged")
	}
}

// TestStreamsIncludeGlobalSharing: generated streams must contain
// globally shared blocks (barrier/lock style), which manifest as
// multi-sharer invalidations when broadcast invalidation is enabled.
func TestStreamsIncludeGlobalSharing(t *testing.T) {
	cores := 32
	b, err := workload.ByName("water_ns")
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(cores)
	cfg.BroadcastInv = true
	streams, err := StreamsFromBenchmark(b, cfg, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	net, err := noc.NewMNoC(cores)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(cfg, net)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(streams)
	if err != nil {
		t.Fatal(err)
	}
	if res.Directory.BroadcastInvs == 0 {
		t.Error("no multi-sharer invalidations — global blocks missing from streams")
	}
}

func TestRunRecordsTelemetry(t *testing.T) {
	cores := 8
	m := newMachine(t, cores)
	b, err := workload.Resolve("fft")
	if err != nil {
		t.Fatal(err)
	}
	streams, err := StreamsFromBenchmark(b, smallConfig(cores), 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	tr := telemetry.NewTracer(64)
	m.SetTelemetry(reg, tr)
	res, err := m.Run(streams)
	if err != nil {
		t.Fatal(err)
	}

	// Registry counters mirror the run result exactly.
	for name, want := range map[string]uint64{
		"sim.runs":      1,
		"sim.accesses":  uint64(res.Accesses),
		"sim.l2_misses": uint64(res.L2Misses),
		"sim.packets":   uint64(len(res.Trace.Packets)),
		"sim.retries":   res.Retries,
		"sim.nacks":     res.NACKs,
		"sim.lost":      res.LostPackets,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if reg.Counter("sim.accesses").Value() == 0 {
		t.Fatal("run recorded no accesses")
	}

	// The run span names the network and core count.
	spans := tr.Spans()
	if len(spans) == 0 {
		t.Fatal("run recorded no spans")
	}
	sp := spans[len(spans)-1]
	if sp.Component != "sim" || sp.Name != "run."+res.NetworkName || sp.Attrs["cores"] != "8" {
		t.Errorf("run span = %+v", sp)
	}
}
