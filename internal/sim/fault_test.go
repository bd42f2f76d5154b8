package sim

import (
	"testing"

	"mnoc/internal/fault"
	"mnoc/internal/noc"
	"mnoc/internal/power"
	"mnoc/internal/topo"
	"mnoc/internal/workload"
)

// faultyNetwork builds an 8-node mNoC timing model wrapped with a
// per-packet drop fault model.
func faultyNetwork(t *testing.T, dropRate float64) noc.Network {
	t.Helper()
	const n = 8
	tp, err := topo.DistanceBased(n, []int{4, 3})
	if err != nil {
		t.Fatal(err)
	}
	pnet, err := power.NewMNoC(power.DefaultConfig(n), tp, power.UniformWeighting(2))
	if err != nil {
		t.Fatal(err)
	}
	st, err := fault.NewState(&fault.Schedule{
		N: n, Cycles: 1 << 40, DropRate: dropRate, DropSeed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	inner, err := noc.NewMNoC(n)
	if err != nil {
		t.Fatal(err)
	}
	return noc.WithFaults(inner, fault.NewChecker(st, fault.NewBudget(pnet)))
}

func faultSimRun(t *testing.T, cfg Config, net noc.Network) *Result {
	t.Helper()
	m, err := NewMachine(cfg, net)
	if err != nil {
		t.Fatal(err)
	}
	b, err := workload.Resolve("syn_uniform")
	if err != nil {
		t.Fatal(err)
	}
	streams, err := StreamsFromBenchmark(b, cfg, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(streams)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSimRetriesNACKedSends: with a lossy network, the retry path turns
// would-be losses into successful deliveries, and the counters account
// for every attempt.
func TestSimRetriesNACKedSends(t *testing.T) {
	cfg := DefaultConfig(8)
	res := faultSimRun(t, cfg, faultyNetwork(t, 0.01))
	if res.Retries == 0 {
		t.Fatal("1% drops produced no retries")
	}
	if res.LostPackets != 0 {
		// 3 retries against 1% iid drops: residual loss 1e-8/packet.
		t.Fatalf("%d packets lost despite retry budget", res.LostPackets)
	}
	if res.Sends <= res.Retries {
		t.Fatalf("Sends (%d) must exceed Retries (%d)", res.Sends, res.Retries)
	}

	// Fault-oblivious machine on the same environment: every NACK is a
	// lost packet.
	cfg.MaxSendRetries = 0
	res0 := faultSimRun(t, cfg, faultyNetwork(t, 0.01))
	if res0.Retries != 0 {
		t.Fatalf("MaxSendRetries=0 still retried %d times", res0.Retries)
	}
	if res0.LostPackets == 0 {
		t.Fatal("fault-oblivious run lost nothing under 1% drops")
	}
}

// TestSimFaultFreeCountersZero: a clean network reports zero retries
// and losses, and the counters match the trace.
func TestSimFaultFreeCountersZero(t *testing.T) {
	res := faultSimRun(t, DefaultConfig(8), faultyNetwork(t, 0))
	if res.Retries != 0 || res.LostPackets != 0 {
		t.Fatalf("clean run: retries=%d lost=%d", res.Retries, res.LostPackets)
	}
	if res.Sends != uint64(len(res.Trace.Packets)) {
		t.Fatalf("Sends=%d but trace has %d packets", res.Sends, len(res.Trace.Packets))
	}
}

// TestSimFaultDeterminism: identical configurations must reproduce the
// run exactly, retries included.
func TestSimFaultDeterminism(t *testing.T) {
	a := faultSimRun(t, DefaultConfig(8), faultyNetwork(t, 0.02))
	b := faultSimRun(t, DefaultConfig(8), faultyNetwork(t, 0.02))
	if a.RuntimeCycles != b.RuntimeCycles || a.Sends != b.Sends ||
		a.Retries != b.Retries || a.LostPackets != b.LostPackets {
		t.Fatalf("runs differ: %+v vs %+v", a, b)
	}
	if len(a.Trace.Packets) != len(b.Trace.Packets) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a.Trace.Packets), len(b.Trace.Packets))
	}
}

// TestSimConservation checks the send accounting over every workload:
// each transmission attempt, delivered or not, is logged in the trace
// exactly once. Fault-free networks (mNoC and rNoC) deliver every
// message first time; on a lossy network every retry answers a NACK and
// a message is lost at most once.
func TestSimConservation(t *testing.T) {
	const cores = 8
	cfg := DefaultConfig(cores)
	// A one-retry budget against 10% drops exercises both recovery and
	// loss within a few hundred accesses.
	lossy := cfg
	lossy.MaxSendRetries = 1
	var retries, lost uint64
	for _, b := range workload.All() {
		streams, err := StreamsFromBenchmark(b, cfg, 200, 1)
		if err != nil {
			t.Fatal(err)
		}
		run := func(cfg Config, net noc.Network) *Result {
			t.Helper()
			m, err := NewMachine(cfg, net)
			if err != nil {
				t.Fatal(err)
			}
			res, err := m.Run(streams)
			if err != nil {
				t.Fatal(err)
			}
			if res.Sends != uint64(len(res.Trace.Packets)) {
				t.Errorf("%s on %s: Sends=%d but the trace has %d packets",
					b.Name, res.NetworkName, res.Sends, len(res.Trace.Packets))
			}
			return res
		}
		mn, err := noc.NewMNoC(cores)
		if err != nil {
			t.Fatal(err)
		}
		rn, err := noc.NewRNoC(cores, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, net := range []noc.Network{mn, rn} {
			res := run(cfg, net)
			if res.Retries != 0 || res.NACKs != 0 || res.LostPackets != 0 {
				t.Errorf("%s on fault-free %s: retries=%d nacks=%d lost=%d",
					b.Name, res.NetworkName, res.Retries, res.NACKs, res.LostPackets)
			}
		}
		res := run(lossy, faultyNetwork(t, 0.1))
		if res.Retries > res.NACKs || res.Retries+res.LostPackets > res.Sends {
			t.Errorf("%s on a lossy network: sends=%d retries=%d nacks=%d lost=%d",
				b.Name, res.Sends, res.Retries, res.NACKs, res.LostPackets)
		}
		retries += res.Retries
		lost += res.LostPackets
	}
	if retries == 0 || lost == 0 {
		t.Errorf("lossy runs saw %d retries and %d losses; the bounds went untested", retries, lost)
	}
}
