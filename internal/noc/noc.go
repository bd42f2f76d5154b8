// Package noc provides the network timing models of the paper's Table 2:
// the radix-256 SWMR mNoC crossbar (optical link latency 1-9 cycles, no
// intermediate routers), and the clustered rNoC / c_mNoC (4-cycle router
// pipelines, 1-cycle electrical links, 1-5 cycle optical crossbar).
//
// Timing uses deterministic resource reservation: every shared resource
// (a source's waveguide, an optical port, a router ingress, a
// destination ejection port) tracks the next cycle it is free, so
// serialisation and contention delays emerge without a full event queue.
// The models are used standalone (trace replay) and by the multicore
// simulator in package sim.
package noc

import (
	"fmt"
	"math"
	"slices"

	"mnoc/internal/phys"
	"mnoc/internal/telemetry"
	"mnoc/internal/trace"
	"mnoc/internal/waveguide"
)

// Network is a timing model: Send reserves resources for a packet and
// returns its arrival cycle.
type Network interface {
	// N is the number of endpoints.
	N() int
	// Send injects a packet of `flits` flits from src to dst at
	// `cycle` and returns the cycle its tail arrives at dst.
	Send(cycle uint64, src, dst, flits int) (uint64, error)
	// Reset clears all contention state.
	Reset()
	// Name labels the model in experiment output.
	Name() string
}

// RouterPipelineCycles is the electrical router pipeline depth (Table 2).
const RouterPipelineCycles = 4

// ElectricalLinkCycles is the per-hop electrical link latency (Table 2).
const ElectricalLinkCycles = 1

// EOOECycles is the combined E/O + O/E conversion latency: "The total
// O/E and E/O latency is about 200 ps and is modeled as 1 cycle in the
// nanophotonic link traversal time."
const EOOECycles = 1

func checkSend(n int, src, dst, flits int) error {
	if src < 0 || src >= n || dst < 0 || dst >= n {
		return fmt.Errorf("noc: endpoints (%d,%d) out of range [0,%d)", src, dst, n)
	}
	if src == dst {
		return fmt.Errorf("noc: self-send at node %d", src)
	}
	if flits <= 0 {
		return fmt.Errorf("noc: %d flits", flits)
	}
	return nil
}

// resource models a shared component with a fixed number of parallel
// channels (virtual channels on a router, wavelength groups on a
// waveguide, ejection buffers at a node). A reservation occupies the
// earliest-available channel; multiple channels keep one delayed
// message (e.g. behind a DRAM access) from falsely serialising
// independent traffic.
type resource struct {
	free []uint64
}

func newResources(n, channels int) []resource {
	rs := make([]resource, n)
	flat := make([]uint64, n*channels)
	for i := range rs {
		rs[i].free, flat = flat[:channels], flat[channels:]
	}
	return rs
}

// reserve books the earliest-free channel from cycle `at` for `dur`
// cycles and returns the start cycle.
func (r *resource) reserve(at, dur uint64) uint64 {
	best := 0
	for i, f := range r.free {
		if f < r.free[best] {
			best = i
		}
	}
	start := at
	if r.free[best] > start {
		start = r.free[best]
	}
	r.free[best] = start + dur
	return start
}

func (r *resource) reset() {
	for i := range r.free {
		r.free[i] = 0
	}
}

func resetAll(rs []resource) {
	for i := range rs {
		rs[i].reset()
	}
}

// MNoC is the radix-N SWMR crossbar: each source owns its waveguide(s);
// packets are injected after E/O, propagate at light speed over the
// serpentine, and are ejected at the destination.
type MNoC struct {
	layout waveguide.Layout
	src    []resource // per-source waveguide (serialises that source's flits)
	dst    []resource // per-destination ejection (one receiver per waveguide
	// in SWMR, so several packets can eject concurrently)
}

// mnocEjectChannels reflects that an SWMR node owns an independent
// receiver per source waveguide; the ejection datapath is modelled with
// a small number of parallel buffers.
const mnocEjectChannels = 4

// NewMNoC builds the timing model for an n-node mNoC crossbar on the
// paper's 18 cm serpentine, with one waveguide per source.
func NewMNoC(n int) (*MNoC, error) {
	return NewMNoCBundled(n, 1)
}

// NewMNoCBundled builds an mNoC whose sources each drive `guides`
// parallel waveguides — the paper consistently says each source has
// "its own dedicated waveguide(s)": a 256-bit flit over 64-wavelength
// guides needs a bundle of 4. Bundling multiplies a source's injection
// bandwidth; latency per packet is unchanged.
func NewMNoCBundled(n, guides int) (*MNoC, error) {
	if guides < 1 {
		return nil, fmt.Errorf("noc: %d waveguides per source", guides)
	}
	l := waveguide.NewSerpentine(n)
	if err := l.Validate(); err != nil {
		return nil, err
	}
	return &MNoC{
		layout: l,
		src:    newResources(n, guides),
		dst:    newResources(n, mnocEjectChannels),
	}, nil
}

// N implements Network.
func (m *MNoC) N() int { return m.layout.N }

// Name implements Network.
func (m *MNoC) Name() string { return fmt.Sprintf("mNoC-%d", m.layout.N) }

// Reset implements Network.
func (m *MNoC) Reset() {
	resetAll(m.src)
	resetAll(m.dst)
}

// Send implements Network. Latency = serialisation on the source
// waveguide + E/O+O/E + optical propagation + ejection.
func (m *MNoC) Send(cycle uint64, src, dst, flits int) (uint64, error) {
	if err := checkSend(m.layout.N, src, dst, flits); err != nil {
		return 0, err
	}
	start := m.src[src].reserve(cycle, uint64(flits))
	headArrive := start + EOOECycles + uint64(m.layout.LatencyCycles(src, dst))
	ejectStart := m.dst[dst].reserve(headArrive, uint64(flits))
	return ejectStart + uint64(flits), nil
}

// MWSR is a Corona-style Multiple-Writer Single-Reader crossbar
// (Section 6 related work): each *destination* owns a waveguide that
// every source can modulate after winning a token arbitration. Latency
// trades against SWMR: no broadcast, but every packet pays the token
// round trip, and all traffic to one destination serialises on its
// guide.
type MWSR struct {
	layout waveguide.Layout
	dst    []resource // per-destination waveguide channel
}

// MWSRArbitrationCycles is the token-acquisition latency added to every
// packet (the token circulates the guide; half a traversal on average).
const MWSRArbitrationCycles = 5

// NewMWSR builds the MWSR timing model on the paper's serpentine.
func NewMWSR(n int) (*MWSR, error) {
	l := waveguide.NewSerpentine(n)
	if err := l.Validate(); err != nil {
		return nil, err
	}
	return &MWSR{layout: l, dst: newResources(n, 1)}, nil
}

// N implements Network.
func (m *MWSR) N() int { return m.layout.N }

// Name implements Network.
func (m *MWSR) Name() string { return fmt.Sprintf("MWSR-%d", m.layout.N) }

// Reset implements Network.
func (m *MWSR) Reset() { resetAll(m.dst) }

// Send implements Network: token arbitration, then serialisation on the
// destination's waveguide, then propagation.
func (m *MWSR) Send(cycle uint64, src, dst, flits int) (uint64, error) {
	if err := checkSend(m.layout.N, src, dst, flits); err != nil {
		return 0, err
	}
	start := m.dst[dst].reserve(cycle+MWSRArbitrationCycles, uint64(flits))
	return start + EOOECycles + uint64(m.layout.LatencyCycles(src, dst)) + uint64(flits), nil
}

// Clustered is the shared timing model of rNoC and c_mNoC: nodes in
// clusters of clusterSize around an optical crossbar of N/clusterSize
// ports. Intra-cluster packets cross one router; inter-cluster packets
// cross the source router, the optical crossbar, and the destination
// router.
type Clustered struct {
	name        string
	n           int
	clusterSize int
	opt         waveguide.Layout
	router      []resource // per-cluster router (VC-parallel)
	port        []resource // per-port optical channel (wavelength groups)
	dst         []resource // per-node ejection
}

// Clustered-resource channel counts: routers have virtual channels, an
// optical port's waveguide carries wavelength-parallel flit groups.
const (
	routerChannels = 4
	portChannels   = 4
	ejectChannels  = 2
)

// NewRNoC builds the ring-resonator clustered baseline: a radix-
// n/clusterSize crossbar whose optical latency spans 1-5 cycles
// (Table 2), matching a waveguide of half the mNoC serpentine length.
func NewRNoC(n, clusterSize int) (*Clustered, error) {
	return newClustered("rNoC", n, clusterSize)
}

// NewCMNoC builds the clustered mNoC; it shares rNoC's physical
// structure (Table 2 gives both clusters the same router/link timing)
// but uses molecular devices for the optical crossbar.
func NewCMNoC(n, clusterSize int) (*Clustered, error) {
	return newClustered("c_mNoC", n, clusterSize)
}

func newClustered(name string, n, clusterSize int) (*Clustered, error) {
	if clusterSize < 1 || n%clusterSize != 0 {
		return nil, fmt.Errorf("noc: cluster size %d does not divide %d", clusterSize, n)
	}
	ports := n / clusterSize
	if ports < 2 {
		return nil, fmt.Errorf("noc: %d optical ports", ports)
	}
	opt := waveguide.NewSerpentine(ports)
	// The port serpentine only spans sqrt(ports/256) of the full die
	// serpentine (see power.clusterLayout); for the paper's radix-64
	// this yields the 1-5 cycle optical latency of Table 2.
	opt.LengthCM = phys.WaveguideLengthCM * math.Sqrt(float64(ports)/256.0)
	return &Clustered{
		name:        name,
		n:           n,
		clusterSize: clusterSize,
		opt:         opt,
		router:      newResources(ports, routerChannels),
		port:        newResources(ports, portChannels),
		dst:         newResources(n, ejectChannels),
	}, nil
}

// N implements Network.
func (c *Clustered) N() int { return c.n }

// Name implements Network.
func (c *Clustered) Name() string { return fmt.Sprintf("%s-%d/%d", c.name, c.n, c.clusterSize) }

// Reset implements Network.
func (c *Clustered) Reset() {
	resetAll(c.router)
	resetAll(c.port)
	resetAll(c.dst)
}

// Send implements Network.
func (c *Clustered) Send(cycle uint64, src, dst, flits int) (uint64, error) {
	if err := checkSend(c.n, src, dst, flits); err != nil {
		return 0, err
	}
	sp, dp := src/c.clusterSize, dst/c.clusterSize
	f := uint64(flits)

	// Electrical link to the source cluster router, then the router
	// pipeline (a VC is busy for the serialisation time).
	at := cycle + ElectricalLinkCycles
	at = c.router[sp].reserve(at, f) + RouterPipelineCycles

	if sp != dp {
		// Optical crossbar traversal on the source port's channel.
		at = c.port[sp].reserve(at, f)
		at += EOOECycles + uint64(c.opt.LatencyCycles(sp, dp))
		// Destination cluster router.
		at = c.router[dp].reserve(at, f) + RouterPipelineCycles
	}

	// Electrical link to the destination node, then ejection.
	at += ElectricalLinkCycles
	eject := c.dst[dst].reserve(at, f)
	return eject + f, nil
}

// ReplayStats summarises a trace replay on a network.
type ReplayStats struct {
	Packets     int
	TotalFlits  int64
	AvgLatency  float64 // injection → tail arrival, cycles
	P50Latency  uint64
	P99Latency  uint64
	MaxLatency  uint64
	FinishCycle uint64 // when the last packet arrived
	TraceCycles uint64 // nominal trace duration
	NetworkName string
}

// ReplayLatencyBuckets are the bucket bounds (cycles) of the
// noc.replay.latency_cycles histogram recorded by ReplayObserved.
var ReplayLatencyBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096}

// Replay runs every packet of the trace through the network (packets
// must be cycle-sorted, as produced by the generators) and reports
// latency statistics. The network's contention state is reset first.
//
//mnoclint:hot
func Replay(net Network, tr *trace.Trace) (ReplayStats, error) {
	return ReplayObserved(net, tr, nil)
}

// ReplayObserved is Replay with per-packet telemetry: each packet's
// tail latency lands in the noc.replay.latency_cycles histogram, and
// the noc.replay.packets/flits counters accumulate across replays.
// A nil registry degrades to plain Replay.
func ReplayObserved(net Network, tr *trace.Trace, reg *telemetry.Registry) (ReplayStats, error) {
	if tr.N != net.N() {
		return ReplayStats{}, fmt.Errorf("noc: trace for %d nodes, network for %d", tr.N, net.N())
	}
	net.Reset()
	latHist := reg.Histogram("noc.replay.latency_cycles", ReplayLatencyBuckets...)
	packetsC := reg.Counter("noc.replay.packets")
	flitsC := reg.Counter("noc.replay.flits")
	st := ReplayStats{TraceCycles: tr.Cycles, NetworkName: net.Name()}
	var latSum float64
	lats := make([]uint64, 0, len(tr.Packets)) // for the percentiles
	for i, p := range tr.Packets {
		arr, err := net.Send(p.Cycle, int(p.Src), int(p.Dst), int(p.Flits))
		if err != nil {
			return ReplayStats{}, fmt.Errorf("noc: packet %d: %w", i, err)
		}
		lat := arr - p.Cycle
		latSum += float64(lat)
		lats = append(lats, lat)
		latHist.Observe(float64(lat))
		packetsC.Inc()
		flitsC.Add(uint64(p.Flits))
		if lat > st.MaxLatency {
			st.MaxLatency = lat
		}
		if arr > st.FinishCycle {
			st.FinishCycle = arr
		}
		st.Packets++
		st.TotalFlits += int64(p.Flits)
	}
	if st.Packets > 0 {
		st.AvgLatency = latSum / float64(st.Packets)
		slices.Sort(lats)
		st.P50Latency = lats[len(lats)/2]
		st.P99Latency = lats[len(lats)*99/100]
	}
	return st, nil
}
