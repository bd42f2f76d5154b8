// Package power assembles the device, waveguide and splitter models into
// end-to-end NoC power models: the base/power-topology mNoC, the
// clustered c_mNoC, and the ring-resonator rNoC baseline. It evaluates a
// traffic matrix (already permuted by the chosen thread mapping) under a
// power topology and returns the component breakdown the paper reports
// in Figure 10 (source power, O/E + E/O, electrical links and routers,
// ring heating, laser).
//
// Power accounting is flit-based: every flit occupies its source's
// waveguide for one clock cycle, during which the QD LED driver draws
// the mode's electrical power and every receiver reached by that mode
// performs O/E conversion. Average power is therefore
//
//	Σ_flits (per-flit active power · 1 cycle) / window cycles
//
// which makes the model energy proportional, exactly the property the
// paper highlights for mNoC ("applications with higher network
// utilization (e.g., radix) require high power").
package power

import (
	"fmt"
	"sync/atomic"

	"mnoc/internal/device"
	"mnoc/internal/phys"
	"mnoc/internal/splitter"
	"mnoc/internal/telemetry"
	"mnoc/internal/topo"
	"mnoc/internal/trace"
)

// Config bundles the device models of an mNoC-style network.
type Config struct {
	N        int
	Splitter splitter.Params
	QDLED    device.QDLED
	PD       device.Photodetector
	Elec     device.Electrical
}

// DefaultConfig returns the Table 3 configuration for an n-node crossbar.
func DefaultConfig(n int) Config {
	return Config{
		N:        n,
		Splitter: splitter.DefaultParams(n),
		QDLED:    device.DefaultQDLED(),
		PD:       device.DefaultPhotodetector(),
		Elec:     device.DefaultElectrical(),
	}
}

// WithMIOP returns a copy of the config with the photodetector mIOP
// changed and the splitter Pmin re-derived (used by the Fig. 2 sweep).
func (c Config) WithMIOP(miop phys.MicroWatts) Config {
	c.PD.MIOPUW = miop
	c.Splitter = splitter.ParamsFromDevices(c.Splitter.Layout, c.PD,
		device.DefaultChromophore(), 1.0, 0.2)
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.N < 2 {
		return fmt.Errorf("power: N = %d", c.N)
	}
	if c.Splitter.Layout.N != c.N {
		return fmt.Errorf("power: layout for %d nodes, config for %d", c.Splitter.Layout.N, c.N)
	}
	if err := c.Splitter.Validate(); err != nil {
		return err
	}
	if err := c.QDLED.Validate(); err != nil {
		return err
	}
	if err := c.PD.Validate(); err != nil {
		return err
	}
	return c.Elec.Validate()
}

// Breakdown is the Figure 10 component split, in µW. (Scale can turn
// it into an energy split — see EnergyUJ — but the canonical unit of
// the fields is power.)
type Breakdown struct {
	SourceUW     phys.MicroWatts // QD LED (mNoC) or laser-fed modulation is under LaserUW for rNoC
	OEUW         phys.MicroWatts // O/E and E/O conversion
	ElectricalUW phys.MicroWatts // buffers, electrical routers and links
	RingTrimUW   phys.MicroWatts // ring thermal trimming (rNoC only)
	LaserUW      phys.MicroWatts // off-chip laser (rNoC only)
}

// TotalUW sums all components.
func (b Breakdown) TotalUW() phys.MicroWatts {
	return b.SourceUW + b.OEUW + b.ElectricalUW + b.RingTrimUW + b.LaserUW
}

// TotalWatts is TotalUW in watts.
func (b Breakdown) TotalWatts() float64 { return b.TotalUW().Watts() }

// Add returns the component-wise sum.
func (b Breakdown) Add(o Breakdown) Breakdown {
	return Breakdown{
		SourceUW:     b.SourceUW + o.SourceUW,
		OEUW:         b.OEUW + o.OEUW,
		ElectricalUW: b.ElectricalUW + o.ElectricalUW,
		RingTrimUW:   b.RingTrimUW + o.RingTrimUW,
		LaserUW:      b.LaserUW + o.LaserUW,
	}
}

// Scale returns the breakdown scaled by f (used for energy = power·time).
func (b Breakdown) Scale(f float64) Breakdown {
	return Breakdown{
		SourceUW:     b.SourceUW.Scale(f),
		OEUW:         b.OEUW.Scale(f),
		ElectricalUW: b.ElectricalUW.Scale(f),
		RingTrimUW:   b.RingTrimUW.Scale(f),
		LaserUW:      b.LaserUW.Scale(f),
	}
}

// Weighting selects how per-mode communication weights are chosen when
// sizing splitters (the U/W/S columns of Table 5).
type Weighting struct {
	// Fracs, if non-nil, fixes the same weight vector for every source
	// (e.g. uniform, or the 66%/33% sensitivity points). Must match the
	// topology's mode count and sum to 1.
	Fracs []float64
	// Sample, if non-nil, derives per-source weights from this traffic
	// matrix (the S4/S12 sampled designs). Exactly one of Fracs/Sample
	// must be set.
	Sample *trace.Matrix
}

// UniformWeighting is the "U" design point.
func UniformWeighting(modes int) Weighting {
	return Weighting{Fracs: topo.UniformWeights(modes)}
}

// SampledWeighting is the "S" design point for a profiled matrix.
func SampledWeighting(m *trace.Matrix) Weighting {
	return Weighting{Sample: m}
}

func (w Weighting) weightsFor(t *topo.Topology, src int) ([]float64, error) {
	switch {
	case w.Fracs != nil && w.Sample != nil:
		return nil, fmt.Errorf("power: weighting has both Fracs and Sample")
	case w.Fracs != nil:
		if len(w.Fracs) != t.Modes {
			return nil, fmt.Errorf("power: %d weight fracs for %d modes", len(w.Fracs), t.Modes)
		}
		return w.Fracs, nil
	case w.Sample != nil:
		return t.TrafficModeWeights(w.Sample, src)
	default:
		return nil, fmt.Errorf("power: empty weighting")
	}
}

// MNoC is a fully designed mNoC crossbar: a power topology plus the
// per-source splitter designs that implement it.
type MNoC struct {
	Cfg      Config
	Topology *topo.Topology
	Designs  []*splitter.Design
	// modeReach[src][m] is the number of receivers that detect light in
	// mode m (all destinations with mode <= m), used for O/E power.
	modeReach [][]int
	// weighting is the design-time mode weighting, kept so the design
	// can be re-solved (Resolve) after endpoint failures.
	weighting Weighting
	// tel is the optional metric sink (Instrument): Evaluate then
	// reports total and per-mode power draw. telh caches the resolved
	// metric handles (built lazily on the first instrumented Evaluate,
	// matching the registration timing Instrument documents) so the hot
	// Evaluate path skips the registry's name lookups.
	tel  *telemetry.Registry
	telh atomic.Pointer[telHandles]
}

// telHandles are the pre-resolved metric handles of one instrumented
// network.
type telHandles struct {
	evals *telemetry.Counter
	watts *telemetry.Histogram
	mode  []*telemetry.Histogram
}

// Instrument attaches a metric registry: every Evaluate observes the
// power.watts histogram, bumps power.evaluations, and records the
// per-mode source draw in the power.mode<k>.source_uw histograms. A
// nil registry detaches. Not safe to call concurrently with Evaluate.
func (m *MNoC) Instrument(reg *telemetry.Registry) {
	m.tel = reg
	m.telh.Store(nil)
}

// telHandles returns the cached metric handles, resolving them on the
// first instrumented Evaluate. Handle resolution is idempotent (the
// registry returns the same handle per name), so a race between two
// first Evaluates at worst builds the struct twice.
func (m *MNoC) telHandles() *telHandles {
	if h := m.telh.Load(); h != nil {
		return h
	}
	h := &telHandles{
		evals: m.tel.Counter("power.evaluations"),
		watts: m.tel.Histogram("power.watts", PowerWattsBuckets...),
		mode:  make([]*telemetry.Histogram, m.Topology.Modes),
	}
	for mode := range h.mode {
		//mnoclint:allow hotalloc handle construction runs once per MNoC (CAS-published below); every later Evaluate reuses the handles
		h.mode[mode] = m.tel.Histogram(fmt.Sprintf("power.mode%d.source_uw", mode)) //mnoclint:allow metricnames mode count is bounded by the topology (at most a handful per design) and the resulting names are pinned by testdata/golden/metrics_names.txt
	}
	m.telh.CompareAndSwap(nil, h)
	return m.telh.Load()
}

// PowerWattsBuckets are the bucket bounds (watts) of power.watts.
var PowerWattsBuckets = []float64{0.25, 0.5, 1, 2, 4, 8, 16, 32, 64}

// NewMNoC designs the splitters for every source of the topology under
// the given design-time weighting.
func NewMNoC(cfg Config, t *topo.Topology, w Weighting) (*MNoC, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if t.N != cfg.N {
		return nil, fmt.Errorf("power: topology for %d nodes, config for %d", t.N, cfg.N)
	}
	m := &MNoC{
		Cfg:       cfg,
		Topology:  t,
		Designs:   make([]*splitter.Design, cfg.N),
		modeReach: make([][]int, cfg.N),
		weighting: w,
	}
	for src := 0; src < cfg.N; src++ {
		weights, err := w.weightsFor(t, src)
		if err != nil {
			return nil, err
		}
		d, err := splitter.Solve(cfg.Splitter, src, t.ModeOf[src], weights)
		if err != nil {
			return nil, fmt.Errorf("power: designing source %d: %w", src, err)
		}
		m.Designs[src] = d

		sizes := t.ModeSizes(src)
		reach := make([]int, t.Modes)
		run := 0
		for mode, sz := range sizes {
			run += sz
			reach[mode] = run
		}
		m.modeReach[src] = reach
	}
	return m, nil
}

// Resolve re-solves every source's splitter design with the non-alive
// endpoints excluded: dead receivers get zero taps, no power is
// budgeted to reach them, and they stop drawing O/E power. This is the
// last-resort recovery action of the graceful-degradation controller —
// after permanent receiver deaths, "more is less" applies in reverse:
// removing destinations shrinks every mode's injected power. The
// topology and the surviving pairs' mode assignments are unchanged, so
// drive tables stay index-compatible.
func (m *MNoC) Resolve(alive []bool) (*MNoC, error) {
	if len(alive) != m.Cfg.N {
		return nil, fmt.Errorf("power: %d alive entries for %d nodes", len(alive), m.Cfg.N)
	}
	excluded := make([]bool, m.Cfg.N)
	all := true
	for i, a := range alive {
		excluded[i] = !a
		if !a {
			all = false
		}
	}
	if all {
		return m, nil
	}
	t := m.Topology
	out := &MNoC{
		Cfg:       m.Cfg,
		Topology:  t,
		Designs:   make([]*splitter.Design, m.Cfg.N),
		modeReach: make([][]int, m.Cfg.N),
		weighting: m.weighting,
	}
	for src := 0; src < m.Cfg.N; src++ {
		if !alive[src] {
			// A dead source keeps its old design: it no longer
			// transmits, so its chain is irrelevant, but keeping it
			// preserves indexing for accounting code.
			out.Designs[src] = m.Designs[src]
			out.modeReach[src] = m.modeReach[src]
			continue
		}
		reachable := 0
		for dst := range alive {
			if dst != src && alive[dst] {
				reachable++
			}
		}
		if reachable == 0 {
			// Nothing left to reach; keep the old chain rather than
			// fail the whole re-plan.
			out.Designs[src] = m.Designs[src]
			out.modeReach[src] = make([]int, t.Modes)
			continue
		}
		weights, err := m.weighting.weightsFor(t, src)
		if err != nil {
			return nil, err
		}
		d, err := splitter.SolveMasked(m.Cfg.Splitter, src, t.ModeOf[src], weights, excluded)
		if err != nil {
			return nil, fmt.Errorf("power: re-solving source %d: %w", src, err)
		}
		out.Designs[src] = d

		reach := make([]int, t.Modes)
		for dst, mode := range t.ModeOf[src] {
			if dst == src || !alive[dst] {
				continue
			}
			for hi := mode; hi < t.Modes; hi++ {
				reach[hi]++
			}
		}
		out.modeReach[src] = reach
	}
	return out, nil
}

// LossModel selects how waveguide insertion loss is charged when a
// design is priced. The paper's accounting (and this package's
// default) charges each destination its own path transmission; the
// optical-crossbar comparison literature instead budgets every
// destination at the source's longest-path loss (Li et al.,
// arXiv:1512.07492), which is pessimistic but topology-comparable.
type LossModel string

const (
	// LossAverage is the per-destination path-loss accounting the
	// splitter solver optimises for (Appendix A).
	LossAverage LossModel = "average"
	// LossWorst charges every destination the longest-path insertion
	// loss of its source's serpentine.
	LossWorst LossModel = "worst"
)

// ParseLossModel maps a wire/flag spelling onto a LossModel. The empty
// string means LossAverage.
func ParseLossModel(s string) (LossModel, error) {
	switch s {
	case "", string(LossAverage):
		return LossAverage, nil
	case string(LossWorst):
		return LossWorst, nil
	}
	return "", fmt.Errorf("power: unknown loss model %q (want %q or %q)", s, LossAverage, LossWorst)
}

// WithLossModel returns the network re-priced under the given loss
// accounting. LossAverage returns the receiver unchanged; LossWorst
// returns a view sharing the topology and fabricated splitter chains
// but with every source's mode powers re-derived at its longest-path
// transmission. The view carries no metric sink — it is an accounting
// overlay, not a new design.
func (m *MNoC) WithLossModel(model LossModel) (*MNoC, error) {
	switch model {
	case "", LossAverage:
		return m, nil
	case LossWorst:
	default:
		return nil, fmt.Errorf("power: unknown loss model %q", model)
	}
	out := &MNoC{
		Cfg:       m.Cfg,
		Topology:  m.Topology,
		Designs:   make([]*splitter.Design, len(m.Designs)),
		modeReach: m.modeReach,
		weighting: m.weighting,
	}
	for src, d := range m.Designs {
		wc, err := splitter.WorstCaseDesign(m.Cfg.Splitter, d, m.Topology.ModeOf[src])
		if err != nil {
			return nil, fmt.Errorf("power: worst-case repricing source %d: %w", src, err)
		}
		out.Designs[src] = wc
	}
	return out, nil
}

// SourceElectricalUW is the QD LED driver power while src transmits
// in the given mode.
func (m *MNoC) SourceElectricalUW(src, mode int) phys.MicroWatts {
	return m.Cfg.QDLED.ElectricalPower(m.Designs[src].ModePowerUW[mode])
}

// Evaluate computes the average power of carrying the traffic matrix mtx
// (flit counts, core-indexed — apply the thread mapping with
// Matrix.Permute first) over a window of `cycles` clock cycles.
//
//mnoclint:hot
func (m *MNoC) Evaluate(mtx *trace.Matrix, cycles float64) (Breakdown, error) {
	if mtx.N != m.Cfg.N {
		return Breakdown{}, fmt.Errorf("power: matrix for %d nodes, network for %d", mtx.N, m.Cfg.N)
	}
	if cycles <= 0 {
		return Breakdown{}, fmt.Errorf("power: window of %g cycles", cycles)
	}
	oePerReceiver := float64(m.Cfg.PD.OEPowerUW())
	var srcSum, oeSum, flits float64
	var th *telHandles
	var modeSrc []float64
	if m.tel != nil {
		// Evaluate may run concurrently (the serve path), so the
		// per-mode totals are per call.
		th = m.telHandles()
		modeSrc = make([]float64, len(th.mode))
	}
	for s, row := range mtx.Counts {
		des := m.Designs[s]
		reach := m.modeReach[s]
		for d, v := range row {
			if v == 0 || d == s {
				continue
			}
			mode := m.Topology.ModeOf[s][d]
			src := v * float64(m.Cfg.QDLED.ElectricalPower(des.ModePowerUW[mode]))
			srcSum += src
			if modeSrc != nil {
				modeSrc[mode] += src
			}
			oeSum += v * float64(reach[mode]) * oePerReceiver
			flits += v
		}
	}
	// Electrical buffering at the two endpoints of every flit.
	elecPJ := flits * 2 * m.Cfg.Elec.BufferPJPerFlit
	b := Breakdown{
		SourceUW:     phys.MicroWatts(srcSum / cycles),
		OEUW:         phys.MicroWatts(oeSum / cycles),
		ElectricalUW: pjOverCyclesToUW(elecPJ, cycles),
	}
	if th != nil {
		th.evals.Inc()
		th.watts.Observe(b.TotalWatts())
		for mode, uw := range modeSrc {
			th.mode[mode].Observe(uw / cycles)
		}
	}
	return b, nil
}

// pjOverCyclesToUW converts a total energy in pJ spent during a window
// of `cycles` 5 GHz clock cycles into average power in µW
// (1 pJ/ns = 1 mW = 1000 µW; one cycle is 1/ClockGHz ns).
func pjOverCyclesToUW(pj, cycles float64) phys.MicroWatts {
	windowNS := cycles / phys.ClockGHz
	return phys.MicroWatts(pj / windowNS * 1000)
}
