// Package core is the high-level entry point of the library: it wires
// the optical device models, splitter designer, power-topology builders,
// QAP thread mapper and power/performance evaluators into a small,
// cohesive API. Examples and command-line tools work exclusively
// through this package; the paper's whole pipeline is:
//
//	sys, _ := core.NewSystem(256)
//	profile, _ := sys.Profile("water_s", 1)                  // traffic matrix
//	base, _ := sys.Design(core.Base, nil)                    // broadcast mNoC
//	base, _ = base.WithQAPMapping(profile, core.QAPOptions{}) // thread mapping
//	mapped, _ := base.MappedTraffic(profile)
//	spec := core.Comm4.OnProfile()                           // 4M_G on this profile
//	des, _ := sys.Design(spec, mapped)                       // power topology
//	des, _ = des.WithMapping(base.Mapping)
//	bd, _ := des.Power(profile, core.ProfileCycles)          // breakdown, µW
//
// Every design is a Spec (spec.go): a family, a mode count and a
// weighting, named in the paper's Table 5 grammar. The kind table maps
// the served kind names (base, dist2, comm4, ...) onto specs.
package core

import (
	"mnoc/internal/drivetable"
	"mnoc/internal/mapping"
	"mnoc/internal/power"
	"mnoc/internal/topo"
	"mnoc/internal/trace"
	"mnoc/internal/workload"
)

// System is a configured N-node mNoC platform.
type System struct {
	// Cfg holds the optical and electrical device parameters (Table 3
	// defaults; mutate before creating designs to explore variants).
	Cfg power.Config
}

// NewSystem builds an n-node system with the paper's default devices.
func NewSystem(n int) (*System, error) {
	cfg := power.DefaultConfig(n)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &System{Cfg: cfg}, nil
}

// N is the crossbar radix.
func (s *System) N() int { return s.Cfg.N }

// Profile returns the named SPLASH-2 stand-in's traffic matrix,
// calibrated so the base (single-mode, naive-mapping) mNoC reproduces
// the paper's Table 4 power over a 1M-cycle window.
func (s *System) Profile(benchmark string, seed int64) (*trace.Matrix, error) {
	b, err := workload.ByName(benchmark)
	if err != nil {
		return nil, err
	}
	base, err := power.NewBaseMNoC(s.Cfg)
	if err != nil {
		return nil, err
	}
	shape, err := b.Matrix(s.N(), seed)
	if err != nil {
		return nil, err
	}
	m, _, err := power.ScaleToTarget(base, shape, ProfileCycles, b.PaperBaseWatts)
	return m, err
}

// ProfileCycles is the window length (clock cycles) Profile calibrates
// against; Power evaluations of profiled matrices should use the same
// window.
const ProfileCycles = 1e6

// Design bundles a power topology, its per-source splitter designs, and
// an optional thread mapping.
type Design struct {
	sys      *System
	Topology *topo.Topology
	Network  *power.MNoC
	// Mapping maps thread → core; identity when no QAP pass ran.
	Mapping mapping.Assignment
}

// Design builds the spec's power topology and splitter designs with
// the identity thread mapping. profile is the (core-indexed) traffic a
// CommAware spec partitions by and a sampled weighting weights by; the
// other specs ignore it, and may get nil.
func (s *System) Design(spec Spec, profile *trace.Matrix) (*Design, error) {
	net, err := spec.Network(s.Cfg, profile)
	if err != nil {
		return nil, err
	}
	return &Design{sys: s, Topology: net.Topology, Network: net, Mapping: mapping.Identity(s.N())}, nil
}

// QAPOptions tunes WithQAPMapping.
type QAPOptions struct {
	Seed       int64
	Iterations int // 0 = the mapping package default
}

// WithQAPMapping re-derives the design's thread mapping by robust taboo
// search on the given traffic (Section 4.4) and returns a new Design
// sharing the same topology and splitters.
func (d *Design) WithQAPMapping(profile *trace.Matrix, opt QAPOptions) (*Design, error) {
	prob, err := mapping.FromTraffic(profile, d.sys.Cfg.Splitter.Layout)
	if err != nil {
		return nil, err
	}
	asg := prob.Taboo(prob.CenterGreedy(), mapping.TabooOptions{
		Seed: opt.Seed, Iterations: opt.Iterations,
	})
	return &Design{sys: d.sys, Topology: d.Topology, Network: d.Network, Mapping: asg}, nil
}

// WithMapping returns the design with an explicit thread mapping.
func (d *Design) WithMapping(asg mapping.Assignment) (*Design, error) {
	if err := asg.Validate(d.sys.N()); err != nil {
		return nil, err
	}
	return &Design{sys: d.sys, Topology: d.Topology, Network: d.Network, Mapping: asg}, nil
}

// MappedTraffic applies the design's thread mapping to a thread-indexed
// traffic matrix, yielding the core-indexed matrix power evaluation
// uses.
func (d *Design) MappedTraffic(profile *trace.Matrix) (*trace.Matrix, error) {
	return profile.Permute(d.Mapping)
}

// Power evaluates the average power of running the (thread-indexed)
// traffic over a window of cycles under this design.
func (d *Design) Power(profile *trace.Matrix, cycles float64) (power.Breakdown, error) {
	mapped, err := d.MappedTraffic(profile)
	if err != nil {
		return power.Breakdown{}, err
	}
	return d.Network.Evaluate(mapped, cycles)
}

// DriveTable exports the design's runtime control table (Section
// 3.2.2): per-source mode drive powers, per-destination control bits,
// the fabricated splitter ratios, and the thread↔core maps.
func (d *Design) DriveTable() (*drivetable.Table, error) {
	return drivetable.Build(d.Network, d.Mapping)
}

// Benchmarks lists the available workload names in Table 4 order.
func Benchmarks() []string { return workload.Names() }
