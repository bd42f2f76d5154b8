// Package dynamic explores the runtime adaptations the paper lists as
// future work: online thread migration ("Thread mapping can be achieved
// either offline or online if the workload runs long enough to warrant
// migration", Section 4.4), dynamic power-mode control (Section 7), and
// catnap-style per-source waveguide deactivation (Section 6: "We could
// apply this same method on mNoC by deactivating waveguides per source
// to decrease bandwidth and reduce power").
//
// The controller consumes a packet trace in fixed epochs. After each
// epoch it (a) measures the epoch's power under the current thread
// mapping, (b) proposes a bounded set of thread migrations against the
// observed traffic and the network's true per-mode powers, applying
// them only when the predicted gain clears a threshold, and (c) sizes
// each source's active waveguide count from its utilisation, saving the
// standby power of idle receiver banks. Splitter ratios stay fixed —
// only things a real system can change at runtime (placement, drive
// current, waveguide gating) are adapted.
package dynamic

import (
	"fmt"

	"mnoc/internal/mapping"
	"mnoc/internal/phys"
	"mnoc/internal/power"
	"mnoc/internal/trace"
)

// Policy tunes the online controller.
type Policy struct {
	// EpochCycles is the adaptation interval.
	EpochCycles uint64
	// MinGainFrac is the minimum predicted power gain (fraction of the
	// epoch's power) required to commit a migration batch; it guards
	// against thrashing (default 0.02).
	MinGainFrac float64
	// MaxMigrationsPerEpoch bounds how many threads may move in one
	// epoch (default 8; a migration costs cache warm-up and copying).
	MaxMigrationsPerEpoch int
	// MigrationEnergyUJ is charged per moved thread (state transfer
	// and cache refill energy).
	MigrationEnergyUJ phys.MicroJoules
	// BenefitHorizonEpochs is how many future epochs a committed
	// mapping is assumed to stay useful for when weighing migration
	// energy against predicted savings (default 5).
	BenefitHorizonEpochs int

	// WaveguidesPerSource models the per-source waveguide bundle
	// (256-bit flits over 64-wavelength guides → 4). 0 disables
	// gating.
	WaveguidesPerSource int
	// StandbyUWPerReceiver is the bias power of one listening receiver
	// bank on one waveguide; idle waveguides are gated off, saving it.
	StandbyUWPerReceiver phys.MicroWatts
}

// DefaultPolicy returns a conservative controller configuration. The
// 2M-cycle (0.4 ms) epoch is the shortest interval at which migrating a
// thread's cache state (≈0.5 µJ) can amortise against realistic
// interconnect savings — at shorter epochs the energy gate simply
// rejects every move.
func DefaultPolicy() Policy {
	return Policy{
		EpochCycles:           2_000_000,
		MinGainFrac:           0.02,
		MaxMigrationsPerEpoch: 8,
		MigrationEnergyUJ:     0.5,
		BenefitHorizonEpochs:  5,
		WaveguidesPerSource:   4,
		StandbyUWPerReceiver:  1.0,
	}
}

// Validate checks the policy.
func (p Policy) Validate() error {
	if p.EpochCycles == 0 {
		return fmt.Errorf("dynamic: zero epoch")
	}
	if p.MinGainFrac < 0 || p.MaxMigrationsPerEpoch < 0 {
		return fmt.Errorf("dynamic: negative thresholds in %+v", p)
	}
	if p.WaveguidesPerSource < 0 || p.StandbyUWPerReceiver < 0 {
		return fmt.Errorf("dynamic: negative gating parameters in %+v", p)
	}
	return nil
}

// EpochStat reports one epoch of the run.
type EpochStat struct {
	Epoch int
	Flits float64
	// AdaptiveW is the epoch's average power with the controller's
	// mapping and gating; StaticW keeps the initial mapping and all
	// waveguides on. Both include traffic power; AdaptiveW also
	// includes migration energy amortised over the epoch.
	AdaptiveW float64
	StaticW   float64
	// Migrations is the number of threads moved at the end of the
	// epoch.
	Migrations int
	// ActiveWaveguideFrac is the mean fraction of waveguides kept on.
	ActiveWaveguideFrac float64
}

// Result summarises a controller run.
type Result struct {
	Epochs []EpochStat
	// FinalMapping is the controller's mapping after the last epoch.
	FinalMapping mapping.Assignment
	// TotalAdaptiveW / TotalStaticW are trace-wide average powers.
	TotalAdaptiveW float64
	TotalStaticW   float64
}

// Run drives the controller over a thread-indexed packet trace on the
// given designed network, starting from the initial mapping.
func Run(net *power.MNoC, tr *trace.Trace, initial mapping.Assignment, pol Policy) (*Result, error) {
	if err := pol.Validate(); err != nil {
		return nil, err
	}
	if tr.N != net.Cfg.N {
		return nil, fmt.Errorf("dynamic: trace for %d nodes, network for %d", tr.N, net.Cfg.N)
	}
	if err := initial.Validate(tr.N); err != nil {
		return nil, err
	}
	n := tr.N

	cur := append(mapping.Assignment(nil), initial...)
	res := &Result{}
	var adaptiveE, staticE float64 // energy accumulators (µW·cycles)

	epochs := int((tr.Cycles + pol.EpochCycles - 1) / pol.EpochCycles)
	pkt := 0
	for e := 0; e < epochs; e++ {
		end := uint64(e+1) * pol.EpochCycles
		m := trace.NewMatrix(n)
		for pkt < len(tr.Packets) && tr.Packets[pkt].Cycle < end {
			p := tr.Packets[pkt]
			m.Counts[p.Src][p.Dst] += float64(p.Flits)
			pkt++
		}
		epochCycles := float64(pol.EpochCycles)
		if end > tr.Cycles {
			epochCycles = float64(tr.Cycles - uint64(e)*pol.EpochCycles)
		}

		adaptW, gateFrac, err := epochPower(net, m, cur, pol, epochCycles)
		if err != nil {
			return nil, err
		}
		staticW, _, err := epochPower(net, m, initial, Policy{
			EpochCycles: pol.EpochCycles, WaveguidesPerSource: pol.WaveguidesPerSource,
			// Static reference keeps every waveguide powered.
			StandbyUWPerReceiver: pol.StandbyUWPerReceiver, MinGainFrac: 1,
		}, epochCycles)
		if err != nil {
			return nil, err
		}

		// Adapt for the next epoch using this epoch's observation.
		moves := 0
		if e < epochs-1 && pol.MaxMigrationsPerEpoch > 0 {
			cur, moves, err = improveMapping(net, m, cur, pol, epochCycles)
			if err != nil {
				return nil, err
			}
			// Amortise migration energy over the epoch: µJ → W.
			seconds := epochCycles / (phys.ClockGHz * 1e9)
			adaptW += float64(pol.MigrationEnergyUJ) * float64(moves) * 1e-6 / seconds
		}

		st := EpochStat{
			Epoch: e, Flits: m.Total(),
			AdaptiveW: adaptW, StaticW: staticW,
			Migrations: moves, ActiveWaveguideFrac: gateFrac,
		}
		res.Epochs = append(res.Epochs, st)
		adaptiveE += adaptW * epochCycles
		staticE += staticW * epochCycles
	}
	res.FinalMapping = cur
	if tr.Cycles > 0 {
		res.TotalAdaptiveW = adaptiveE / float64(tr.Cycles)
		res.TotalStaticW = staticE / float64(tr.Cycles)
	}
	return res, nil
}

// epochPower evaluates one epoch's average power (W) under a mapping,
// including waveguide-gating standby power.
func epochPower(net *power.MNoC, m *trace.Matrix, asg mapping.Assignment, pol Policy, cycles float64) (watts, gateFrac float64, err error) {
	mapped, err := m.Permute(asg)
	if err != nil {
		return 0, 0, err
	}
	b, err := net.Evaluate(mapped, cycles)
	if err != nil {
		return 0, 0, err
	}
	w := b.TotalWatts()
	frac := 1.0
	if pol.WaveguidesPerSource > 0 {
		standby, f := gatingStandby(net.Cfg.N, mapped, pol, cycles)
		w += standby / phys.Watt
		frac = f
	}
	return w, frac, nil
}

// gatingStandby computes total receiver standby power (µW) with
// utilisation-driven waveguide gating, and the mean active fraction.
// A source's required waveguide count is ceil(util·W) of its bundle,
// with a minimum of one so it can always transmit; the static reference
// (MinGainFrac >= 1 sentinel, see Run) keeps the full bundle on.
func gatingStandby(n int, mapped *trace.Matrix, pol Policy, cycles float64) (standbyUW, activeFrac float64) {
	w := float64(pol.WaveguidesPerSource)
	perReceiver := float64(pol.StandbyUWPerReceiver)
	totalActive := 0.0
	for s := 0; s < n; s++ {
		active := w
		if pol.MinGainFrac < 1 { // adaptive controller gates waveguides
			util := mapped.RowTotal(s) / cycles // flits per cycle
			need := util * w
			active = float64(int(need) + 1)
			if active > w {
				active = w
			}
		}
		totalActive += active
		standbyUW += active * float64(n-1) * perReceiver
	}
	return standbyUW, totalActive / (float64(n) * w)
}

// improveMapping proposes up to MaxMigrationsPerEpoch thread moves
// (greedy best swaps against the network's mode powers) and commits
// them only if the predicted gain clears MinGainFrac AND the energy
// saved over the benefit horizon exceeds the migration energy — the
// controller never migrates when traffic is too light to pay for it.
func improveMapping(net *power.MNoC, observed *trace.Matrix, cur mapping.Assignment, pol Policy, epochCycles float64) (mapping.Assignment, int, error) {
	n := net.Cfg.N
	cost := make([][]float64, n)
	for c1 := 0; c1 < n; c1++ {
		cost[c1] = make([]float64, n)
		for c2 := 0; c2 < n; c2++ {
			if c1 != c2 {
				cost[c1][c2] = float64(net.SourceElectricalUW(c1, net.Topology.ModeOf[c1][c2]))
			}
		}
	}
	prob, err := mapping.NewProblem(observed.Counts, cost)
	if err != nil {
		return cur, 0, err
	}
	base := prob.Objective(cur)
	if base == 0 {
		return cur, 0, nil
	}

	cand, swaps := prob.GreedySwaps(cur, pol.MaxMigrationsPerEpoch/2)
	moved := 2 * swaps
	if moved == 0 {
		return cur, 0, nil
	}
	gainAbs := base - prob.Objective(cand) // µW·flit-cycles over the epoch
	if gainAbs/base < pol.MinGainFrac {
		return cur, 0, nil
	}
	// Energy check: predicted saving per epoch (the objective divided
	// by the epoch length is average µW) across the benefit horizon
	// must cover the migration energy.
	horizon := pol.BenefitHorizonEpochs
	if horizon < 1 {
		horizon = 1
	}
	epochSeconds := epochCycles / (phys.ClockGHz * 1e9)
	savedUJ := gainAbs / epochCycles * epochSeconds * float64(horizon) // µW·s = µJ
	if savedUJ < float64(pol.MigrationEnergyUJ)*float64(moved) {
		return cur, 0, nil
	}
	return cand, moved, nil
}
