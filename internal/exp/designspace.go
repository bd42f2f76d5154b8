package exp

import (
	"context"
	"fmt"

	"mnoc/internal/core"
	"mnoc/internal/noc"
	"mnoc/internal/phys"
	"mnoc/internal/power"
	"mnoc/internal/stats"
	"mnoc/internal/workload"
)

// DesignSpace sweeps two axes the paper holds fixed — the number of
// power modes and the photodetector mIOP — and reports both absolute
// power and the reduction relative to each configuration's own
// broadcast base. The paper's Section 7 notes "the design space is
// very large, and we've explored only a small portion"; this experiment
// covers the nearest unexplored neighbourhood: more modes than 4, and
// the source-power/O-E tradeoff of Observation 1 interacting with
// power topologies.
func DesignSpace(ctx context.Context, c *Context) (*Table, error) {
	// Benchmarks with distinct shapes keep the sweep affordable.
	benchNames := []string{"barnes", "ocean_c", "fft", "water_ns"}

	t := &Table{
		ID:     "designspace",
		Title:  "Design space: power modes x photodetector mIOP (distance topologies, QAP mapping)",
		Header: []string{"mIOP(uW)", "modes", "avg power (W)", "vs same-mIOP broadcast"},
		Notes: []string{
			"volumes stay calibrated to the default 10uW system, so absolute watts expose",
			"the Observation-1 tradeoff; the last column isolates the topology benefit",
		},
	}

	for _, miop := range []float64{2, 5, 10} {
		cfg := c.Cfg.WithMIOP(phys.MicroWatts(miop))
		base, err := power.NewBaseMNoC(cfg)
		if err != nil {
			return nil, fmt.Errorf("exp: designspace: base mNoC at mIOP %.0f: %w", miop, err)
		}
		for _, modes := range []int{1, 2, 4, 8} {
			// The networks are built at this mIOP's cfg, so they never
			// go through the context's artifact cache (keyed by c.Cfg).
			net := base
			if modes > 1 {
				if net, err = (core.Spec{Family: core.Distance, Modes: modes}).Network(cfg, nil); err != nil {
					return nil, fmt.Errorf("exp: designspace: %d-mode network: %w", modes, err)
				}
			}
			var abs, norm []float64
			for _, name := range benchNames {
				mapped, err := c.Mapped(ctx, name)
				if err != nil {
					return nil, err
				}
				w, err := c.evaluateWatts(net, mapped)
				if err != nil {
					return nil, err
				}
				bw, err := c.evaluateWatts(base, mapped)
				if err != nil {
					return nil, err
				}
				abs = append(abs, w)
				norm = append(norm, w/bw)
			}
			h, err := stats.HarmonicMean(norm)
			if err != nil {
				return nil, fmt.Errorf("exp: designspace: reduction mean: %w", err)
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%.0f", miop),
				fmt.Sprintf("%d", modes),
				f2(stats.Mean(abs)),
				f3(h),
			})
		}
	}
	return t, nil
}

// TrimSweep varies the rNoC ring-trimming power from the paper's
// deliberately favourable 20 µW/ring (Section 5.7: "to favor rNoC") up
// to the 100 µW/ring end of the range the paper quotes for real thermal
// models. The mNoC's relative energy advantage grows accordingly —
// every headline comparison in this reproduction sits at the most
// conservative end of this sweep.
func TrimSweep(ctx context.Context, c *Context) (*Table, error) {
	n := c.Opt.N
	pt, err := c.specNetwork(ctx, core.Comm4)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "trimsweep",
		Title:  "rNoC ring-trimming sensitivity (20-100 uW/ring)",
		Header: []string{"trimming (uW/ring)", "rNoC avg power (W)", "mNoC energy vs rNoC", "PT_mNoC energy vs rNoC"},
		Notes: []string{
			"paper (5.7): 20 uW/ring is chosen to favor rNoC; real ring models run 20-100;",
			"runtimes use the same multicore-simulation ratio as Fig. 10",
		},
	}
	// Average the runtime ratio once (trimming does not change timing).
	var ratioSum float64
	for _, b := range c.Benchmarks() {
		mc, rc, err := c.Performance(ctx, b.Name)
		if err != nil {
			return nil, err
		}
		ratioSum += float64(mc) / float64(rc)
	}
	tM := ratioSum / float64(len(c.Benchmarks()))

	for _, trim := range []float64{20, 40, 60, 80, 100} {
		rnoc, err := power.NewRNoC(n, 4)
		if err != nil {
			return nil, fmt.Errorf("exp: trimsweep: rNoC model: %w", err)
		}
		rnoc.Ring.TrimmingUWPerRing = phys.MicroWatts(trim)
		var rSum, mSum, pSum float64
		k := float64(len(c.Benchmarks()))
		for _, b := range c.Benchmarks() {
			naive, err := c.Shape(ctx, b.Name)
			if err != nil {
				return nil, err
			}
			mapped, err := c.Mapped(ctx, b.Name)
			if err != nil {
				return nil, err
			}
			rb, err := rnoc.Evaluate(naive, c.Opt.Cycles)
			if err != nil {
				return nil, fmt.Errorf("exp: trimsweep: rNoC on %s: %w", b.Name, err)
			}
			mb, err := c.base.Evaluate(naive, c.Opt.Cycles)
			if err != nil {
				return nil, fmt.Errorf("exp: trimsweep: base mNoC on %s: %w", b.Name, err)
			}
			pb, err := pt.Evaluate(mapped, c.Opt.Cycles)
			if err != nil {
				return nil, fmt.Errorf("exp: trimsweep: PT mNoC on %s: %w", b.Name, err)
			}
			rSum += rb.TotalWatts() / k
			mSum += mb.TotalWatts() * tM / k
			pSum += pb.TotalWatts() * tM / k
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f", trim), f2(rSum), f3(mSum / rSum), f3(pSum / rSum),
		})
	}
	return t, nil
}

// LoadSweep produces the canonical NoC load-latency curves: uniform
// traffic at increasing injection rates replayed on the mNoC crossbar,
// the clustered rNoC, and the MWSR variant. It locates each design's
// saturation knee — the flat crossbar sustains the highest load because
// nothing is shared between sources except destinations.
func LoadSweep(ctx context.Context, c *Context) (*Table, error) {
	n := c.Opt.N
	const cycles = 50_000
	bench, err := workload.Synthetic("uniform")
	if err != nil {
		return nil, fmt.Errorf("exp: loadsweep: uniform workload: %w", err)
	}
	t := &Table{
		ID:     "loadsweep",
		Title:  "Load-latency curves (uniform traffic, avg packet latency in cycles)",
		Header: []string{"flits/cycle/node", "mNoC", "rNoC", "MWSR"},
		Notes: []string{
			"4-flit packets; latencies grow toward each design's saturation knee",
		},
	}
	for _, load := range []float64{0.05, 0.1, 0.2, 0.4, 0.6, 0.8} {
		// `load` is flits per cycle per node; packets carry 4 flits.
		packets := int(load * float64(n) * cycles / 4)
		tr, err := bench.Trace(n, cycles, packets, c.Opt.Seed)
		if err != nil {
			return nil, fmt.Errorf("exp: loadsweep: trace at load %.2f: %w", load, err)
		}
		for i := range tr.Packets {
			tr.Packets[i].Flits = 4
		}
		row := []string{fmt.Sprintf("%.2f", load)}
		for _, mk := range []string{"mnoc", "rnoc", "mwsr"} {
			var net noc.Network
			var err error
			switch mk {
			case "mnoc":
				net, err = noc.NewMNoC(n)
			case "rnoc":
				net, err = noc.NewRNoC(n, 4)
			case "mwsr":
				net, err = noc.NewMWSR(n)
			}
			if err != nil {
				return nil, fmt.Errorf("exp: loadsweep: %s network: %w", mk, err)
			}
			st, err := noc.ReplayObserved(net, tr, c.reg)
			if err != nil {
				return nil, fmt.Errorf("exp: loadsweep: replay on %s: %w", mk, err)
			}
			row = append(row, f2(st.AvgLatency))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
