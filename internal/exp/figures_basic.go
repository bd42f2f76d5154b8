package exp

import (
	"context"
	"fmt"
	"strings"

	"mnoc/internal/core"
	"mnoc/internal/phys"
	"mnoc/internal/power"
	"mnoc/internal/splitter"
	"mnoc/internal/stats"
	"mnoc/internal/trace"
)

// Fig2 reproduces Figure 2: the percentage of total mNoC power spent in
// the QD LED source vs O/E conversion as photodetector mIOP sweeps from
// 1 µW to 10 µW, on uniform broadcast traffic. The shares are a device
// property of the paper's radix-256 system (per-flit source power grows
// with radix while electrical buffering does not), so this experiment
// always evaluates at the paper's full radix regardless of the
// context's scale.
func Fig2(ctx context.Context, c *Context) (*Table, error) {
	t := &Table{
		ID:     "fig2",
		Title:  "Percent of mNoC power for QD LED and O/E vs mIOP",
		Header: []string{"mIOP(uW)", "QD_LED(%)", "O/E(%)", "Electrical(%)"},
		Notes: []string{
			"paper: O/E dominates at 1uW; QD LED is ~80% of total at 10uW",
		},
	}
	const paperN = 256
	mtx := uniformTraffic(paperN)
	for miop := 1.0; miop <= 10.0; miop++ {
		cfg := power.DefaultConfig(paperN).WithMIOP(phys.MicroWatts(miop))
		net, err := power.NewBaseMNoC(cfg)
		if err != nil {
			return nil, fmt.Errorf("exp: base mNoC at mIOP %.0f: %w", miop, err)
		}
		b, err := net.Evaluate(mtx, c.Opt.Cycles)
		if err != nil {
			return nil, fmt.Errorf("exp: eval at mIOP %.0f: %w", miop, err)
		}
		tot := b.TotalUW()
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f", miop),
			f2(float64(100 * b.SourceUW / tot)),
			f2(float64(100 * b.OEUW / tot)),
			f2(float64(100 * b.ElectricalUW / tot)),
		})
	}
	return t, nil
}

func uniformTraffic(n int) *trace.Matrix {
	m := trace.NewMatrix(n)
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d {
				m.Counts[s][d] = 1
			}
		}
	}
	return m
}

// Fig3 reproduces Figure 3: source power consumption relative to a
// full-radix broadcast as the maximum broadcast distance grows from 2
// nodes to N, for a source at the middle of the waveguide.
func Fig3(ctx context.Context, c *Context) (*Table, error) {
	t := &Table{
		ID:     "fig3",
		Title:  "Source power vs maximum broadcast distance",
		Header: []string{"distance(nodes)", "relative source power"},
		Notes: []string{
			"paper: exponential growth; reaching 128 of 256 nodes needs ~25-30% of full-broadcast power",
		},
	}
	n := c.Opt.N
	src := n / 2
	p := c.Cfg.Splitter
	full, err := splitter.ReachPower(p, src, nearestSet(n, src, n-1))
	if err != nil {
		return nil, fmt.Errorf("exp: full-reach power: %w", err)
	}
	for d := 2; d <= n; d *= 2 {
		reach := d - 1 // reaching "d nodes" includes the source itself
		if d == n {
			reach = n - 1
		}
		pw, err := splitter.ReachPower(p, src, nearestSet(n, src, reach))
		if err != nil {
			return nil, fmt.Errorf("exp: reach-%d power: %w", d, err)
		}
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", d), f3(float64(pw / full))})
	}
	return t, nil
}

// nearestSet lists the k nodes nearest to src (alternating sides).
func nearestSet(n, src, k int) []int {
	out := make([]int, 0, k)
	for off := 1; len(out) < k && off < n; off++ {
		if src-off >= 0 {
			out = append(out, src-off)
		}
		if len(out) < k && src+off < n {
			out = append(out, src+off)
		}
	}
	return out
}

// Fig5 renders the paper's two example 8-node power topologies: the
// clustered mapping (Fig. 5a) and the distance-based 4-mode design
// (Fig. 5b), as adjacency matrices.
func Fig5(ctx context.Context, c *Context) (*Table, error) {
	t := &Table{
		ID:    "fig5",
		Title: "Example power topologies (8 nodes)",
	}
	cfg8 := power.DefaultConfig(8)
	clustered, err := core.Cluster2.Topology(cfg8, nil)
	if err != nil {
		return nil, fmt.Errorf("exp: fig5: clustered topology: %w", err)
	}
	distance, err := core.Dist4.Topology(cfg8, nil)
	if err != nil {
		return nil, fmt.Errorf("exp: fig5: distance topology: %w", err)
	}
	var sb strings.Builder
	sb.WriteString("(a) Clustered power topology:\n")
	if err := clustered.Render(&sb, 0, 8); err != nil {
		return nil, fmt.Errorf("exp: fig5: rendering clustered: %w", err)
	}
	sb.WriteString("\n(b) Distance-based power topology (2 nearest per mode):\n")
	if err := distance.Render(&sb, 0, 8); err != nil {
		return nil, fmt.Errorf("exp: fig5: rendering distance: %w", err)
	}
	t.Notes = strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	return t, nil
}

// Fig6 reproduces Figure 6: the single-mode (broadcast) power profile
// across source core positions — minimum at the middle of the
// serpentine waveguide.
func Fig6(ctx context.Context, c *Context) (*Table, error) {
	t := &Table{
		ID:     "fig6",
		Title:  "mNoC single-mode power profile vs source position",
		Header: []string{"position", "normalized power"},
		Notes: []string{
			"paper: end sources need the most power; middle sources the least",
		},
	}
	n := c.Opt.N
	powers := make([]float64, n)
	maxP := 0.0
	for src := 0; src < n; src++ {
		powers[src] = float64(c.base.SourceElectricalUW(src, 0))
		if powers[src] > maxP {
			maxP = powers[src]
		}
	}
	step := n / 16
	if step < 1 {
		step = 1
	}
	for src := 0; src < n; src += step {
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", src), f3(powers[src] / maxP)})
	}
	t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", n-1), f3(powers[n-1] / maxP)})
	return t, nil
}

// Table4 reproduces Table 4: base mNoC power per benchmark. Volumes are
// calibrated to the paper's wattages (see power.ScaleToTarget); the
// table therefore also reports each benchmark's implied network
// intensity and thread-ID communication distance, which are genuine
// model outputs.
func Table4(ctx context.Context, c *Context) (*Table, error) {
	t := &Table{
		ID:     "table4",
		Title:  "Base mNoC power consumption",
		Header: []string{"benchmark", "power(W)", "paper(W)", "flits/cycle/core", "avg comm distance"},
	}
	var sum, distSum float64
	for _, b := range c.Benchmarks() {
		m, err := c.Shape(ctx, b.Name)
		if err != nil {
			return nil, err
		}
		w, err := c.evaluateWatts(c.base, m)
		if err != nil {
			return nil, err
		}
		intensity := m.Total() / c.Opt.Cycles / float64(c.Opt.N)
		dist := m.AvgDistance()
		sum += w
		distSum += dist
		t.Rows = append(t.Rows, []string{
			b.Name, f2(w), f2(b.PaperBaseWatts), fmt.Sprintf("%.4f", intensity), fmt.Sprintf("%.1f", dist),
		})
	}
	k := float64(len(c.Benchmarks()))
	t.Rows = append(t.Rows, []string{"average", f2(sum / k), "20.94", "", fmt.Sprintf("%.1f", distSum/k)})
	t.Notes = append(t.Notes,
		"volumes calibrated to the paper's Table 4 (see DESIGN.md substitutions)",
		fmt.Sprintf("paper observation 3: average thread-ID communication distance is 102/255 (here scaled to N=%d)", c.Opt.N))
	return t, nil
}

// Fig7 reproduces Figure 7 for water_spatial: the traffic matrix before
// and after taboo thread mapping, and the 2-mode communication-aware
// mode assignment under each mapping, as ASCII heatmaps.
func Fig7(ctx context.Context, c *Context) (*Table, error) {
	const bench = "water_s"
	t := &Table{
		ID:    "fig7",
		Title: "Thread mapping and power topologies (water_spatial)",
	}
	naive, err := c.Shape(ctx, bench)
	if err != nil {
		return nil, err
	}
	mapped, err := c.Mapped(ctx, bench)
	if err != nil {
		return nil, err
	}
	addMap := func(title string, m [][]float64) error {
		var sb strings.Builder
		if err := stats.Heatmap(&sb, m, 32); err != nil {
			return err
		}
		t.Notes = append(t.Notes, title)
		t.Notes = append(t.Notes, strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")...)
		t.Notes = append(t.Notes, "")
		return nil
	}
	if err := addMap("(a) naive mapping traffic (dark = heavy):", naive.Counts); err != nil {
		return nil, err
	}
	if err := addMap("(b) QAP mapping traffic (dark = heavy):", mapped.Counts); err != nil {
		return nil, err
	}
	lowModeMatrix := func(m *trace.Matrix) ([][]float64, error) {
		tp, err := core.Comm2.OnProfile().Topology(c.Cfg, m)
		if err != nil {
			return nil, err
		}
		out := make([][]float64, c.Opt.N)
		for s := range out {
			out[s] = make([]float64, c.Opt.N)
			for d := 0; d < c.Opt.N; d++ {
				if d != s && tp.ModeOf[s][d] == 0 {
					out[s][d] = 1
				}
			}
		}
		return out, nil
	}
	lmN, err := lowModeMatrix(naive)
	if err != nil {
		return nil, err
	}
	if err := addMap("(c) naive 2-mode power topology (dark = low power mode):", lmN); err != nil {
		return nil, err
	}
	lmQ, err := lowModeMatrix(mapped)
	if err != nil {
		return nil, err
	}
	if err := addMap("(d) QAP 2-mode power topology (dark = low power mode):", lmQ); err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"paper: after taboo, heavy traffic clusters around middle cores; the low power",
		"mode tracks the communication pattern with non-contiguous destinations")
	return t, nil
}
