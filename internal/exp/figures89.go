package exp

import (
	"context"
	"fmt"
	"strings"

	"mnoc/internal/core"
	"mnoc/internal/power"
	"mnoc/internal/stats"
	"mnoc/internal/topo"
	"mnoc/internal/trace"
	"mnoc/internal/workload"
)

// designSpec is one evaluated column: a registry design, on naive or
// QAP-mapped traffic.
type designSpec struct {
	spec core.Spec
	// mapped selects QAP-mapped (T) vs naive traffic.
	mapped bool
}

// name is the column's Table 5 name: the spec's, with T after the mode
// count when the traffic is QAP-mapped ("2M_T_N_U").
func (s designSpec) name() string {
	name := s.spec.Name()
	if !s.mapped {
		return name
	}
	i := strings.IndexByte(name, 'M') + 1
	return name[:i] + "_T" + name[i:]
}

// evaluateSpecs runs every spec over every benchmark and returns a table
// of per-benchmark normalized power (vs the 1M naive base) plus
// harmonic means.
func evaluateSpecs(ctx context.Context, c *Context, id, title string, specs []designSpec, notes []string) (*Table, error) {
	t := &Table{ID: id, Title: title}
	t.Header = []string{"benchmark"}
	for _, s := range specs {
		t.Header = append(t.Header, s.name())
	}
	norm := make([][]float64, len(specs)) // per spec, per-bench normalized

	for _, b := range c.Benchmarks() {
		naive, err := c.Shape(ctx, b.Name)
		if err != nil {
			return nil, err
		}
		baseW, err := c.evaluateWatts(c.base, naive)
		if err != nil {
			return nil, err
		}
		row := []string{b.Name}
		for i, s := range specs {
			net, err := c.specNetwork(ctx, s.spec)
			if err != nil {
				return nil, err
			}
			m := naive
			if s.mapped {
				if m, err = c.Mapped(ctx, b.Name); err != nil {
					return nil, err
				}
			}
			w, err := c.evaluateWatts(net, m)
			if err != nil {
				return nil, err
			}
			v := w / baseW
			norm[i] = append(norm[i], v)
			row = append(row, f3(v))
		}
		t.Rows = append(t.Rows, row)
	}

	hrow := []string{"hmean"}
	for i := range specs {
		h, err := stats.HarmonicMean(norm[i])
		if err != nil {
			return nil, err
		}
		hrow = append(hrow, f3(h))
	}
	t.Rows = append(t.Rows, hrow)
	t.Notes = notes
	return t, nil
}

// Fig8 reproduces Figure 8: distance-based power topologies with and
// without QAP thread mapping, normalized to the single-mode base mNoC.
func Fig8(ctx context.Context, c *Context) (*Table, error) {
	specs := []designSpec{
		{core.Base, false}, {core.Base, true},
		{core.Dist2, false}, {core.Dist2, true},
		{core.Dist4, false}, {core.Dist4, true},
		{core.Cluster2, false},
	}
	return evaluateSpecs(ctx, c, "fig8",
		"Distance-based power topologies ± QAP thread mapping (normalized mNoC power)",
		specs,
		[]string{
			"paper averages: 2M_N_U 0.90, 4M_N_U 0.88, 1M_T 0.73, 2M_T_N_U 0.62, 4M_T_N_U 0.61",
			"paper: the clustered power topology (2M_C_U) saves only ~1%",
		})
}

// Fig9 reproduces Figure 9: communication-aware (G) vs distance-based
// (N) mode assignment under sampled splitter weights (S4 = lu_cb,
// radix, raytrace, water_s; S12 = all benchmarks), all with QAP
// mapping.
func Fig9(ctx context.Context, c *Context) (*Table, error) {
	var specs []designSpec
	for _, modes := range []int{2, 4} {
		for _, w := range []core.Weighting{core.S4, core.S12} {
			for _, f := range []core.Family{core.Distance, core.CommAware} {
				specs = append(specs, designSpec{core.Spec{Family: f, Modes: modes, Weighting: w}, true})
			}
		}
	}
	return evaluateSpecs(ctx, c, "fig9",
		"Communication-aware vs distance-based mode assignment (normalized mNoC power)",
		specs,
		[]string{
			"paper: G beats N by ~7% (2 modes) / ~10% (4 modes); S12 beats S4;",
			"best overall 4M_T_G_S12 at 0.49 of base vs 0.53 for the 2-mode design",
		})
}

// AppSpecific reproduces Section 5.5: per-benchmark custom topologies
// (2- and 4-mode communication-aware designs built from each
// benchmark's own profile).
func AppSpecific(ctx context.Context, c *Context) (*Table, error) {
	t := &Table{
		ID:     "appspecific",
		Title:  "Application-specific power topologies (normalized mNoC power, QAP mapping)",
		Header: []string{"benchmark", "2M_T_C", "4M_T_C"},
	}
	var v2, v4 []float64
	for _, b := range c.Benchmarks() {
		naive, err := c.Shape(ctx, b.Name)
		if err != nil {
			return nil, err
		}
		baseW, err := c.evaluateWatts(c.base, naive)
		if err != nil {
			return nil, err
		}
		mapped, err := c.Mapped(ctx, b.Name)
		if err != nil {
			return nil, err
		}
		row := []string{b.Name}
		for _, modes := range []int{2, 4} {
			var net *power.MNoC
			if modes == 2 {
				net, err = core.Comm2.OnProfile().Network(c.Cfg, mapped)
			} else {
				// Section 5.5's 4-mode designs use the paper's fixed manual
				// partition, not the registry's scored candidate search.
				var tp *topo.Topology
				tp, err = topo.CommAware(mapped, topo.ScalePartition(topo.Paper4ModePartition, c.Opt.N), "C4_"+b.Name)
				if err == nil {
					net, err = power.NewMNoC(c.Cfg, tp, power.SampledWeighting(mapped))
				}
			}
			if err != nil {
				return nil, fmt.Errorf("exp: comm-aware %d-mode network for %s: %w", modes, b.Name, err)
			}
			w, err := c.evaluateWatts(net, mapped)
			if err != nil {
				return nil, err
			}
			v := w / baseW
			if modes == 2 {
				v2 = append(v2, v)
			} else {
				v4 = append(v4, v)
			}
			row = append(row, f3(v))
		}
		t.Rows = append(t.Rows, row)
	}
	h2, err := stats.HarmonicMean(v2)
	if err != nil {
		return nil, fmt.Errorf("exp: 2-mode mean: %w", err)
	}
	h4, err := stats.HarmonicMean(v4)
	if err != nil {
		return nil, fmt.Errorf("exp: 4-mode mean: %w", err)
	}
	t.Rows = append(t.Rows, []string{"hmean", f3(h2), f3(h4)})
	t.Notes = []string{
		"paper (5.5): app-specific designs beat naive distance-based by only ~8% on",
		"average — 'keep it simple' — but help embedded systems with known patterns",
	}
	return t, nil
}

// Sensitivity reproduces Section 5.6: how splitter-design traffic
// weights (uniform, 66/33, 33/66, S4, S12) change total power for the
// application-specific 2-mode topology with QAP mapping.
func Sensitivity(ctx context.Context, c *Context) (*Table, error) {
	s4, err := c.SampledMatrix(ctx, workload.SampleS4)
	if err != nil {
		return nil, err
	}
	s12, err := c.SampledMatrix(ctx, workload.Names())
	if err != nil {
		return nil, err
	}
	weightings := []struct {
		name string
		w    func(mapped *trace.Matrix) power.Weighting
	}{
		{"U", func(*trace.Matrix) power.Weighting { return power.UniformWeighting(2) }},
		{"66/33", func(*trace.Matrix) power.Weighting { return power.Weighting{Fracs: []float64{0.66, 0.34}} }},
		{"33/66", func(*trace.Matrix) power.Weighting { return power.Weighting{Fracs: []float64{0.34, 0.66}} }},
		{"S4", func(*trace.Matrix) power.Weighting { return power.SampledWeighting(s4) }},
		{"S12", func(*trace.Matrix) power.Weighting { return power.SampledWeighting(s12) }},
		{"self", func(m *trace.Matrix) power.Weighting { return power.SampledWeighting(m) }},
	}
	t := &Table{
		ID:     "sensitivity",
		Title:  "Splitter-design sensitivity to traffic weights (2M app-specific, QAP mapping)",
		Header: []string{"weighting", "hmean normalized power"},
	}
	for _, wt := range weightings {
		var vals []float64
		for _, b := range c.Benchmarks() {
			naive, err := c.Shape(ctx, b.Name)
			if err != nil {
				return nil, err
			}
			baseW, err := c.evaluateWatts(c.base, naive)
			if err != nil {
				return nil, err
			}
			mapped, err := c.Mapped(ctx, b.Name)
			if err != nil {
				return nil, err
			}
			tp, err := core.Comm2.OnProfile().Topology(c.Cfg, mapped)
			if err != nil {
				return nil, fmt.Errorf("exp: sensitivity topology for %s: %w", b.Name, err)
			}
			net, err := power.NewMNoC(c.Cfg, tp, wt.w(mapped))
			if err != nil {
				return nil, fmt.Errorf("exp: sensitivity network for %s (%s): %w", b.Name, wt.name, err)
			}
			w, err := c.evaluateWatts(net, mapped)
			if err != nil {
				return nil, err
			}
			vals = append(vals, w/baseW)
		}
		h, err := stats.HarmonicMean(vals)
		if err != nil {
			return nil, fmt.Errorf("exp: sensitivity mean for %s: %w", wt.name, err)
		}
		t.Rows = append(t.Rows, []string{wt.name, f3(h)})
	}
	t.Notes = []string{
		"paper (5.6): variation across weightings is within 2%; all achieve >40% reduction —",
		"splitter ratios compensate for weight changes",
	}
	return t, nil
}
