package exp

import (
	"context"
	"fmt"

	"mnoc/internal/core"
	"mnoc/internal/power"
)

// DesignBase is the broadcast base's design kind.
const DesignBase = core.KindBase

// DesignKinds lists the design kinds DesignNetwork accepts: the
// registry's kind table (core.KindSpec), sorted.
func DesignKinds() []string { return core.Kinds() }

// DesignNetwork builds (or loads from the artifact cache) the named
// power-topology design at the context's scale. The kind names reuse
// the figure experiments' cache keys, so a network solved here is a
// warm hit for `mnoc bench` and vice versa.
func (c *Context) DesignNetwork(ctx context.Context, kind string) (*power.MNoC, error) {
	spec, err := core.KindSpec(kind)
	if err != nil {
		return nil, fmt.Errorf("exp: %w", err)
	}
	return c.specNetwork(ctx, spec)
}

// EvaluateDesign solves the named design and evaluates it on one
// benchmark's traffic (QAP-mapped when mapped is set), returning the
// power breakdown plus the base network's total watts on the same
// naive traffic for normalisation. This is the server's /v1/solve
// workhorse; everything flows through the artifact cache.
func (c *Context) EvaluateDesign(ctx context.Context, kind, bench string, mapped bool) (power.Breakdown, float64, error) {
	return c.EvaluateDesignLoss(ctx, kind, bench, mapped, power.LossAverage)
}

// EvaluateDesignLoss is EvaluateDesign under an explicit insertion-loss
// accounting model. Both the named design and the base network used for
// normalisation are priced under the same model, so the returned
// normalisation compares like with like (worst-case design against
// worst-case broadcast). LossAverage reproduces EvaluateDesign exactly;
// the artifact cache is untouched by the model since repricing is a
// cheap in-memory overlay on the cached solve.
func (c *Context) EvaluateDesignLoss(ctx context.Context, kind, bench string, mapped bool, model power.LossModel) (power.Breakdown, float64, error) {
	net, err := c.DesignNetwork(ctx, kind)
	if err != nil {
		return power.Breakdown{}, 0, err
	}
	if net, err = net.WithLossModel(model); err != nil {
		return power.Breakdown{}, 0, fmt.Errorf("exp: repricing design %s: %w", kind, err)
	}
	base, err := c.base.WithLossModel(model)
	if err != nil {
		return power.Breakdown{}, 0, fmt.Errorf("exp: repricing base network: %w", err)
	}
	naive, err := c.Shape(ctx, bench)
	if err != nil {
		return power.Breakdown{}, 0, err
	}
	baseW, err := c.evaluateWatts(base, naive)
	if err != nil {
		return power.Breakdown{}, 0, err
	}
	m := naive
	if mapped {
		if m, err = c.Mapped(ctx, bench); err != nil {
			return power.Breakdown{}, 0, err
		}
	}
	b, err := net.Evaluate(m, c.Opt.Cycles)
	if err != nil {
		return power.Breakdown{}, 0, fmt.Errorf("exp: evaluating design %s on %s: %w", kind, bench, err)
	}
	return b, baseW, nil
}
