package analysis

// Facts are per-function properties computed from the declaration body
// and propagated across call (and method-value) edges to a fixpoint,
// so a fact established three packages away still reaches the caller:
//
//   - Spawns: the function starts a goroutine, directly or through
//     anything it calls.
//   - WallClock: the function reads time.Now somewhere beneath it.
//   - Allocates: the function allocates in one of the forms the
//     hotalloc analyzer polices (fmt.Sprintf, map literals).
//   - CancelAware: the function observes cancellation — a select with
//     a receive case, a channel receive or range, ctx.Done()/ctx.Err(),
//     or a dynamic call handed a context.Context.
//   - MutatesParam: per fact-parameter (receiver first for methods):
//     the function writes through the parameter (p.f = x, *p = x,
//     p[i] = x, p.n++), directly or through a callee it passes the
//     parameter to.
//
// Boolean facts flow caller-ward along every edge; parameter facts
// flow only through call edges whose argument is itself a caller
// parameter (Edge.ArgFlow).
type Facts struct {
	Spawns      bool
	WallClock   bool
	Allocates   bool
	CancelAware bool

	MutatesParam []bool
}

// propagateFacts iterates the whole graph until no fact changes.
// Facts only ever flip false -> true, so the fixpoint is reached in at
// most O(edges × facts) rounds; module graphs are small enough that
// the simple repeated sweep is fine.
func (m *Module) propagateFacts() {
	for changed := true; changed; {
		changed = false
		for _, n := range m.nodes {
			for _, e := range n.Edges {
				callee := m.nodes[e.Callee]
				if callee == nil {
					continue
				}
				cf := &callee.Facts
				if cf.Spawns && !n.Facts.Spawns {
					n.Facts.Spawns, changed = true, true
				}
				if cf.WallClock && !n.Facts.WallClock {
					n.Facts.WallClock, changed = true, true
				}
				if cf.Allocates && !n.Facts.Allocates {
					n.Facts.Allocates, changed = true, true
				}
				if cf.CancelAware && !n.Facts.CancelAware {
					n.Facts.CancelAware, changed = true, true
				}
				for calleeIdx, callerIdx := range e.ArgFlow {
					if callerIdx < 0 || calleeIdx >= len(cf.MutatesParam) {
						continue
					}
					if cf.MutatesParam[calleeIdx] && !n.Facts.MutatesParam[callerIdx] {
						n.Facts.MutatesParam[callerIdx], changed = true, true
					}
				}
			}
		}
	}
}
