package opf

import (
	"context"
	"fmt"
	"time"

	"gridattack/internal/expr"
	"gridattack/internal/grid"
	"gridattack/internal/smt"
)

// FeasibilityModel is a reusable OPF feasibility query: the topology, load,
// and capacity constraints (Eqs. 30-34) are encoded once, and successive cost
// caps (Eq. 35) are evaluated against the same solver, reusing its learned
// clauses and simplex tableau across queries.
//
// Two cap regimes exist:
//
//   - Default (assertion-based): each cap is asserted permanently, so caps
//     must be non-increasing — each new cap only tightens the conjunction.
//     Callers needing both a tight and a generous cap (the analyzer's Eq. 37 /
//     Eq. 38 pair) therefore ask the generous one first. This is the only
//     regime compatible with Certify.
//   - Incremental (assumption-based): each distinct cap value is interned
//     once as a Tseitin literal and passed to the solver as an assumption, so
//     caps are fully retractable and may arrive in any order. This is what
//     the analyzer's incremental ladder uses to ask one encoded model about
//     many thresholds.
type FeasibilityModel struct {
	s     *smt.Solver
	b     *expr.Builder
	g     *grid.Grid
	vars  *Vars
	alpha float64 // total fixed generation cost (sum of alphas)

	lastCap float64
	hasCap  bool

	// Incremental selects the assumption-based cap regime above. Toggling it
	// after the first CheckCostBelow is not supported.
	Incremental bool
	capLits     map[*expr.Node]smt.Lit // hash-consed cap atom -> interned literal

	// MaxPivots bounds simplex pivots per query (0 = unlimited).
	MaxPivots int64
	// Certify makes every query verdict carry a checked certificate; like
	// the solver flag it can only be enabled, never disabled. Incompatible
	// with Incremental (assumption-relative unsat has no certificate).
	Certify bool
}

// NewFeasibilityModel encodes the cap-independent OPF constraints for grid g
// under mapped topology t and the given loads (nil = the grid's own loads).
// maxConflicts and maxDuration bound each subsequent query (0 = unlimited).
func NewFeasibilityModel(g *grid.Grid, t grid.Topology, loads []float64, maxConflicts int64, maxDuration time.Duration) (*FeasibilityModel, error) {
	return NewFeasibilityModelShared(expr.NewBuilder(), g, t, loads, maxConflicts, maxDuration)
}

// NewFeasibilityModelShared is NewFeasibilityModel on a caller-supplied
// expression builder, letting a sequence of per-candidate models share one
// interner and node->Formula cache. Sharing is sound because every model in
// the family allocates its solver variables in the same deterministic order
// (EncodeBaseExpr), so a node's variable handles mean the same thing to each
// solver. The builder must not be used concurrently.
func NewFeasibilityModelShared(b *expr.Builder, g *grid.Grid, t grid.Topology, loads []float64, maxConflicts int64, maxDuration time.Duration) (*FeasibilityModel, error) {
	s := smt.NewSolver()
	s.MaxConflicts = maxConflicts
	s.MaxDuration = maxDuration
	vars, err := EncodeBaseExpr(b, s, g, t, loads)
	if err != nil {
		return nil, err
	}
	var alpha float64
	for _, gen := range g.Generators {
		alpha += gen.Alpha
	}
	return &FeasibilityModel{s: s, b: b, g: g, vars: vars, alpha: alpha}, nil
}

// costNode builds the variable part of the Eq. 35 cost cap:
// sum(beta_j * Pg_j).
func (m *FeasibilityModel) costNode() *expr.Node {
	parts := make([]*expr.Node, len(m.g.Generators))
	for i, gen := range m.g.Generators {
		parts[i] = m.b.ScaleFloat(gen.Beta, m.b.RealVar(m.vars.Gen[i]))
	}
	return m.b.Sum(parts...)
}

// capLit interns the cap atom for costCap as an assumption literal, reusing
// an existing literal for a previously seen cap value.
func (m *FeasibilityModel) capLit(costCap float64) smt.Lit {
	capNode := m.b.CmpFloat(m.costNode(), smt.OpLE, costCap-m.alpha)
	if l, ok := m.capLits[capNode]; ok {
		return l // hash-consing: equal cap values are the same node
	}
	l := m.s.InternFormula(m.b.Lower(capNode))
	if m.capLits == nil {
		m.capLits = make(map[*expr.Node]smt.Lit)
	}
	m.capLits[capNode] = l
	return l
}

// CheckCostBelow reports whether some dispatch serves the loads with total
// cost <= costCap. In the default regime caps must be non-increasing across
// calls (a looser cap than a previous one is an error, because the earlier
// tighter assertion cannot be retracted); in the Incremental regime caps may
// arrive in any order.
func (m *FeasibilityModel) CheckCostBelow(ctx context.Context, costCap float64) (bool, error) {
	if m.Incremental {
		if m.Certify {
			return false, fmt.Errorf("opf: incremental cost caps cannot be certified; use the assertion-based regime")
		}
		m.s.MaxPivots = m.MaxPivots
		res, err := m.s.CheckAssumingContext(ctx, m.capLit(costCap))
		if err != nil {
			return false, err
		}
		return res == smt.Sat, nil
	}
	if m.hasCap && costCap > m.lastCap {
		return false, fmt.Errorf("opf: cost cap %g loosens previous cap %g (caps must be non-increasing)", costCap, m.lastCap)
	}
	if !m.hasCap || costCap < m.lastCap {
		cost := smt.NewLinExpr()
		for i, gen := range m.g.Generators {
			cost.AddFloat(gen.Beta, m.vars.Gen[i])
		}
		m.s.Assert(smt.AtomFloat(cost, smt.OpLE, costCap-m.alpha))
		m.lastCap, m.hasCap = costCap, true
	}
	m.s.MaxPivots = m.MaxPivots
	if m.Certify {
		m.s.Certify = true
	}
	res, err := m.s.CheckContext(ctx)
	if err != nil {
		return false, err
	}
	return res == smt.Sat, nil
}

// Stats returns the underlying solver's effort counters accumulated across
// every CheckCostBelow query on this model.
func (m *FeasibilityModel) Stats() smt.Stats { return m.s.Stats() }

// Dispatch returns the per-bus generation of the most recent satisfying
// query. Valid only after CheckCostBelow returned true.
func (m *FeasibilityModel) Dispatch() []float64 {
	dispatch := make([]float64, m.g.NumBuses())
	for i, gen := range m.g.Generators {
		dispatch[gen.Bus-1] += m.s.RealValueFloat(m.vars.Gen[i])
	}
	return dispatch
}
