package lp

import "math"

// Warm captures the final simplex state of an Optimal solve so a subsequent
// problem with the SAME structure (variables, bounds, costs, constraint
// matrix, senses) but different right-hand sides can be re-solved from the
// previous optimal basis instead of from scratch.
//
// The mechanism: the tableau stores B⁻¹A, and the artificial columns of that
// product are exactly B⁻¹ (modulo the per-row sign flips recorded at setup).
// An rhs change Δb therefore updates the basic values as
//
//	xB' = xB + Σ_i T[:, art_i] · s_i · Δb_i
//
// without touching the reduced costs. If xB' still satisfies the basis
// bounds, the old basis is immediately optimal for the new rhs and the
// re-solve costs zero pivots; otherwise primal simplex cannot restore
// feasibility and the caller falls back to a cold solve.
type Warm struct {
	t       *tableau
	signs   []float64 // per-row sign applied during tableau setup
	rhs     []float64 // rhs values the tableau currently reflects
	senses  []Sense
	cost    []float64 // padded phase-2 cost vector
	nStruct int
	artIdx  int
}

// compatible reports whether the problem has the same structure the warm
// context was built from, so that only the rhs may differ. Bounds and the
// constraint coefficient matrix are assumed unchanged by the caller (the OPF
// builder regenerates them identically for a fixed topology); costs and
// shape are checked because they are cheap and rule out gross misuse.
func (w *Warm) compatible(p *Problem) bool {
	if w == nil || w.t == nil {
		return false
	}
	if len(p.cons) != len(w.senses) || p.NumVariables() != w.nStruct {
		return false
	}
	for i, c := range p.cons {
		if c.sense != w.senses[i] {
			return false
		}
	}
	for j, c := range p.cost {
		if c != w.cost[j] {
			return false
		}
	}
	return true
}

// SolveWarm solves the problem, reusing the previous optimal basis in w when
// possible. It returns the solution together with a warm context for the
// NEXT call: on a successful warm re-solve that is w itself (updated in
// place); on a cold solve it is a freshly captured context. A warm context
// must not be shared across goroutines, and after SolveWarm returns an error
// the context passed in must be discarded.
//
// Pass w == nil to force a cold solve.
func (p *Problem) SolveWarm(w *Warm) (*Solution, *Warm, error) {
	if w != nil && w.compatible(p) {
		if sol, ok := p.warmResolve(w); ok {
			return sol, w, nil
		}
	}
	return p.solveCold(true)
}

// warmResolve attempts an rhs-only re-solve on the retained tableau. It
// returns ok=false when the old basis is infeasible for the new rhs (or the
// re-optimization fails), in which case the tableau state is unusable and
// the caller must solve cold.
func (p *Problem) warmResolve(w *Warm) (*Solution, bool) {
	t := w.t
	t.pivots = 0
	for i, c := range p.cons {
		d := c.rhs - w.rhs[i]
		if d == 0 {
			continue
		}
		s := w.signs[i] * d
		art := w.artIdx + i
		for r := 0; r < t.m; r++ {
			if v := t.a[r*t.n+art]; v != 0 {
				t.xB[r] += v * s
			}
		}
		w.rhs[i] = c.rhs
	}
	for r, b := range t.basis {
		if t.xB[r] < t.lower[b]-feasTol || t.xB[r] > t.upper[b]+feasTol {
			return nil, false
		}
	}
	// The basis is still feasible and the rhs change left every reduced cost
	// untouched, so the old optimal basis remains optimal: iterate returns
	// after zero pivots in the common case. Degenerate numerics could still
	// request pivots; let the usual machinery handle them.
	st, err := t.iterate(w.cost)
	if err != nil || st != Optimal {
		return nil, false
	}
	sol := t.extract(p)
	sol.Warmed = true
	// Clamp tiny negative zeros introduced by the delta update so downstream
	// consumers see the same canonical values a cold solve produces.
	for j, v := range sol.X {
		if v == 0 && math.Signbit(v) {
			sol.X[j] = 0
		}
	}
	return sol, true
}
