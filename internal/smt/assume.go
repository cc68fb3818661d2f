package smt

import (
	"context"
	"fmt"
)

// Solving under assumptions (minisat-style): CheckAssuming decides the
// asserted formulas conjoined with a set of assumption literals that are
// retracted when the call returns. Each assumption occupies its own decision
// level (1..k), injected at the solver's decision point, so the permanent
// level-0 state — learned clauses, the unsat latch, theory bounds — is never
// contaminated by them. An Unsat answer therefore comes in two flavors:
//
//   - relative: some assumption was refuted. The solver stays usable, the
//     unsat latch is NOT set, and FailedAssumptions returns a subset of the
//     assumptions that is already jointly refuted by the assertions.
//   - global: the assertions alone are unsat (a level-0 conflict). The latch
//     is set exactly as a plain Check would, and FailedAssumptions is empty.
//
// This is what makes the analyzer's incremental ladder sound: cost caps and
// per-rung bounds ride in as assumption literals, get answered, and vanish —
// no monotonicity requirement, no rebuild, no poisoned latch.

// Lit is a public handle to a solver literal, used to pass assumptions.
// Obtain one from LitOf (a boolean variable's polarity) or InternFormula
// (an arbitrary formula's Tseitin literal).
type Lit struct{ l literal }

// LitOf returns the literal asserting boolean variable v has the given value.
func LitOf(v int, val bool) Lit { return Lit{mkLit(v, !val)} }

// Neg returns the complement literal.
func (l Lit) Neg() Lit { return Lit{l.l.not()} }

// Var returns the underlying solver variable index.
func (l Lit) Var() int { return l.l.variable() }

// String renders the literal for debugging.
func (l Lit) String() string { return l.l.String() }

// InternFormula translates f to CNF (reusing the solver's Tseitin and atom
// caches) and returns a literal equivalent to f under the defining clauses —
// without asserting f itself. The literal can then be assumed positively or
// negatively in CheckAssuming calls, which is how retractable constraints are
// expressed on a solver whose assertions are permanent.
func (s *Solver) InternFormula(f *Formula) Lit {
	s.backtrackAll()
	s.model = false
	return Lit{s.tseitinLit(f)}
}

// CheckAssuming is Check under the given assumption literals. See the package
// comment above for the relative/global Unsat distinction. Not supported in
// certifying mode: an Unsat certificate would wrongly claim the assertions
// alone are unsat, so the call errors out up front and the caller must use
// the cold (assertion-only) path when certificates are required.
func (s *Solver) CheckAssuming(assumps ...Lit) (Result, error) {
	if s.Certify {
		return 0, fmt.Errorf("smt: CheckAssuming is not supported with Certify enabled (an unsat-under-assumptions certificate would be unsound); use the cold re-assert path")
	}
	s.assumps = s.assumps[:0]
	for _, a := range assumps {
		s.assumps = append(s.assumps, a.l)
	}
	defer func() { s.assumps = s.assumps[:0] }()
	res, err := s.check()
	if err == nil && res == Unsat && !s.assumpRelative {
		// Global unsat: the assertions alone are contradictory, so latch it
		// exactly like Check does (the conflict was consumed when found).
		s.core.unsatisfiable = true
	}
	return res, err
}

// CheckAssumingContext is CheckAssuming with context cancellation, mirroring
// CheckContext.
func (s *Solver) CheckAssumingContext(ctx context.Context, assumps ...Lit) (Result, error) {
	return s.withContext(ctx, func() (Result, error) { return s.CheckAssuming(assumps...) })
}

// FailedAssumptions returns, after a relative Unsat from CheckAssuming, a
// subset of the assumption literals that the assertions jointly refute
// (analyzeFinal over the reason graph). After a Sat answer, a global Unsat,
// or an error it returns nil. The slice is valid until the next check call.
func (s *Solver) FailedAssumptions() []Lit {
	if !s.assumpRelative {
		return nil
	}
	out := make([]Lit, len(s.failedAssumps))
	for i, l := range s.failedAssumps {
		out[i] = Lit{l}
	}
	return out
}
