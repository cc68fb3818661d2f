// Package smt implements a small Satisfiability Modulo Theories solver for
// the quantifier-free theory of linear real arithmetic combined with
// propositional logic (QF_LRA) — the fragment the paper solves with Z3.
//
// Architecture (following Dutertre & de Moura, "A Fast Linear-Arithmetic
// Solver for DPLL(T)", CAV 2006):
//
//   - formulas over boolean variables and linear-arithmetic atoms are
//     Tseitin-encoded to CNF (cnf.go);
//   - a CDCL SAT solver with watched literals, 1UIP clause learning, VSIDS
//     branching, phase saving and Luby restarts enumerates boolean models
//     (sat.go);
//   - every distinct linear form gets a slack variable; arithmetic atoms
//     become bounds on slack variables, maintained by an incremental general
//     simplex over exact delta-rationals (simplex.go);
//   - theory conflicts are returned to the SAT core as learned clauses.
//
// All arithmetic is exact (math/big.Rat), so sat/unsat answers are sound —
// a property the impact-analysis framework depends on when it reports that
// *no* attack achieves a target cost increase.
package smt

import (
	"fmt"
	"math/big"
)

// DRat is a delta-rational a + b*delta, where delta is a symbolic positive
// infinitesimal. Delta-rationals let the simplex handle strict inequalities
// exactly: x < c is represented as x <= c - delta.
type DRat struct {
	A *big.Rat // standard part
	B *big.Rat // delta coefficient
}

// NewDRat returns the delta-rational a + b*delta.
func NewDRat(a, b *big.Rat) DRat {
	return DRat{A: new(big.Rat).Set(a), B: new(big.Rat).Set(b)}
}

// DRatFromRat returns the delta-rational with standard part r.
func DRatFromRat(r *big.Rat) DRat {
	return DRat{A: new(big.Rat).Set(r), B: new(big.Rat)}
}

// DRatFromInt returns the delta-rational with integer standard part n.
func DRatFromInt(n int64) DRat {
	return DRat{A: new(big.Rat).SetInt64(n), B: new(big.Rat)}
}

// Add returns d + o.
func (d DRat) Add(o DRat) DRat {
	return DRat{
		A: new(big.Rat).Add(d.A, o.A),
		B: new(big.Rat).Add(d.B, o.B),
	}
}

// Sub returns d - o.
func (d DRat) Sub(o DRat) DRat {
	return DRat{
		A: new(big.Rat).Sub(d.A, o.A),
		B: new(big.Rat).Sub(d.B, o.B),
	}
}

// ScaleRat returns r*d for a plain rational r.
func (d DRat) ScaleRat(r *big.Rat) DRat {
	return DRat{
		A: new(big.Rat).Mul(d.A, r),
		B: new(big.Rat).Mul(d.B, r),
	}
}

// Neg returns -d.
func (d DRat) Neg() DRat {
	return DRat{A: new(big.Rat).Neg(d.A), B: new(big.Rat).Neg(d.B)}
}

// Cmp compares d and o lexicographically ((A, B) order), which matches the
// order of a + b*delta for infinitesimal positive delta. It returns -1, 0,
// or +1.
func (d DRat) Cmp(o DRat) int {
	if c := d.A.Cmp(o.A); c != 0 {
		return c
	}
	return d.B.Cmp(o.B)
}

// Equal reports whether d == o exactly.
func (d DRat) Equal(o DRat) bool { return d.Cmp(o) == 0 }

// Clone returns an independent copy of d.
func (d DRat) Clone() DRat {
	return DRat{A: new(big.Rat).Set(d.A), B: new(big.Rat).Set(d.B)}
}

// Float64 evaluates d with the given concrete delta.
func (d DRat) Float64(delta float64) float64 {
	a, _ := d.A.Float64()
	b, _ := d.B.Float64()
	return a + b*delta
}

// Substitute returns the plain rational value of d for a concrete positive
// rational delta.
func (d DRat) Substitute(delta *big.Rat) *big.Rat {
	out := new(big.Rat).Mul(d.B, delta)
	return out.Add(out, d.A)
}

// String renders d for debugging, e.g. "3/2 + 1δ".
func (d DRat) String() string {
	if d.B.Sign() == 0 {
		return d.A.RatString()
	}
	return fmt.Sprintf("%s + %sδ", d.A.RatString(), d.B.RatString())
}

// bound is one side of a variable's admissible interval in the simplex,
// together with the literal that caused it (for conflict explanations).
type bound struct {
	val    DRat
	reason literal
	active bool
}
