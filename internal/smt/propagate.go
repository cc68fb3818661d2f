package smt

import "math/big"

// Theory-level bound propagation (Dutertre & de Moura, CAV 2006, Sec. 4):
// after each successful simplex check the solver knows, for every variable,
// an asserted bound interval and — for basic variables — an implied interval
// derived from the tableau row and the bounds of its columns. Any unassigned
// atom whose bound is entailed by one of those intervals can be pushed into
// the SAT core as a propagated literal instead of waiting for the boolean
// search to branch on it. Each propagation carries a theory explanation
// clause (implied literal + negated premises) that serves as the enqueue
// reason for conflict analysis and, in certification mode, is logged as a
// Farkas-annotated theory lemma exactly like a simplex conflict.

// rowBounds caches the bounds implied by one basic variable's tableau row:
// row value = sum(c_j * x_j), so an upper bound follows when every positive
// column has an upper bound and every negative column a lower bound (and
// symmetrically for the lower side). Only the two sums are kept; most rows
// imply nothing, so a side's premises are collected (rowPremises) only when
// a literal is actually propagated from it.
type rowBounds struct {
	basic      int
	upOK, loOK bool
	up, lo     drat64
}

// boundFeeding returns the bound of column j that feeds the upper (or lower)
// side of a row sum through coefficient c: the same-direction bound for a
// positive coefficient, the opposite one for a negative coefficient.
func (sp *simplex) boundFeeding(j int, c rat64, upper bool) *hbound {
	if (c.Sign() > 0) == upper {
		return &sp.ub[j]
	}
	return &sp.lb[j]
}

// deriveRowBounds computes both implied bounds of basic variable b's row.
func (s *Solver) deriveRowBounds(b int) *rowBounds {
	sp := s.simp
	row := &sp.rows[b]
	rb := &rowBounds{basic: b, upOK: true, loOK: true, up: d64FromInt(0), lo: d64FromInt(0)}
	for i, jc := range row.cols {
		j, c := int(jc), row.vals[i]
		if rb.upOK {
			if hb := sp.boundFeeding(j, c, true); hb.active {
				rb.up = sp.daddScaled(rb.up, c, hb.val)
			} else {
				rb.upOK = false
			}
		}
		if rb.loOK {
			if hb := sp.boundFeeding(j, c, false); hb.active {
				rb.lo = sp.daddScaled(rb.lo, c, hb.val)
			} else {
				rb.loOK = false
			}
		}
		if !rb.upOK && !rb.loOK {
			break
		}
	}
	return rb
}

// rowPremises returns the bound literals behind one side of rb, in row
// order, and — when certifying — their Farkas multipliers |c_j|. The side
// is OK, so every column's feeding bound is active; bounds and rows do not
// change while a propagation round runs.
func (s *Solver) rowPremises(rb *rowBounds, upper bool) ([]literal, []*big.Rat) {
	sp := s.simp
	row := &sp.rows[rb.basic]
	lits := make([]literal, 0, len(row.cols))
	var farkas []*big.Rat
	for i, jc := range row.cols {
		c := row.vals[i]
		lits = append(lits, sp.boundFeeding(int(jc), c, upper).reason)
		if s.Certify {
			farkas = append(farkas, sp.abs(c).toBig())
		}
	}
	return lits, farkas
}

// theoryPropagate derives implied atom literals at a theory-consistent
// fixpoint and enqueues them in the SAT core. It reports whether anything was
// propagated (the caller then re-runs BCP before spending a decision). Rounds
// are skipped entirely while the simplex bound/tableau revision is unchanged,
// so boolean-only decision levels cost nothing here.
func (s *Solver) theoryPropagate() bool {
	if s.NoPropagate || len(s.atomSlacks) == 0 {
		return false
	}
	sp := s.simp
	if sp.boundRev == s.lastPropRev {
		return false
	}
	s.lastPropRev = sp.boundRev
	any := false
	for _, slack := range s.atomSlacks {
		ub, lb := &sp.ub[slack], &sp.lb[slack]
		var rb *rowBounds // derived lazily, only when an atom is unassigned
		for _, a := range s.atomsBySlack[slack] {
			if s.core.assign[a.v] != unassigned {
				continue
			}
			if rb == nil && sp.basic[slack] {
				rb = s.deriveRowBounds(slack)
			}
			if s.tryImply(mkLit(a.v, false), a.info.isUpper, a.info.pVal, ub, lb, rb) ||
				s.tryImply(mkLit(a.v, true), !a.info.isUpper, a.info.nVal, ub, lb, rb) {
				any = true
			}
		}
	}
	return any
}

// tryImply checks whether literal l — which asserts bound (wantUpper, val) on
// its atom's slack variable — is entailed by the asserted bounds (ub/lb) or
// the row-derived bounds (rb, nil for nonbasic slacks), and propagates it if
// so. Asserted bounds win ties: their explanation is a single premise.
func (s *Solver) tryImply(l literal, wantUpper bool, val drat64, ub, lb *hbound, rb *rowBounds) bool {
	sp := s.simp
	if wantUpper {
		// Need a known upper bound <= val.
		if ub.active && sp.dcmp(ub.val, val) <= 0 {
			return s.propagateLit(l, []literal{ub.reason}, s.unitFarkas())
		}
		if rb != nil && rb.upOK && sp.dcmp(rb.up, val) <= 0 {
			lits, farkas := s.rowPremises(rb, true)
			return s.propagateLit(l, lits, farkas)
		}
		return false
	}
	// Need a known lower bound >= val.
	if lb.active && sp.dcmp(lb.val, val) >= 0 {
		return s.propagateLit(l, []literal{lb.reason}, s.unitFarkas())
	}
	if rb != nil && rb.loOK && sp.dcmp(rb.lo, val) >= 0 {
		lits, farkas := s.rowPremises(rb, false)
		return s.propagateLit(l, lits, farkas)
	}
	return false
}

func (s *Solver) unitFarkas() []*big.Rat {
	if !s.Certify {
		return nil
	}
	return []*big.Rat{big.NewRat(1, 1)}
}

// propagateLit enqueues implied literal l with a theory explanation clause
// l | !p_1 | ... | !p_n built from the premise bound literals. The clause is
// added to the clause database (it is a valid theory lemma, reusable after
// backtracking) and, when certifying, logged as a Farkas step: the premises
// plus the negation of l are jointly infeasible, with multiplier 1 on !l and
// the premise multipliers as derived — the same shape as a simplex conflict,
// so the certificate checker needs no new machinery.
func (s *Solver) propagateLit(l literal, premises []literal, farkas []*big.Rat) bool {
	// After a successful check the assignment satisfies all asserted bounds,
	// so an entailed literal cannot be assigned false; guard anyway so an
	// inconsistent state degrades to "no propagation" rather than corruption.
	if v := l.variable(); s.core.assign[v] != unassigned {
		return false
	}
	lits := make([]literal, 0, len(premises)+1)
	lits = append(lits, l)
	for _, p := range premises {
		lits = append(lits, p.not())
	}
	if s.Certify {
		tlits := make([]literal, 0, len(premises)+1)
		tlits = append(tlits, l.not())
		tlits = append(tlits, premises...)
		fk := make([]*big.Rat, 0, len(farkas)+1)
		fk = append(fk, big.NewRat(1, 1))
		fk = append(fk, farkas...)
		// Log before the clause can appear in any later derivation.
		s.steps = append(s.steps, proofStep{
			lits:   append([]literal(nil), lits...),
			theory: true,
			tlits:  tlits,
			farkas: fk,
		})
	}
	cl := &clause{lits: lits, learned: true}
	s.core.clauses = append(s.core.clauses, cl)
	s.core.attach(cl)
	s.core.enqueue(l, cl)
	s.theoryProps++
	return true
}
