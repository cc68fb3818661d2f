package smt

import (
	"math/big"
	"sort"
	"sync/atomic"
	"time"
)

// simplex is an incremental feasibility checker for conjunctions of bounds
// over linear-arithmetic variables, following Dutertre & de Moura's general
// simplex for DPLL(T). Variables 0..nOrig-1 are the user's real variables;
// slack variables introduced for multi-term linear forms follow.
//
// Arithmetic kernel: all tableau coefficients, assignments, and bounds are
// hybrid rationals (rat64: int64 fast path, transparent big.Rat promotion on
// overflow — see rat64.go), and the tableau itself is stored as flat sparse
// rows (sorted column-index + coefficient slices) instead of the previous
// map[int]map[int]*big.Rat. Pivots therefore run as in-place sorted merges
// with no hashing, no pointer-chasing, and — on the fast path — no heap
// allocation at all. The independent certificate checker (certify.go) stays
// on pure big.Rat and shares none of this code.
//
// Invariants:
//   - every basic variable b has a row: b = sum(coeff_j * x_j) over nonbasic j;
//   - the assignment beta satisfies every row equation exactly;
//   - every *nonbasic* variable satisfies its bounds; only basic variables
//     may violate bounds between check() calls.
type simplex struct {
	arith // hybrid-rational context: fast/slow counters + forceBig knob

	nVars int
	rows  []sparseRow // indexed by variable; empty unless basic
	basic []bool
	beta  []drat64
	lb    []hbound
	ub    []hbound

	// basicList mirrors the set of basic variables in ascending order (for
	// Bland's rule) and is maintained incrementally across pivots.
	basicList []int
	// needCheck records whether any bound was tightened (or a conflict
	// left the tableau unvalidated) since the last successful check; when
	// false, check() is a no-op.
	needCheck bool

	// boundRev increments whenever a bound is tightened or the tableau is
	// pivoted; the solver's theory propagation uses it to skip rounds where
	// nothing it could derive has changed.
	boundRev uint64

	trail []bndUndo
	lims  []int

	// deadline, when non-zero, cancels long check() runs (polled every few
	// pivots); the tableau stays consistent on cancellation.
	deadline time.Time

	// stop, when non-nil and set, cancels long check() runs at the next
	// pivot-batch poll (installed by Solver.SetInterrupt).
	stop *atomic.Bool

	// pivotCap, when positive, aborts check() once the cumulative pivot
	// counter reaches it (set by Solver.check from MaxPivots).
	pivotCap int

	// certify, when true, makes conflicts carry Farkas coefficients so the
	// certificate checker can validate theory lemmas without re-running the
	// simplex.
	certify bool

	// Scratch merge buffers: row substitution during a pivot merges into
	// these, then swaps them with the target row's storage, so row backing
	// arrays rotate between the tableau and the scratch slot instead of
	// being reallocated.
	mcols []int32
	mvals []rat64

	pivots   int   // statistics
	rowReuse int64 // pivot merges served entirely from recycled row storage
}

// sparseRow is one tableau row in flat sparse form: parallel slices of
// strictly increasing column indices and their (nonzero) coefficients.
type sparseRow struct {
	cols []int32
	vals []rat64
}

// find returns the index of column j, or -1 when absent (binary search).
func (r *sparseRow) find(j int32) int {
	lo, hi := 0, len(r.cols)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.cols[mid] < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(r.cols) && r.cols[lo] == j {
		return lo
	}
	return -1
}

// removeAt deletes the entry at index i, keeping the row sorted.
func (r *sparseRow) removeAt(i int) {
	copy(r.cols[i:], r.cols[i+1:])
	copy(r.vals[i:], r.vals[i+1:])
	r.cols = r.cols[:len(r.cols)-1]
	r.vals = r.vals[:len(r.vals)-1]
}

// insert places coefficient v at column j (which must be absent).
func (r *sparseRow) insert(j int32, v rat64) {
	lo, hi := 0, len(r.cols)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.cols[mid] < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	r.cols = append(r.cols, 0)
	r.vals = append(r.vals, rat64{})
	copy(r.cols[lo+1:], r.cols[lo:])
	copy(r.vals[lo+1:], r.vals[lo:])
	r.cols[lo] = j
	r.vals[lo] = v
}

// hbound is one side of a variable's admissible interval, in the simplex's
// internal hybrid representation, together with the literal that caused it.
type hbound struct {
	val    drat64
	reason literal
	active bool
}

type bndUndo struct {
	v       int
	isUpper bool
	old     hbound
}

// theoryConflict is a set of literals that cannot be jointly true. When the
// solver runs in certification mode, farkas[i] is the non-negative multiplier
// of the bound asserted by lits[i] in a linear combination that sums to a
// contradiction (0 >= positive), which is exactly what the certificate
// checker re-verifies.
type theoryConflict struct {
	lits   []literal
	farkas []*big.Rat
}

func newSimplex() *simplex {
	return &simplex{}
}

// addVar appends a fresh arithmetic variable and returns its index.
func (s *simplex) addVar() int {
	v := s.nVars
	s.nVars++
	s.rows = append(s.rows, sparseRow{})
	s.basic = append(s.basic, false)
	s.beta = append(s.beta, drat64{a: r64FromInt(0), b: r64FromInt(0)})
	s.lb = append(s.lb, hbound{})
	s.ub = append(s.ub, hbound{})
	return v
}

// addSlack introduces a new basic variable defined as the given linear form
// over existing variables and returns its index. The form's variables may
// themselves be basic; their rows are substituted so the new row only
// references nonbasic variables.
func (s *simplex) addSlack(terms []LinTerm) int {
	v := s.addVar()
	acc := make(map[int32]rat64, len(terms))
	addAccMul := func(j int32, f, v rat64) {
		if cur, ok := acc[j]; ok {
			sum := s.addMul(cur, f, v)
			if sum.IsZero() {
				delete(acc, j)
			} else {
				acc[j] = sum
			}
		} else if sum := s.mul(f, v); !sum.IsZero() {
			acc[j] = sum
		}
	}
	one := r64FromInt(1)
	val := d64FromInt(0)
	for _, t := range terms {
		c := r64FromFrac(t.Coeff.Num(), t.Coeff.Denom())
		if s.basic[t.Var] {
			row := &s.rows[t.Var]
			for i, j := range row.cols {
				addAccMul(j, c, row.vals[i])
			}
		} else {
			addAccMul(int32(t.Var), c, one)
		}
		val = s.daddScaled(val, c, s.beta[t.Var])
	}
	row := sparseRow{
		cols: make([]int32, 0, len(acc)),
		vals: make([]rat64, 0, len(acc)),
	}
	for j := range acc {
		row.cols = append(row.cols, j)
	}
	sort.Slice(row.cols, func(i, k int) bool { return row.cols[i] < row.cols[k] })
	for _, j := range row.cols {
		row.vals = append(row.vals, acc[j])
	}
	s.rows[v] = row
	s.basic[v] = true
	s.basicInsert(v)
	s.beta[v] = val
	return v
}

// basicInsert adds v to the sorted basic list.
func (s *simplex) basicInsert(v int) {
	i := sort.SearchInts(s.basicList, v)
	s.basicList = append(s.basicList, 0)
	copy(s.basicList[i+1:], s.basicList[i:])
	s.basicList[i] = v
}

// basicRemove removes v from the sorted basic list.
func (s *simplex) basicRemove(v int) {
	i := sort.SearchInts(s.basicList, v)
	if i < len(s.basicList) && s.basicList[i] == v {
		s.basicList = append(s.basicList[:i], s.basicList[i+1:]...)
	}
}

// addCoeff accumulates c into row[v] of a big.Rat coefficient map. It is
// used by the certificate checker's Farkas validation (certify.go), which
// deliberately stays on pure big.Rat arithmetic.
func addCoeff(row map[int]*big.Rat, v int, c *big.Rat) {
	if cur, ok := row[v]; ok {
		cur.Add(cur, c)
		if cur.Sign() == 0 {
			delete(row, v)
		}
	} else if c.Sign() != 0 {
		row[v] = new(big.Rat).Set(c)
	}
}

// push marks a backtracking point aligned with a SAT decision level.
func (s *simplex) push() {
	s.lims = append(s.lims, len(s.trail))
}

// popTo undoes all bound assertions made above SAT decision level `level`.
func (s *simplex) popTo(level int) {
	if level >= len(s.lims) {
		return
	}
	mark := s.lims[level]
	for i := len(s.trail) - 1; i >= mark; i-- {
		u := s.trail[i]
		if u.isUpper {
			s.ub[u.v] = u.old
		} else {
			s.lb[u.v] = u.old
		}
	}
	s.trail = s.trail[:mark]
	s.lims = s.lims[:level]
	s.boundRev++
}

// assertBound applies the bound implied by a theory literal. It returns a
// conflict when the new bound contradicts the opposite bound already
// asserted, and nil otherwise.
func (s *simplex) assertBound(v int, isUpper bool, val drat64, reason literal) *theoryConflict {
	if isUpper {
		if s.lb[v].active && s.dcmp(val, s.lb[v].val) < 0 {
			return &theoryConflict{lits: []literal{reason, s.lb[v].reason}, farkas: s.clashFarkas()}
		}
		if s.ub[v].active && s.dcmp(val, s.ub[v].val) >= 0 {
			return nil // not tighter
		}
		s.trail = append(s.trail, bndUndo{v: v, isUpper: true, old: s.ub[v]})
		s.ub[v] = hbound{val: val, reason: reason, active: true}
		s.needCheck = true
		s.boundRev++
		if !s.basic[v] && s.dcmp(s.beta[v], val) > 0 {
			s.update(v, val)
		}
		return nil
	}
	if s.ub[v].active && s.dcmp(val, s.ub[v].val) > 0 {
		return &theoryConflict{lits: []literal{reason, s.ub[v].reason}, farkas: s.clashFarkas()}
	}
	if s.lb[v].active && s.dcmp(val, s.lb[v].val) <= 0 {
		return nil
	}
	s.trail = append(s.trail, bndUndo{v: v, isUpper: false, old: s.lb[v]})
	s.lb[v] = hbound{val: val, reason: reason, active: true}
	s.needCheck = true
	s.boundRev++
	if !s.basic[v] && s.dcmp(s.beta[v], val) < 0 {
		s.update(v, val)
	}
	return nil
}

// clashFarkas returns the Farkas multipliers of a direct bound clash
// (lower > upper on the same variable): one of each, x >= l plus -x >= -u
// with l > u sums to 0 >= l-u > 0. Nil outside certification mode.
func (s *simplex) clashFarkas() []*big.Rat {
	if !s.certify {
		return nil
	}
	return []*big.Rat{big.NewRat(1, 1), big.NewRat(1, 1)}
}

// update moves nonbasic variable v to value val, adjusting every basic
// variable's assignment to keep the row equations satisfied.
func (s *simplex) update(v int, val drat64) {
	theta := s.dsub(val, s.beta[v])
	j := int32(v)
	for _, b := range s.basicList {
		row := &s.rows[b]
		if i := row.find(j); i >= 0 {
			s.beta[b] = s.daddScaled(s.beta[b], row.vals[i], theta)
		}
	}
	s.beta[v] = val
}

// check restores bound satisfaction for basic variables, pivoting as needed.
// It returns nil when the current bounds are satisfiable, or a conflict
// (the set of bound literals forming an infeasible row) otherwise.
//
// Pivot selection starts in a heuristic phase (largest violation, largest
// eligible pivot coefficient) which is dramatically faster in practice, and
// falls back to Bland's rule — which guarantees termination — after a pivot
// budget proportional to the problem size is spent.
func (s *simplex) check() *theoryConflict {
	c, _ := s.checkWithin(time.Time{})
	return c
}

// checkWithin is check with an optional wall-clock deadline and pivot cap;
// on cancellation the bounds stay asserted, needCheck stays true, and the
// reason is reported as ErrCanceled (external stop flag), errDeadlineBudget,
// or errPivotBudget.
func (s *simplex) checkWithin(deadline time.Time) (*theoryConflict, error) {
	if !s.needCheck {
		return nil, nil
	}
	heuristicBudget := 100 + 4*s.nVars
	for pivots := 0; ; pivots++ {
		if s.pivotCap > 0 && s.pivots >= s.pivotCap {
			return nil, errPivotBudget
		}
		// Poll every few pivots: on big systems with blown-up rational
		// coefficients a single pivot can take seconds, so a sparse poll
		// interval would overshoot the deadline by multiples of it.
		if pivots%8 == 7 {
			if s.stop != nil && s.stop.Load() {
				return nil, ErrCanceled
			}
			if !deadline.IsZero() && time.Now().After(deadline) {
				return nil, errDeadlineBudget
			}
		}
		bland := pivots >= heuristicBudget
		b := -1
		var needRaise bool
		if bland {
			// Bland's rule: smallest violating basic variable.
			for _, cand := range s.basicList {
				if s.lb[cand].active && s.dcmp(s.beta[cand], s.lb[cand].val) < 0 {
					b, needRaise = cand, true
					break
				}
				if s.ub[cand].active && s.dcmp(s.beta[cand], s.ub[cand].val) > 0 {
					b, needRaise = cand, false
					break
				}
			}
		} else {
			// Heuristic: the basic variable with the largest violation.
			var worst drat64
			for _, cand := range s.basicList {
				if s.lb[cand].active && s.dcmp(s.beta[cand], s.lb[cand].val) < 0 {
					gap := s.dsub(s.lb[cand].val, s.beta[cand])
					if b < 0 || s.dcmp(gap, worst) > 0 {
						b, needRaise, worst = cand, true, gap
					}
				}
				if s.ub[cand].active && s.dcmp(s.beta[cand], s.ub[cand].val) > 0 {
					gap := s.dsub(s.beta[cand], s.ub[cand].val)
					if b < 0 || s.dcmp(gap, worst) > 0 {
						b, needRaise, worst = cand, false, gap
					}
				}
			}
		}
		if b < 0 {
			s.needCheck = false
			return nil, nil
		}
		// The row's columns are already sorted, so both Bland's rule and the
		// heuristic scan them in ascending order with no sort step.
		row := &s.rows[b]
		eligible := func(c rat64, j int) bool {
			if needRaise {
				// beta[b] must increase: raise x_j if coeff > 0 and x_j can
				// grow, or lower x_j if coeff < 0 and x_j can shrink.
				return (c.Sign() > 0 && (!s.ub[j].active || s.dcmp(s.beta[j], s.ub[j].val) < 0)) ||
					(c.Sign() < 0 && (!s.lb[j].active || s.dcmp(s.beta[j], s.lb[j].val) > 0))
			}
			return (c.Sign() > 0 && (!s.lb[j].active || s.dcmp(s.beta[j], s.lb[j].val) > 0)) ||
				(c.Sign() < 0 && (!s.ub[j].active || s.dcmp(s.beta[j], s.ub[j].val) < 0))
		}
		pivotCol := -1
		if bland {
			for i, j := range row.cols {
				if eligible(row.vals[i], int(j)) {
					pivotCol = int(j)
					break
				}
			}
		} else {
			// Largest |coefficient| among eligible columns: fewer, better
			// conditioned pivots.
			var best rat64
			for i, j := range row.cols {
				if !eligible(row.vals[i], int(j)) {
					continue
				}
				abs := s.abs(row.vals[i])
				if pivotCol < 0 || s.cmp(abs, best) > 0 {
					pivotCol = int(j)
					best = abs
				}
			}
		}
		if pivotCol < 0 {
			// The row is stuck at every limit: the violated bound on b plus
			// the limiting bounds of the row variables are jointly
			// infeasible. The Farkas multipliers are 1 for b's bound and
			// |coeff_j| for each limiting column bound: combined with the row
			// identity b = sum(coeff_j x_j), the variable parts cancel and
			// the bound constants sum to a strict contradiction.
			confl := &theoryConflict{}
			if needRaise {
				confl.lits = append(confl.lits, s.lb[b].reason)
			} else {
				confl.lits = append(confl.lits, s.ub[b].reason)
			}
			if s.certify {
				confl.farkas = append(confl.farkas, big.NewRat(1, 1))
			}
			for i, j := range row.cols {
				c := row.vals[i]
				if (needRaise && c.Sign() > 0) || (!needRaise && c.Sign() < 0) {
					confl.lits = append(confl.lits, s.ub[j].reason)
				} else {
					confl.lits = append(confl.lits, s.lb[j].reason)
				}
				if s.certify {
					confl.farkas = append(confl.farkas, s.abs(c).toBig())
				}
			}
			return confl, nil
		}
		var target drat64
		if needRaise {
			target = s.lb[b].val
		} else {
			target = s.ub[b].val
		}
		s.pivotAndUpdate(b, pivotCol, target)
	}
}

// pivotAndUpdate sets basic variable b to value target by moving nonbasic
// variable j, then swaps their roles in the tableau. On the rat64 fast path
// the whole operation is allocation-free.
func (s *simplex) pivotAndUpdate(b, j int, target drat64) {
	s.pivots++
	s.boundRev++
	rowB := &s.rows[b]
	a := rowB.vals[rowB.find(int32(j))]
	ainv := s.inv(a)
	theta := s.dscale(s.dsub(target, s.beta[b]), ainv)
	s.beta[b] = target
	s.beta[j] = s.dadd(s.beta[j], theta)
	jc := int32(j)
	for _, other := range s.basicList {
		if other == b {
			continue
		}
		row := &s.rows[other]
		if i := row.find(jc); i >= 0 {
			s.beta[other] = s.daddScaled(s.beta[other], row.vals[i], theta)
		}
	}
	s.pivot(b, j)
}

// pivot swaps basic variable b with nonbasic variable j. The old row of b is
// transformed in place into the new row of j, and every other row's
// substitution runs as a sorted two-pointer merge whose result storage
// rotates through the scratch buffers — no maps, no hashing, and no
// allocation once the buffers have grown to the working-set size.
func (s *simplex) pivot(b, j int) {
	rowB := s.rows[b]
	s.rows[b] = sparseRow{}
	i := rowB.find(int32(j))
	a := rowB.vals[i]
	rowB.removeAt(i)

	// Transform rowB in place into the row for j:
	// x_j = (x_b - sum_{k != j} c_k x_k) / a.
	ainv := s.inv(a)
	nainv := s.neg(ainv)
	for k := range rowB.vals {
		rowB.vals[k] = s.mul(rowB.vals[k], nainv)
	}
	rowB.insert(int32(b), ainv)
	s.basic[b] = false
	s.basicRemove(b)
	s.rows[j] = rowB
	s.basic[j] = true
	s.basicInsert(j)

	// Substitute x_j in every other row.
	jc := int32(j)
	src := &s.rows[j]
	for _, other := range s.basicList {
		if other == j {
			continue
		}
		row := &s.rows[other]
		i := row.find(jc)
		if i < 0 {
			continue
		}
		factor := row.vals[i]
		s.mergeScaled(row, i, factor, src)
	}
}

// mergeScaled rewrites dst (minus the entry at skip) plus factor*src into
// dst, via the scratch buffers: the merged result lands in the scratch
// slices, which are then swapped with dst's storage, so dst's old backing
// arrays become the next merge's scratch.
func (s *simplex) mergeScaled(dst *sparseRow, skip int, factor rat64, src *sparseRow) {
	needed := len(dst.cols) + len(src.cols)
	reused := cap(s.mcols) >= needed && cap(s.mvals) >= needed
	mc, mv := s.mcols[:0], s.mvals[:0]
	di, si := 0, 0
	for di < len(dst.cols) || si < len(src.cols) {
		if di == skip {
			di++
			continue
		}
		var dc, sc int32
		hasD, hasS := di < len(dst.cols), si < len(src.cols)
		if hasD {
			dc = dst.cols[di]
		}
		if hasS {
			sc = src.cols[si]
		}
		switch {
		case hasD && (!hasS || dc < sc):
			mc = append(mc, dc)
			mv = append(mv, dst.vals[di])
			di++
		case hasS && (!hasD || sc < dc):
			// factor and src values are nonzero, and exact rational products
			// of nonzeros are nonzero.
			mc = append(mc, sc)
			mv = append(mv, s.mul(factor, src.vals[si]))
			si++
		default: // dc == sc
			sum := s.addMul(dst.vals[di], factor, src.vals[si])
			if !sum.IsZero() {
				mc = append(mc, dc)
				mv = append(mv, sum)
			}
			di++
			si++
		}
	}
	if reused {
		s.rowReuse++
	}
	s.mcols, dst.cols = dst.cols, mc
	s.mvals, dst.vals = dst.vals, mv
}

// concreteDelta computes a positive rational value for the symbolic delta
// such that substituting it preserves every currently satisfied bound.
func (s *simplex) concreteDelta() *big.Rat {
	delta := big.NewRat(1, 1)
	consider := func(lo, hi drat64) {
		// Need lo <= hi after substitution: (hi.a - lo.a) + (hi.b - lo.b)*d >= 0.
		da := new(big.Rat).Sub(hi.a.toBig(), lo.a.toBig())
		db := new(big.Rat).Sub(hi.b.toBig(), lo.b.toBig())
		if db.Sign() >= 0 {
			return // holds for any positive delta
		}
		// d <= da / -db; da > 0 here because the delta-rational order holds.
		limit := new(big.Rat).Quo(da, new(big.Rat).Neg(db))
		if limit.Cmp(delta) < 0 {
			delta.Set(limit)
		}
	}
	for v := 0; v < s.nVars; v++ {
		if s.lb[v].active {
			consider(s.lb[v].val, s.beta[v])
		}
		if s.ub[v].active {
			consider(s.beta[v], s.ub[v].val)
		}
	}
	// Halve to stay strictly inside every strict bound.
	return delta.Mul(delta, big.NewRat(1, 2))
}

// value returns the concrete rational value of variable v using the given
// delta substitution.
func (s *simplex) value(v int, delta *big.Rat) *big.Rat {
	return s.beta[v].substitute(delta)
}
