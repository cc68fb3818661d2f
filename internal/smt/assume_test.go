package smt

import (
	"context"
	"math/big"
	"testing"
)

// newAssumingSolver returns a solver with certification-by-default pinned off
// for the test's duration: assumptions are incompatible with Certify by
// design (that refusal has its own test below), so under the
// GRIDATTACK_CERTIFY lane every other test here would be testing the refusal
// path instead of the machinery.
func newAssumingSolver(t *testing.T) *Solver {
	t.Helper()
	prev := SetCertifyDefault(false)
	t.Cleanup(func() { SetCertifyDefault(prev) })
	return NewSolver()
}

// TestAssumptionsBasic: assumptions select branches of an asserted formula
// and are fully retracted between calls, in any order.
func TestAssumptionsBasic(t *testing.T) {
	s := newAssumingSolver(t)
	a := s.NewBool("a")
	b := s.NewBool("b")
	x := s.NewReal("x")
	// a -> x >= 5, b -> x <= 3.
	s.Assert(Implies(Bool(a), AtomFloat(NewLinExpr().AddInt(1, x), OpGE, 5)))
	s.Assert(Implies(Bool(b), AtomFloat(NewLinExpr().AddInt(1, x), OpLE, 3)))

	la, lb := LitOf(a, true), LitOf(b, true)
	for round := 0; round < 3; round++ {
		if res, err := s.CheckAssuming(la); err != nil || res != Sat {
			t.Fatalf("round %d assume a: got %v, %v, want Sat", round, res, err)
		}
		if res, err := s.CheckAssuming(lb); err != nil || res != Sat {
			t.Fatalf("round %d assume b: got %v, %v, want Sat", round, res, err)
		}
		if res, err := s.CheckAssuming(la, lb); err != nil || res != Unsat {
			t.Fatalf("round %d assume a,b: got %v, %v, want Unsat", round, res, err)
		}
		// The order of the assumptions must not matter.
		if res, err := s.CheckAssuming(lb, la); err != nil || res != Unsat {
			t.Fatalf("round %d assume b,a: got %v, %v, want Unsat", round, res, err)
		}
	}
}

// TestAssumptionsNoUnsatLatch is the regression test for the PR 1 unsat-latch
// bug class on the incremental path: an Unsat verdict that holds only
// relative to the assumptions must NOT latch the solver unsatisfiable — a
// plain Check (and a contradictory-assumption-free CheckAssuming) afterwards
// must still report Sat.
func TestAssumptionsNoUnsatLatch(t *testing.T) {
	s := newAssumingSolver(t)
	a := s.NewBool("a")
	x := s.NewReal("x")
	s.Assert(Implies(Bool(a), AtomFloat(NewLinExpr().AddInt(1, x), OpLT, 0)))
	s.Assert(AtomFloat(NewLinExpr().AddInt(1, x), OpGE, 1))

	if res, err := s.CheckAssuming(LitOf(a, true)); err != nil || res != Unsat {
		t.Fatalf("assume a: got %v, %v, want relative Unsat", res, err)
	}
	if res, err := s.Check(); err != nil || res != Sat {
		t.Fatalf("plain Check after relative Unsat: got %v, %v, want Sat (unsat latched?)", res, err)
	}
	if res, err := s.CheckAssuming(LitOf(a, false)); err != nil || res != Sat {
		t.Fatalf("assume !a after relative Unsat: got %v, %v, want Sat", res, err)
	}
	// A genuinely global Unsat must still latch.
	s.Assert(AtomFloat(NewLinExpr().AddInt(1, x), OpLT, 0))
	if res, err := s.Check(); err != nil || res != Unsat {
		t.Fatalf("global contradiction: got %v, %v, want Unsat", res, err)
	}
	if res, err := s.CheckAssuming(LitOf(a, false)); err != nil || res != Unsat {
		t.Fatalf("after global Unsat every CheckAssuming must stay Unsat, got %v, %v", res, err)
	}
}

// TestFailedAssumptions: the failed-assumption core names assumptions that
// really are jointly inconsistent with the assertions.
func TestFailedAssumptions(t *testing.T) {
	s := newAssumingSolver(t)
	a := s.NewBool("a")
	b := s.NewBool("b")
	c := s.NewBool("c")
	// a and b conflict; c is free.
	s.Assert(Or(Not(Bool(a)), Not(Bool(b))))

	res, err := s.CheckAssuming(LitOf(c, true), LitOf(a, true), LitOf(b, true))
	if err != nil || res != Unsat {
		t.Fatalf("got %v, %v, want Unsat", res, err)
	}
	failed := s.FailedAssumptions()
	if len(failed) == 0 {
		t.Fatal("no failed assumptions reported for a relative Unsat")
	}
	// The core must mention only assumed variables, and assuming its
	// complement-free subset alone must still be Unsat.
	seen := map[int]bool{}
	for _, l := range failed {
		seen[l.Var()] = true
		if l.Var() == c {
			t.Errorf("free assumption %d appears in the failed core %v", c, failed)
		}
	}
	if !seen[a] || !seen[b] {
		t.Errorf("failed core %v does not cover the conflicting pair (a=%d b=%d)", failed, a, b)
	}
	if res, err := s.CheckAssuming(failed...); err != nil || res != Unsat {
		t.Fatalf("replaying the failed core: got %v, %v, want Unsat", res, err)
	}
	// After all that, the instance itself is still Sat.
	if res, err := s.Check(); err != nil || res != Sat {
		t.Fatalf("plain Check: got %v, %v, want Sat", res, err)
	}
}

// TestAssumptionAlreadyDecided: assumptions that are already forced at level
// 0 — either satisfied or contradicted — are handled without search.
func TestAssumptionAlreadyDecided(t *testing.T) {
	s := newAssumingSolver(t)
	a := s.NewBool("a")
	b := s.NewBool("b")
	s.Assert(Bool(a))      // a is a level-0 fact
	s.Assert(Not(Bool(b))) // !b is a level-0 fact

	if res, err := s.CheckAssuming(LitOf(a, true)); err != nil || res != Sat {
		t.Fatalf("assuming an implied literal: got %v, %v, want Sat", res, err)
	}
	res, err := s.CheckAssuming(LitOf(b, true))
	if err != nil || res != Unsat {
		t.Fatalf("assuming a contradicted literal: got %v, %v, want Unsat", res, err)
	}
	failed := s.FailedAssumptions()
	if len(failed) != 1 || failed[0].Var() != b {
		t.Fatalf("failed core %v, want just b=%d", failed, b)
	}
	if res, err := s.Check(); err != nil || res != Sat {
		t.Fatalf("plain Check after level-0 assumption conflict: got %v, %v, want Sat", res, err)
	}
}

// TestInternFormulaCaps mimics the incremental feasibility model: a family of
// cost caps interned as literals and toggled as assumptions in arbitrary
// order, with the model and theory state intact across pops.
func TestInternFormulaCaps(t *testing.T) {
	s := newAssumingSolver(t)
	x := s.NewReal("x")
	y := s.NewReal("y")
	s.Assert(AtomFloat(NewLinExpr().AddInt(1, x), OpGE, 0))
	s.Assert(AtomFloat(NewLinExpr().AddInt(1, y), OpGE, 0))
	s.Assert(AtomFloat(NewLinExpr().AddInt(1, x).AddInt(1, y), OpGE, 4)) // x+y >= 4

	cap := func(c int64) Lit {
		return s.InternFormula(AtomFloat(NewLinExpr().AddInt(1, x).AddInt(1, y), OpLE, float64(c)))
	}
	c10, c4, c3 := cap(10), cap(4), cap(3)
	// Loose, tight-feasible, tight-infeasible, and back — any order.
	cases := []struct {
		lit  Lit
		want Result
	}{{c10, Sat}, {c3, Unsat}, {c4, Sat}, {c3, Unsat}, {c10, Sat}}
	for i, tc := range cases {
		res, err := s.CheckAssuming(tc.lit)
		if err != nil || res != tc.want {
			t.Fatalf("case %d: got %v, %v, want %v", i, res, err, tc.want)
		}
		if res == Sat {
			// The witness must satisfy the assumed cap exactly.
			sum := new(big.Rat).Add(s.RealValue(x), s.RealValue(y))
			if sum.Cmp(big.NewRat(4, 1)) < 0 {
				t.Fatalf("case %d: model x+y=%v violates x+y>=4", i, sum)
			}
		}
	}
	// Interning the same formula twice yields the same literal.
	if cap(4) != c4 {
		t.Error("InternFormula is not stable for a repeated formula")
	}
}

// TestCheckAssumingCertifyRejected: unsat-under-assumptions has no
// certificate, so the combination must be refused, not silently uncertified.
func TestCheckAssumingCertifyRejected(t *testing.T) {
	s := NewSolver()
	a := s.NewBool("a")
	s.Certify = true
	if _, err := s.CheckAssuming(LitOf(a, true)); err == nil {
		t.Fatal("CheckAssuming under Certify must error")
	}
}

// TestCheckAssumingContext: the context-aware variant works and cancellation
// does not corrupt later calls.
func TestCheckAssumingContext(t *testing.T) {
	s := newAssumingSolver(t)
	a := s.NewBool("a")
	x := s.NewReal("x")
	s.Assert(Implies(Bool(a), AtomFloat(NewLinExpr().AddInt(1, x), OpGE, 5)))
	ctx, cancel := context.WithCancel(context.Background())
	if res, err := s.CheckAssumingContext(ctx, LitOf(a, true)); err != nil || res != Sat {
		t.Fatalf("got %v, %v, want Sat", res, err)
	}
	cancel()
	if _, err := s.CheckAssumingContext(ctx, LitOf(a, true)); err == nil {
		t.Fatal("canceled context must surface an error")
	}
	if res, err := s.CheckAssuming(LitOf(a, true)); err != nil || res != Sat {
		t.Fatalf("after cancellation: got %v, %v, want Sat", res, err)
	}
}
