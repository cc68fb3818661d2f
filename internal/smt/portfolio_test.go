package smt

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// pigeonhole asserts the unsatisfiable pigeonhole principle PHP(holes+1,
// holes): holes+1 pigeons each in some hole, no hole holding two. CDCL
// without symmetry reasoning needs exponential time in holes, which makes it
// a reliable long-running instance for cancellation tests.
func pigeonhole(s *Solver, holes int) {
	pigeons := holes + 1
	vars := make([][]int, pigeons)
	for p := range vars {
		vars[p] = make([]int, holes)
		fs := make([]*Formula, holes)
		for h := 0; h < holes; h++ {
			vars[p][h] = s.NewBool(fmt.Sprintf("p%dh%d", p, h))
			fs[h] = Bool(vars[p][h])
		}
		s.Assert(Or(fs...))
	}
	for h := 0; h < holes; h++ {
		col := make([]int, pigeons)
		for p := 0; p < pigeons; p++ {
			col[p] = vars[p][h]
		}
		s.AssertAtMostK(col, 1)
	}
}

// mixedInstance builds a small satisfiable QF_LRA instance exercising both
// the boolean core and the simplex, returning variable handles for model
// comparison.
func mixedInstance(s *Solver) (a, b, x, y int) {
	a = s.NewBool("a")
	b = s.NewBool("b")
	x = s.NewReal("x")
	y = s.NewReal("y")
	s.Assert(Or(Bool(a), Bool(b)))
	s.Assert(Implies(Bool(a), AtomFloat(NewLinExpr().AddInt(1, x), OpGE, 2)))
	s.Assert(Implies(Bool(b), AtomFloat(NewLinExpr().AddInt(1, x), OpLE, -1)))
	s.Assert(AtomFloat(NewLinExpr().AddInt(1, x).AddInt(1, y), OpEQ, 5))
	s.Assert(AtomFloat(NewLinExpr().AddInt(1, y), OpGE, 0))
	return
}

func TestCloneIndependence(t *testing.T) {
	s := NewSolver()
	a, _, x, y := mixedInstance(s)
	if res := mustCheck(t, s); res != Sat {
		t.Fatalf("res = %v, want sat", res)
	}
	wantA := s.BoolValue(a)
	wantX := s.RealValue(x)
	wantY := s.RealValue(y)

	// Drive the clone unsat; the original must keep its model and verdict.
	cp := s.Clone()
	cp.Assert(AtomFloat(NewLinExpr().AddInt(1, y), OpLE, -1))
	res, err := cp.Check()
	if err != nil {
		t.Fatalf("clone Check: %v", err)
	}
	if res != Unsat {
		t.Fatalf("clone res = %v, want unsat", res)
	}
	if !s.HasModel() {
		t.Fatal("original lost its model")
	}
	if s.BoolValue(a) != wantA || s.RealValue(x).Cmp(wantX) != 0 || s.RealValue(y).Cmp(wantY) != 0 {
		t.Fatal("original's model changed after mutating the clone")
	}
	if res := mustCheck(t, s); res != Sat {
		t.Fatalf("original re-Check = %v, want sat", res)
	}
}

func TestCloneBehavesIdentically(t *testing.T) {
	s := NewSolver()
	a, b, x, _ := mixedInstance(s)
	cp := s.Clone()
	r1 := mustCheck(t, s)
	r2, err := cp.Check()
	if err != nil {
		t.Fatalf("clone Check: %v", err)
	}
	if r1 != r2 {
		t.Fatalf("verdicts differ: %v vs %v", r1, r2)
	}
	if s.BoolValue(a) != cp.BoolValue(a) || s.BoolValue(b) != cp.BoolValue(b) {
		t.Fatal("boolean models differ between original and clone")
	}
	if s.RealValue(x).Cmp(cp.RealValue(x)) != 0 {
		t.Fatalf("x differs: %v vs %v", s.RealValue(x), cp.RealValue(x))
	}
	st1, st2 := s.Stats(), cp.Stats()
	if st1 != st2 {
		t.Fatalf("search statistics diverged: %+v vs %+v", st1, st2)
	}
}

func TestPortfolioVerdictAgreement(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		sat := NewSolver()
		mixedInstance(sat)
		res, err := sat.CheckPortfolioStable(context.Background(), n)
		if err != nil {
			t.Fatalf("n=%d sat instance: %v", n, err)
		}
		if res != Sat {
			t.Fatalf("n=%d sat instance: res = %v", n, res)
		}
		if !sat.HasModel() {
			t.Fatalf("n=%d: no model after a Sat verdict", n)
		}

		unsat := NewSolver()
		pigeonhole(unsat, 5)
		res, err = unsat.CheckPortfolioStable(context.Background(), n)
		if err != nil {
			t.Fatalf("n=%d unsat instance: %v", n, err)
		}
		if res != Unsat {
			t.Fatalf("n=%d unsat instance: res = %v", n, res)
		}
	}
}

// TestPortfolioStableModelEquality is the determinism contract: at every
// width, CheckPortfolioStable returns the sequential verdict AND the
// sequential model.
func TestPortfolioStableModelEquality(t *testing.T) {
	ref := NewSolver()
	a, b, x, y := mixedInstance(ref)
	if res := mustCheck(t, ref); res != Sat {
		t.Fatalf("ref res = %v", res)
	}
	for _, n := range []int{2, 4, 8} {
		s := NewSolver()
		mixedInstance(s)
		res, err := s.CheckPortfolioStable(context.Background(), n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if res != Sat {
			t.Fatalf("n=%d: res = %v", n, res)
		}
		if s.BoolValue(a) != ref.BoolValue(a) || s.BoolValue(b) != ref.BoolValue(b) {
			t.Fatalf("n=%d: boolean model differs from sequential", n)
		}
		if s.RealValue(x).Cmp(ref.RealValue(x)) != 0 || s.RealValue(y).Cmp(ref.RealValue(y)) != 0 {
			t.Fatalf("n=%d: real model differs from sequential", n)
		}
	}
}

// TestPortfolioIncrementalAfterUnsat checks that an unsat race keeps the
// solver usable for further incremental queries.
func TestPortfolioIncrementalAfterUnsat(t *testing.T) {
	s := NewSolver()
	x := s.NewReal("x")
	s.Assert(AtomFloat(NewLinExpr().AddInt(1, x), OpGE, 0))
	s.Assert(AtomFloat(NewLinExpr().AddInt(1, x), OpLE, -1))
	res, err := s.CheckPortfolioStable(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if res != Unsat {
		t.Fatalf("res = %v, want unsat", res)
	}
	// Unsat is permanent for a conjunctive store: re-check stays unsat.
	res, err = s.CheckPortfolioStable(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if res != Unsat {
		t.Fatalf("re-check res = %v, want unsat", res)
	}
}

func TestCheckContextPreCanceled(t *testing.T) {
	s := NewSolver()
	pigeonhole(s, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.CheckContext(ctx); err != ErrCanceled {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if _, err := s.CheckPortfolioStable(ctx, 4); err != ErrCanceled {
		t.Fatalf("portfolio err = %v, want ErrCanceled", err)
	}
}

// TestPortfolioCancellationMidSearch cancels a hard instance mid-search and
// checks both that the cancellation is honored promptly and that no replica
// goroutines are leaked.
func TestPortfolioCancellationMidSearch(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, n := range []int{1, 2, 4} {
		s := NewSolver()
		pigeonhole(s, 12) // far beyond what solves in 30ms
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		start := time.Now()
		_, err := s.CheckPortfolioStable(ctx, n)
		cancel()
		if err != ErrCanceled {
			t.Fatalf("n=%d: err = %v, want ErrCanceled", n, err)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("n=%d: cancellation took %v", n, elapsed)
		}
	}
	// All replica and watcher goroutines must have exited. NumGoroutine is
	// inherently racy against runtime helpers, so poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPortfolioDeadlineHonored runs the portfolio under MaxDuration (the
// solver's own budget rather than a context) and expects every replica to
// stop on its own.
func TestPortfolioDeadlineHonored(t *testing.T) {
	s := NewSolver()
	pigeonhole(s, 12)
	s.MaxDuration = 30 * time.Millisecond
	start := time.Now()
	_, err := s.CheckPortfolioStable(context.Background(), 4)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want a budget error matching ErrCanceled and ErrBudgetExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline took %v to be honored", elapsed)
	}
}

// TestDiversifiedRepliasSameVerdict checks a directly diversified solver
// still decides the same formulas (the portfolio's soundness assumption).
func TestDiversifiedReplicasSameVerdict(t *testing.T) {
	for i := 1; i <= 4; i++ {
		sat := NewSolver()
		mixedInstance(sat)
		sat.diversify(i)
		if res := mustCheck(t, sat); res != Sat {
			t.Fatalf("replica %d: res = %v, want sat", i, res)
		}
		unsat := NewSolver()
		pigeonhole(unsat, 4)
		unsat.diversify(i)
		if res := mustCheck(t, unsat); res != Unsat {
			t.Fatalf("replica %d: res = %v, want unsat", i, res)
		}
	}
}
