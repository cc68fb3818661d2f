package lp

import (
	"math"
	"testing"
)

// warmTestProblem builds min x+2y s.t. x+y >= rhs1, x-y <= rhs2, 0<=x<=10,
// 0<=y<=10.
func warmTestProblem(rhs1, rhs2 float64) *Problem {
	p := NewProblem()
	x := p.AddVariable(0, 10, 1, "x")
	y := p.AddVariable(0, 10, 2, "y")
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, GE, rhs1)
	p.AddConstraint([]Term{{x, 1}, {y, -1}}, LE, rhs2)
	return p
}

// TestWarmRhsResolve: an rhs-only change that keeps the optimal basis
// feasible must re-solve warm with zero pivots and match a cold solve.
func TestWarmRhsResolve(t *testing.T) {
	p := warmTestProblem(4, 10)
	sol, w, err := p.SolveWarm(nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || sol.Warmed {
		t.Fatalf("cold solve: status %v warmed %v", sol.Status, sol.Warmed)
	}

	p2 := warmTestProblem(5, 10)
	sol2, w2, err := p2.SolveWarm(w)
	if err != nil {
		t.Fatal(err)
	}
	if !sol2.Warmed {
		t.Fatal("expected a warm re-solve")
	}
	if sol2.Pivots != 0 {
		t.Fatalf("warm re-solve took %d pivots, want 0", sol2.Pivots)
	}
	if w2 != w {
		t.Fatal("warm re-solve should return the same context")
	}
	cold, err := warmTestProblem(5, 10).Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol2.Objective-cold.Objective) > 1e-9 {
		t.Fatalf("warm objective %v, cold %v", sol2.Objective, cold.Objective)
	}
	for j := range cold.X {
		if math.Abs(sol2.X[j]-cold.X[j]) > 1e-9 {
			t.Fatalf("x[%d]: warm %v cold %v", j, sol2.X[j], cold.X[j])
		}
	}
}

// TestWarmFallback: an rhs change that breaks the old basis must fall back
// to a cold solve and still return the right answer.
func TestWarmFallback(t *testing.T) {
	p := warmTestProblem(4, 10)
	_, w, err := p.SolveWarm(nil)
	if err != nil {
		t.Fatal(err)
	}
	// rhs1=25 exceeds what x,y <= 10 can reach only partially: max x+y = 20,
	// so this is infeasible — the warm basis cannot absorb it.
	p2 := warmTestProblem(25, 10)
	sol2, _, err := p2.SolveWarm(w)
	if err != nil {
		t.Fatal(err)
	}
	if sol2.Status != Infeasible {
		t.Fatalf("status = %v, want Infeasible", sol2.Status)
	}
	// A feasible but basis-breaking change must agree with the cold answer.
	p3 := warmTestProblem(4, 10)
	_, w3, err := p3.SolveWarm(nil)
	if err != nil {
		t.Fatal(err)
	}
	p4 := warmTestProblem(19, 10)
	sol4, _, err := p4.SolveWarm(w3)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := warmTestProblem(19, 10).Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol4.Status != Optimal || math.Abs(sol4.Objective-cold.Objective) > 1e-9 {
		t.Fatalf("fallback objective %v (status %v), cold %v", sol4.Objective, sol4.Status, cold.Objective)
	}
}

// TestWarmIncompatible: structural mismatches must be detected and solved
// cold rather than corrupting the tableau.
func TestWarmIncompatible(t *testing.T) {
	p := warmTestProblem(4, 10)
	_, w, err := p.SolveWarm(nil)
	if err != nil {
		t.Fatal(err)
	}
	q := NewProblem()
	x := q.AddVariable(0, 10, 1, "x")
	q.AddConstraint([]Term{{x, 1}}, GE, 2)
	sol, _, err := q.SolveWarm(w)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Warmed {
		t.Fatal("incompatible problem must not warm-start")
	}
	if sol.Status != Optimal || math.Abs(sol.Objective-2) > 1e-9 {
		t.Fatalf("objective %v (status %v), want 2", sol.Objective, sol.Status)
	}
}
