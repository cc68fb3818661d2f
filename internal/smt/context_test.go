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

// TestPortfolioVerdictAgreement: CheckContext decides like Check, with and
// without a cancellable context (the watcher path).
func TestPortfolioVerdictAgreement(t *testing.T) {
	for _, live := range []bool{false, true} {
		ctx := context.Background()
		if live {
			var cancel context.CancelFunc
			ctx, cancel = context.WithCancel(ctx)
			defer cancel()
		}
		sat := NewSolver()
		mixedInstance(sat)
		res, err := sat.CheckContext(ctx)
		if err != nil {
			t.Fatalf("live=%v sat instance: %v", live, err)
		}
		if res != Sat {
			t.Fatalf("live=%v sat instance: res = %v", live, res)
		}
		if !sat.HasModel() {
			t.Fatalf("live=%v: no model after a Sat verdict", live)
		}

		unsat := NewSolver()
		pigeonhole(unsat, 5)
		res, err = unsat.CheckContext(ctx)
		if err != nil {
			t.Fatalf("live=%v unsat instance: %v", live, err)
		}
		if res != Unsat {
			t.Fatalf("live=%v unsat instance: res = %v", live, res)
		}
	}
}

// TestPortfolioStableModelEquality: wiring a context's cancellation into the
// search does not perturb it, so CheckContext returns the sequential verdict
// AND the sequential model.
func TestPortfolioStableModelEquality(t *testing.T) {
	ref := NewSolver()
	a, b, x, y := mixedInstance(ref)
	if res := mustCheck(t, ref); res != Sat {
		t.Fatalf("ref res = %v", res)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := NewSolver()
	mixedInstance(s)
	res, err := s.CheckContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res != Sat {
		t.Fatalf("res = %v", res)
	}
	if s.BoolValue(a) != ref.BoolValue(a) || s.BoolValue(b) != ref.BoolValue(b) {
		t.Fatal("boolean model differs from sequential")
	}
	if s.RealValue(x).Cmp(ref.RealValue(x)) != 0 || s.RealValue(y).Cmp(ref.RealValue(y)) != 0 {
		t.Fatal("real model differs from sequential")
	}
	if s.Stats() != ref.Stats() {
		t.Fatalf("search statistics diverged: %+v vs %+v", s.Stats(), ref.Stats())
	}
}

// TestPortfolioIncrementalAfterUnsat checks that an unsat verdict keeps the
// solver usable for further incremental queries.
func TestPortfolioIncrementalAfterUnsat(t *testing.T) {
	s := NewSolver()
	x := s.NewReal("x")
	s.Assert(AtomFloat(NewLinExpr().AddInt(1, x), OpGE, 0))
	s.Assert(AtomFloat(NewLinExpr().AddInt(1, x), OpLE, -1))
	res, err := s.CheckContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res != Unsat {
		t.Fatalf("res = %v, want unsat", res)
	}
	// Unsat is permanent for a conjunctive store: re-check stays unsat.
	res, err = s.CheckContext(context.Background())
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
}

// TestPortfolioCancellationMidSearch cancels a hard instance mid-search and
// checks both that the cancellation is honored promptly and that the
// watcher goroutine is not leaked.
func TestPortfolioCancellationMidSearch(t *testing.T) {
	before := runtime.NumGoroutine()
	s := NewSolver()
	pigeonhole(s, 12) // far beyond what solves in 30ms
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	start := time.Now()
	_, err := s.CheckContext(ctx)
	cancel()
	if err != ErrCanceled {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	// The watcher goroutine must have exited. NumGoroutine is inherently
	// racy against runtime helpers, so poll briefly.
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

// TestPortfolioDeadlineHonored runs CheckContext under MaxDuration (the
// solver's own budget rather than a context) and expects the search to stop
// on its own.
func TestPortfolioDeadlineHonored(t *testing.T) {
	s := NewSolver()
	pigeonhole(s, 12)
	s.MaxDuration = 30 * time.Millisecond
	start := time.Now()
	_, err := s.CheckContext(context.Background())
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want a budget error matching ErrCanceled and ErrBudgetExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline took %v to be honored", elapsed)
	}
}
