package core

import (
	"reflect"
	"testing"

	"gridattack/internal/attack"
	"gridattack/internal/cases"
)

// runAt runs a copy of the analyzer at the given parallelism.
func runAt(t *testing.T, a Analyzer, par int) *Report {
	t.Helper()
	a.Parallelism = par
	rep, err := a.Run()
	if err != nil {
		t.Fatalf("Run(parallelism=%d): %v", par, err)
	}
	return rep
}

// requireSameVerdict asserts the determinism contract between two reports:
// everything except the timing fields must be identical.
func requireSameVerdict(t *testing.T, seq, par *Report, parLevel int) {
	t.Helper()
	if par.Found != seq.Found || par.Exhausted != seq.Exhausted || par.Canceled != seq.Canceled {
		t.Fatalf("parallelism=%d verdict diverged: found=%v exhausted=%v canceled=%v, want found=%v exhausted=%v canceled=%v",
			parLevel, par.Found, par.Exhausted, par.Canceled, seq.Found, seq.Exhausted, seq.Canceled)
	}
	if par.Iterations != seq.Iterations {
		t.Errorf("parallelism=%d examined %d vectors, sequential examined %d", parLevel, par.Iterations, seq.Iterations)
	}
	if par.BaselineCost != seq.BaselineCost || par.Threshold != seq.Threshold {
		t.Errorf("parallelism=%d baseline/threshold diverged: %v/%v vs %v/%v",
			parLevel, par.BaselineCost, par.Threshold, seq.BaselineCost, seq.Threshold)
	}
	if par.AttackedCost != seq.AttackedCost {
		t.Errorf("parallelism=%d attacked cost %v, sequential %v", parLevel, par.AttackedCost, seq.AttackedCost)
	}
	if !reflect.DeepEqual(par.Vector, seq.Vector) {
		t.Errorf("parallelism=%d found a different vector:\n  par: %+v\n  seq: %+v", parLevel, par.Vector, seq.Vector)
	}
}

// TestParallelDeterminismFound runs Case Study 1 (a sat outcome on the
// paper's 5-bus system) sequentially and pipelined and requires bit-for-bit
// identical reports.
func TestParallelDeterminismFound(t *testing.T) {
	a := Analyzer{
		Grid: cases.Paper5Bus(),
		Plan: cases.Paper5PlanCase1(),
		Capability: attack.Capability{
			MaxMeasurements:       8,
			MaxBuses:              3,
			RequireTopologyChange: true,
		},
		TargetIncreasePercent: 3,
		OperatingDispatch:     cases.Paper5OperatingDispatch(),
	}
	seq := runAt(t, a, 1)
	if !seq.Found {
		t.Fatal("sequential run must find the CS1 attack")
	}
	for _, par := range []int{2, 4} {
		requireSameVerdict(t, seq, runAt(t, a, par), par)
	}
	if seq.Vector == nil || len(seq.Vector.ExcludedLines) != 1 || seq.Vector.ExcludedLines[0] != 6 {
		t.Errorf("CS1 vector changed: %+v", seq.Vector)
	}
}

// TestParallelDeterminismExhausted covers the unsat outcome (an unreachable
// target exhausts the quantized attack space), where the pipeline's
// speculation is right every iteration, under the SMT verification backend.
func TestParallelDeterminismExhausted(t *testing.T) {
	a := Analyzer{
		Grid: cases.Paper5Bus(),
		Plan: cases.Paper5PlanCase1(),
		Capability: attack.Capability{
			MaxMeasurements:       8,
			MaxBuses:              3,
			RequireTopologyChange: true,
		},
		TargetIncreasePercent: 50, // unreachable
		OperatingDispatch:     cases.Paper5OperatingDispatch(),
		Verify:                VerifySMT,
	}
	seq := runAt(t, a, 1)
	if !seq.Exhausted {
		t.Fatal("sequential run must exhaust the attack space")
	}
	for _, par := range []int{2, 4} {
		requireSameVerdict(t, seq, runAt(t, a, par), par)
	}
}

// TestParallelDeterminismIterCapped covers the loop-bound exit on a larger
// system: a randomized IEEE 14-bus scenario stopped by MaxIterations before
// any verdict, where the sequence of examined candidates itself is the
// observable output.
func TestParallelDeterminismIterCapped(t *testing.T) {
	reg := cases.Registry()
	sc := NewScenario(reg["ieee14"], ScenarioConfig{Seed: 7})
	a := *sc.Analyzer(1.5)
	a.MaxIterations = 2
	seq := runAt(t, a, 1)
	for _, par := range []int{4} {
		requireSameVerdict(t, seq, runAt(t, a, par), par)
	}
}

// TestParallelDeterminismBudget runs ieee14 ladders under binding
// deterministic budgets: a MaxConflicts budget that cancels the candidate
// search after the first iteration (at Parallelism > 1 inside the
// speculative search), and a MaxPivots budget that cancels one rung's SMT
// verification while the other rungs run on to exhaustion. Every rung's
// verdict, Canceled included, must match the sequential loop's.
func TestParallelDeterminismBudget(t *testing.T) {
	reg := cases.Registry()
	targets := []float64{0.3, 0.6, 0.75, 1.5}
	for _, tc := range []struct {
		name         string
		seed         int64
		verify       VerifyMode
		maxConflicts int64
		maxPivots    int64
	}{
		{"search-conflicts", 8, VerifyLP, 15, 0},
		{"verify-pivots", 6, VerifySMT, 0, 40},
	} {
		a := *NewScenario(reg["ieee14"], ScenarioConfig{Seed: tc.seed}).Analyzer(1)
		a.MaxIterations = 8
		a.Verify = tc.verify
		a.MaxConflicts = tc.maxConflicts
		a.MaxPivots = tc.maxPivots
		seq := runLadderAt(t, a, targets, 1)
		var canceled, examined bool
		for _, r := range seq {
			canceled = canceled || r.Canceled
			examined = examined || r.Iterations > 0
		}
		if !canceled || !examined {
			t.Fatalf("%s: the budget must cancel a rung after examining a candidate; the A/B is vacuous", tc.name)
		}
		for _, par := range []int{2, 4} {
			for i, rep := range runLadderAt(t, a, targets, par) {
				requireSameVerdict(t, seq[i], rep, par)
			}
		}
	}
}
