package core

import (
	"testing"
	"time"

	"gridattack/internal/cases"
)

// smokeAnalyzer builds the scale smoke's analysis of a registry case:
// scenario seed 1, at most 3 iterations and 500k conflicts.
func smokeAnalyzer(t *testing.T, name string, states bool, target float64) *Analyzer {
	t.Helper()
	c, err := cases.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScenario(c, ScenarioConfig{Seed: 1, States: states})
	a := sc.Analyzer(target)
	a.MaxIterations = 3
	a.MaxConflicts = 500000
	return a
}

func smokeOne(t *testing.T, name string, states bool, target float64) {
	if testing.Short() && name != "ieee14" {
		t.Skip("short mode: skipping large-system smoke test")
	}
	a := smokeAnalyzer(t, name, states, target)
	start := time.Now()
	rep, err := a.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	t.Logf("%s states=%v: found=%v exhausted=%v iters=%d elapsed=%v (search %v, verify %v)",
		name, states, rep.Found, rep.Exhausted, rep.Iterations, time.Since(start), rep.AttackSearchTime, rep.VerifyTime)
}

func TestScaleSmoke14States(t *testing.T)  { smokeOne(t, "ieee14", true, 1.0) }
func TestScaleSmoke30States(t *testing.T)  { smokeOne(t, "synth30", true, 1.0) }
func TestScaleSmoke57States(t *testing.T)  { smokeOne(t, "synth57", true, 1.0) }
func TestScaleSmoke118States(t *testing.T) { smokeOne(t, "synth118", true, 1.0) }
