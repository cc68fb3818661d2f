package experiments

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"gridattack/internal/cases"
	"gridattack/internal/core"
	"gridattack/internal/opf"
)

// LadderTargets is the Fig. 4(a)-style threshold ladder the expr artifact
// sweeps: several cost-increase rungs over one scenario per system.
var LadderTargets = []float64{0.5, 1, 1.5, 2, 3}

// LadderRow is one system's incremental-vs-cold ladder measurement.
type LadderRow struct {
	Case  string
	Buses int
	Rungs int
	// Found counts rungs whose target was reached on the incremental path.
	Found int
	// Budgeted counts rungs where at least one path reported Canceled (a
	// per-query budget bound). Verdict identity is a pure-logic guarantee, so
	// it is only asserted for the other rungs: under a binding budget the
	// incremental path reuses solver state and typically gets further than a
	// cold Run on the same budget, which is a behavioral difference, not a
	// soundness one.
	Budgeted int
	// Incremental and Cold are the end-to-end wall times of the shared-search
	// assumption-based ladder vs. one independent cold Run per rung.
	Incremental, Cold time.Duration
	// Match reports that every budget-unbound rung's verdict was
	// bit-identical across the two paths (it is asserted, so a false value
	// never survives to a row).
	Match bool
}

// Speedup is the cold/incremental wall-time ratio.
func (r LadderRow) Speedup() float64 {
	if r.Incremental <= 0 {
		return 0
	}
	return float64(r.Cold) / float64(r.Incremental)
}

// RunLadderSpeedup measures the incremental Fig. 2 ladder (one shared
// candidate search; under SMT verification additionally assumption-based
// per-rung cost caps) against the naive sweep (one independent cold Run per
// rung) under the given verification mode, asserting per-rung verdict
// identity on every rung no budget interrupts. It errors on the first
// verdict mismatch — the speedup of a wrong answer is not interesting.
func RunLadderSpeedup(caseNames []string, mode core.VerifyMode, maxConflicts int64) ([]LadderRow, error) {
	if len(caseNames) == 0 {
		caseNames = cases.EvaluationOrder()
	}
	reg := cases.Registry()
	var rows []LadderRow
	for _, name := range caseNames {
		c, ok := reg[name]
		if !ok {
			return nil, fmt.Errorf("experiments: unknown case %q", name)
		}
		sc := core.NewScenario(c, core.ScenarioConfig{Seed: 7})
		a := sc.Analyzer(LadderTargets[0])
		a.MaxIterations = MaxIterationsCap
		a.MaxConflicts = maxConflicts
		a.QueryTimeout = QueryTimeout
		a.Verify = mode
		a.Parallelism = 1

		t0 := time.Now()
		inc, err := a.RunLadder(LadderTargets)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s incremental ladder: %w", name, err)
		}
		incTime := time.Since(t0)

		a.NoIncremental = true
		cold := make([]*core.Report, len(LadderTargets))
		t0 = time.Now()
		for i, target := range LadderTargets {
			a.TargetIncreasePercent = target
			if cold[i], err = a.Run(); err != nil {
				return nil, fmt.Errorf("experiments: %s cold run at %v%%: %w", name, target, err)
			}
		}
		coldTime := time.Since(t0)

		row := LadderRow{Case: name, Buses: c.Grid.NumBuses(), Rungs: len(LadderTargets), Incremental: incTime, Cold: coldTime, Match: true}
		for i := range LadderTargets {
			if inc[i].Found {
				row.Found++
			}
			if inc[i].Canceled || cold[i].Canceled {
				// A per-query budget bound on at least one path: cancellation
				// points are budget-dependent, so identity is not asserted
				// for this rung (see LadderRow.Budgeted).
				row.Budgeted++
				continue
			}
			if inc[i].Found != cold[i].Found || inc[i].Exhausted != cold[i].Exhausted ||
				inc[i].Iterations != cold[i].Iterations ||
				inc[i].AttackedCost != cold[i].AttackedCost || !reflect.DeepEqual(inc[i].Vector, cold[i].Vector) {
				return nil, fmt.Errorf("experiments: %s rung %v%%: incremental and cold ladder verdicts diverge", name, LadderTargets[i])
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FirstQueryRow measures the first incremental OPF feasibility queries on one
// (large) system: encode once, then a Sat probe above the optimum and an
// Unsat probe below it, both as retractable assumptions on the same solver.
type FirstQueryRow struct {
	Case     string
	Buses    int
	Lines    int
	Baseline float64
	Encode   time.Duration
	SatProbe time.Duration // cost <= 1.1*T0 (Sat)
	UnsProbe time.Duration // cost <= 0.99*T0 (Unsat)
	Canceled bool          // a probe exceeded the query budget
}

// RunFirstQuery encodes the case's true-topology OPF feasibility model once
// and runs the two incremental probes under the sweep's per-query budget.
func RunFirstQuery(name string, maxConflicts int64) (*FirstQueryRow, error) {
	c, err := cases.ByName(name) // ByName reaches the big systems Registry omits
	if err != nil {
		return nil, err
	}
	topo := c.Grid.TrueTopology()
	base, err := opf.Solve(c.Grid, topo, nil)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s baseline OPF: %w", name, err)
	}
	row := &FirstQueryRow{Case: name, Buses: c.Grid.NumBuses(), Lines: c.Grid.NumLines(), Baseline: base.Cost}

	t0 := time.Now()
	fm, err := opf.NewFeasibilityModel(c.Grid, topo, nil, maxConflicts, QueryTimeout)
	if err != nil {
		return nil, err
	}
	fm.Incremental = true
	row.Encode = time.Since(t0)

	ctx := context.Background()
	t0 = time.Now()
	sat, err := fm.CheckCostBelow(ctx, base.Cost*1.1)
	row.SatProbe = time.Since(t0)
	if err != nil {
		row.Canceled = true
		return row, nil
	}
	if !sat {
		return nil, fmt.Errorf("experiments: %s: cost <= 1.1*T0 unexpectedly unsat", name)
	}
	t0 = time.Now()
	uns, err := fm.CheckCostBelow(ctx, base.Cost*0.99)
	row.UnsProbe = time.Since(t0)
	if err != nil {
		row.Canceled = true
		return row, nil
	}
	if uns {
		return nil, fmt.Errorf("experiments: %s: cost <= 0.99*T0 unexpectedly sat", name)
	}
	return row, nil
}
