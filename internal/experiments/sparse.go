package experiments

import (
	"fmt"
	"time"

	"gridattack/internal/cases"
	"gridattack/internal/core"
	"gridattack/internal/dist"
	"gridattack/internal/linalg"
	"gridattack/internal/linalg/sparse"
	"gridattack/internal/opf"
)

// SubstrateRow measures the sparse numeric substrate on one case: the
// reduced susceptance matrix's sparsity, the fill-in and cost of the
// ordered sparse LU, one triangular solve, and the full PTDF construction
// through the factorize-once path versus the dense-inverse path it
// replaced.
type SubstrateRow struct {
	Case         string
	Buses, Lines int
	BNnz         int     // nonzeros of the reduced susceptance matrix
	FactorNnz    int     // nonzeros of L + U after min-degree ordering
	Fill         float64 // FactorNnz / BNnz
	Factorize    time.Duration
	Solve        time.Duration // one right-hand-side triangular solve
	PTDFSparse   time.Duration // factors + every line's PTDF row, sparse path
	PTDFDense    time.Duration // the replaced explicit dense inverse
}

// RunSparseSubstrate measures SubstrateRows for the named cases (nil means
// every case, including the 300/1354-bus scalability systems).
func RunSparseSubstrate(names []string) ([]SubstrateRow, error) {
	if len(names) == 0 {
		names = cases.Names()
	}
	var rows []SubstrateRow
	for _, name := range names {
		c, err := cases.ByName(name)
		if err != nil {
			return nil, err
		}
		g := c.Grid
		t := g.TrueTopology()
		row := SubstrateRow{Case: name, Buses: g.NumBuses(), Lines: g.NumLines()}

		b := g.BSparse(t)
		row.BNnz = b.NNZ()
		start := time.Now()
		f, err := sparse.Factorize(b)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: factorize: %w", name, err)
		}
		row.Factorize = time.Since(start)
		nl, nu := f.NNZFactors()
		row.FactorNnz = nl + nu
		row.Fill = float64(row.FactorNnz) / float64(row.BNnz)

		rhs := make([]float64, f.Order())
		rhs[0] = 1
		start = time.Now()
		if _, err := f.Solve(rhs); err != nil {
			return nil, fmt.Errorf("experiments: %s: solve: %w", name, err)
		}
		row.Solve = time.Since(start)

		start = time.Now()
		fac, err := dist.NewWith(g, t, dist.Sparse)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: factors: %w", name, err)
		}
		for _, ln := range t.Lines() {
			fac.PTDF(ln, 1) // materializes the line's full PTDF row
		}
		row.PTDFSparse = time.Since(start)

		start = time.Now()
		if _, err := linalg.Inverse(g.BMatrix(t)); err != nil {
			return nil, fmt.Errorf("experiments: %s: dense inverse: %w", name, err)
		}
		row.PTDFDense = time.Since(start)

		rows = append(rows, row)
	}
	return rows, nil
}

// ScreenRow is one end-to-end economic exclusion screen: every single-line
// topology-poisoning candidate classified against the Fig. 4(a) cost target
// without any per-candidate LP or SMT work (core.ScreenExclusions).
type ScreenRow struct {
	Case                                 string
	Buses                                int
	Candidates, Safe, Islanding, Flagged int
	BaseSolve, Factors, Classify, Total  time.Duration
}

// RunExclusionScreen screens the named cases at the standard Fig. 4 target
// increase (nil means the paper's set plus synth300; synth1354 is excluded
// by default because its baseline OPF exceeds the dense simplex's reach).
func RunExclusionScreen(names []string) ([]ScreenRow, error) {
	if len(names) == 0 {
		names = append(cases.EvaluationOrder(), "synth300")
	}
	var rows []ScreenRow
	for _, name := range names {
		c, err := cases.ByName(name)
		if err != nil {
			return nil, err
		}
		rep, err := core.ScreenExclusions(c.Grid, TargetPercent)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: screen: %w", name, err)
		}
		rows = append(rows, ScreenRow{
			Case:       name,
			Buses:      c.Grid.NumBuses(),
			Candidates: rep.Candidates,
			Safe:       rep.Safe,
			Islanding:  rep.Islanding,
			Flagged:    rep.Flagged,
			BaseSolve:  rep.BaseSolve,
			Factors:    rep.Factors,
			Classify:   rep.Classify,
			Total:      rep.Total(),
		})
	}
	return rows, nil
}

// WarmLadderRow measures the LP warm-start contract on its design-point
// workload: one topology re-dispatched across a ladder of load drifts (the
// EMS periodic re-dispatch pattern, and the shape of the Fig. 2 cost-cap
// ladder when successive candidates share a topology). Only the nodal
// balance right-hand sides change between steps, so the warm path re-uses
// the previous optimal basis and usually needs zero pivots.
type WarmLadderRow struct {
	Case                   string
	Buses                  int
	Steps                  int
	Warm, Cold             time.Duration
	WarmPivots, ColdPivots int
	WarmHits               int
}

// warmLadderScales is the load-drift ladder applied to every case.
var warmLadderScales = []float64{1.0, 1.01, 1.02, 1.03, 0.99, 0.98, 1.005, 0.995}

// RunWarmLadder measures WarmLadderRows for the named cases (nil means the
// paper's five systems plus synth300).
func RunWarmLadder(names []string) ([]WarmLadderRow, error) {
	if len(names) == 0 {
		names = append(cases.EvaluationOrder(), "synth300")
	}
	var rows []WarmLadderRow
	for _, name := range names {
		c, err := cases.ByName(name)
		if err != nil {
			return nil, err
		}
		g := c.Grid
		topo := g.TrueTopology()
		nominal := g.LoadVector()
		scaled := make([][]float64, len(warmLadderScales))
		for i, s := range warmLadderScales {
			scaled[i] = make([]float64, len(nominal))
			for j, l := range nominal {
				scaled[i][j] = l * s
			}
		}
		row := WarmLadderRow{Case: name, Buses: g.NumBuses(), Steps: len(scaled)}

		ws := opf.NewWarmSolver(g)
		start := time.Now()
		for _, loads := range scaled {
			if _, err := ws.SolveTopology(topo, loads); err != nil {
				return nil, fmt.Errorf("experiments: %s: warm ladder: %w", name, err)
			}
		}
		row.Warm = time.Since(start)
		stats := ws.Stats()
		row.WarmPivots = stats.Pivots
		row.WarmHits = stats.WarmHits

		// A fresh solver per step has no cached basis: every solve is cold.
		start = time.Now()
		for _, loads := range scaled {
			cold := opf.NewWarmSolver(g)
			if _, err := cold.SolveTopology(topo, loads); err != nil {
				return nil, fmt.Errorf("experiments: %s: cold ladder: %w", name, err)
			}
			row.ColdPivots += cold.Stats().Pivots
		}
		row.Cold = time.Since(start)
		rows = append(rows, row)
	}
	return rows, nil
}
