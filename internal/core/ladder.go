package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"time"

	"gridattack/internal/attack"
	"gridattack/internal/dist"
	"gridattack/internal/expr"
	"gridattack/internal/opf"
	"gridattack/internal/smt"
)

// RunLadder evaluates the analysis problem against several target
// cost-increase percentages ("rungs") at once — the Fig. 4(a) sweep — and
// returns one Report per target, in input order. Run is the one-rung case:
// this is the only implementation of the Fig. 2 loop.
//
// The key structural fact the ladder exploits is that the Fig. 2 candidate
// stream is target-independent: FindVector and Block never look at the
// threshold, so per-target runs would all walk the same candidate sequence,
// each stopping at its own first success. The engine therefore enumerates
// that sequence once and verifies every candidate against all still-open
// rungs:
//
//   - Under VerifyLP / VerifyShift one exact OPF solve per candidate yields
//     the post-attack minimum cost, which is compared against every rung's
//     threshold for free.
//   - Under VerifySMT one feasibility model per candidate — built on a
//     ladder-wide shared expression builder, so structurally common
//     constraints are constructed once — answers every rung's Eq. 38/37
//     query pair through retractable assumption literals (see
//     opf.FeasibilityModel.Incremental), reusing the solver's learned
//     clauses and simplex state across rungs. When NoIncremental or Certify
//     selects the cold encoding, each open rung gets its own
//     assertion-based model instead; the candidate search stays shared.
//
// Per-rung verdicts (Found, Exhausted, Canceled, Iterations, Vector,
// AttackedCost) are identical to running the ladder once per target for
// every rung that no per-query budget interrupts: Sat/Unsat outcomes are
// pure logic, so sharing solver state cannot change them. When a budget
// (MaxConflicts, MaxPivots, QueryTimeout) does bind, the encodings may
// cancel at different points — the incremental one reuses learned clauses
// and simplex state and typically gets further on the same budget. A
// cancelled rung closes without stopping the others. Timing and statistics
// fields are attributions of shared work (each rung's report charges the
// full shared candidate-search time it consumed, and SolverStats totals
// ladder-wide effort, so summing across reports double-counts).
//
// With Parallelism > 1, the attack model speculatively blocks the current
// candidate and searches for the next one while the current one is
// verified, assuming it leaves some rung open (the common case — the loop
// would block it exactly so). Verification never reads the model, so the
// speculation runs on the model itself: when a rung stays open its result is
// adopted, so the candidate sequence is bit-for-bit the sequential one;
// otherwise the loop is about to return, and the speculation is interrupted
// and its work left out of SolverStats.
//
// CheckpointPath and JournalObserver apply to the whole ladder: one journal
// records every iteration's per-rung outcomes (see JournalRecord).
func (a *Analyzer) RunLadder(targets []float64) ([]*Report, error) {
	start := time.Now()
	if len(targets) == 0 {
		return nil, fmt.Errorf("%w: ladder needs at least one target", ErrConfig)
	}
	if a.Grid == nil || a.Plan == nil {
		return nil, fmt.Errorf("%w: grid and plan are required", ErrConfig)
	}
	for _, t := range targets {
		if t <= 0 {
			return nil, fmt.Errorf("%w: target increase must be positive", ErrConfig)
		}
	}
	e := &engine{a: a, mode: a.Verify, maxIter: a.MaxIterations, par: a.Parallelism}
	if e.mode == 0 {
		e.mode = VerifyLP
	}
	if e.maxIter <= 0 {
		e.maxIter = 200
	}
	if e.par == 0 {
		e.par = runtime.GOMAXPROCS(0)
	}

	trueTopo := a.Grid.TrueTopology()
	base, err := opf.Solve(a.Grid, trueTopo, nil)
	if err != nil {
		return nil, fmt.Errorf("core: attack-free OPF: %w", err)
	}
	for _, t := range targets {
		e.rungs = append(e.rungs, &Report{BaselineCost: base.Cost, Threshold: base.Cost * (1 + t/100)})
	}

	if a.CheckpointPath != "" {
		done, err := e.resume(targets)
		if e.cp != nil {
			defer e.cp.j.Close()
		}
		if err != nil {
			return nil, err
		}
		if done {
			return e.finish(start), nil
		}
	} else if a.JournalObserver != nil {
		// No journal file: the observer still sees every record as made.
		e.cp = &checkpoint{observer: a.JournalObserver}
	}

	dispatch := a.OperatingDispatch
	if dispatch == nil {
		dispatch = base.Dispatch
	}
	pf, err := a.Grid.SolvePowerFlow(trueTopo, dispatch)
	if err != nil {
		return nil, fmt.Errorf("core: operating point: %w", err)
	}
	e.model, err = attack.NewModel(a.Grid, a.Plan, a.Capability, pf)
	if err != nil {
		return nil, err
	}
	e.model.MaxConflicts = a.MaxConflicts
	e.model.MaxDuration = a.QueryTimeout
	e.model.MaxPivots = a.MaxPivots
	e.model.Certify = a.Certify

	switch e.mode {
	case VerifyLP:
		// Each candidate is verified with one cold opf.Solve (check).
	case VerifySMT:
		// The ladder-wide expression builder: every per-candidate
		// incremental verification model interns its constraints through
		// it, so nodes (and their lowered formulas) common across candidates
		// are built once.
		e.vb = expr.NewBuilder()
	case VerifyShift:
		e.fac, err = dist.New(a.Grid, trueTopo)
		if err != nil {
			return nil, fmt.Errorf("core: shift factors: %w", err)
		}
	default:
		return nil, fmt.Errorf("%w: unknown verify mode %v", ErrConfig, e.mode)
	}

	if err := e.loop(); err != nil {
		return nil, err
	}
	if e.cp != nil && len(e.open()) == 0 {
		fin := JournalRecord{Kind: RecFinal}
		for _, r := range e.rungs {
			if !r.Found && !r.Exhausted {
				return e.finish(start), nil // cancelled: never finalized
			}
			fin.Verdicts = append(fin.Verdicts, RungVerdict{Found: r.Found, Exhausted: r.Exhausted,
				Iterations: r.Iterations, Vector: r.Vector, AttackedCost: r.AttackedCost})
		}
		if err := e.cp.append(&fin); err != nil {
			return nil, err
		}
	}
	return e.finish(start), nil
}

// engine is one RunLadder call's state.
type engine struct {
	a       *Analyzer
	mode    VerifyMode
	maxIter int
	par     int
	rungs   []*Report

	model *attack.Model
	vb    *expr.Builder // VerifySMT
	fac   *dist.Factors // VerifyShift
	stats smt.Stats     // verification models' effort, plus the final model's

	cp     *checkpoint
	replay []JournalRecord // journaled iterations, replayed before any new one
	iter   int
}

// open returns the indices of the rungs still undecided.
func (e *engine) open() []int {
	var out []int
	for i, r := range e.rungs {
		if !r.Found && !r.Exhausted && !r.Canceled {
			out = append(out, i)
		}
	}
	return out
}

// resume opens the checkpoint journal. done reports a finalized journal,
// whose verdicts have been reconstructed into the rungs without solving.
func (e *engine) resume(targets []float64) (done bool, err error) {
	a := e.a
	cfg := JournalConfig{
		Encoding:              encodingName(a.NoIncremental, a.Certify),
		Buses:                 a.Grid.NumBuses(),
		Lines:                 a.Grid.NumLines(),
		BaselineCost:          e.rungs[0].BaselineCost,
		Targets:               targets,
		MaxIterations:         e.maxIter,
		VerifyMode:            int(e.mode),
		BlockPrecision:        a.BlockPrecision,
		MaxMeasurements:       a.Capability.MaxMeasurements,
		MaxBuses:              a.Capability.MaxBuses,
		States:                a.Capability.States,
		RequireTopologyChange: a.Capability.RequireTopologyChange,
	}
	for _, r := range e.rungs {
		cfg.Thresholds = append(cfg.Thresholds, r.Threshold)
	}
	j, recs, err := openCheckpoint(a.CheckpointPath, cfg)
	if err != nil {
		return false, err
	}
	e.cp = &checkpoint{j: j, observer: a.JournalObserver}
	if a.JournalObserver != nil {
		for _, rec := range recs {
			a.JournalObserver(rec)
		}
	}
	if n := len(recs); n > 0 && recs[n-1].Kind == RecFinal {
		fin := recs[n-1]
		if len(fin.Verdicts) != len(e.rungs) {
			return false, fmt.Errorf("%w: final record holds %d verdicts for %d rungs", ErrJournal, len(fin.Verdicts), len(e.rungs))
		}
		for i, v := range fin.Verdicts {
			r := e.rungs[i]
			r.Found, r.Exhausted, r.Vector, r.AttackedCost = v.Found, v.Exhausted, v.Vector, v.AttackedCost
			r.Iterations, r.ResumedIterations = v.Iterations, v.Iterations
		}
		return true, nil
	}
	for _, rec := range recs {
		if rec.Kind != RecIter {
			return false, fmt.Errorf("%w: unexpected %q record during replay", ErrJournal, rec.Kind)
		}
	}
	if len(recs) > e.maxIter {
		return false, fmt.Errorf("%w: journal holds more iterations than the configured maximum", ErrJournal)
	}
	e.replay = recs
	return false, nil
}

// loop is the Fig. 2 find–verify loop: find a stealthy candidate, verify
// it against every open rung, block it, repeat — until no rung is open, the
// attack space is exhausted, or the iteration cap is hit.
func (e *engine) loop() error {
	ctx := context.Background()
	var spec *speculation
	defer func() {
		// The model's counters are cumulative; a discarded speculation's
		// work is not the sequential loop's, so count the model as it stood
		// before the speculation began.
		if spec != nil {
			spec.stop()
			e.stats.Add(spec.before)
		} else {
			e.stats.Add(e.model.Solver().Stats())
		}
	}()
	for {
		open := e.open()
		if len(open) == 0 || e.iter >= e.maxIter {
			return nil
		}
		var v *attack.Vector
		var err error
		var took time.Duration
		if spec != nil {
			<-spec.done
			spec.cancel()
			v, err, took = spec.v, spec.err, spec.took
			spec = nil
		} else {
			t0 := time.Now()
			v, err = e.model.FindVectorContext(ctx)
			took = time.Since(t0)
		}
		for _, i := range open {
			e.rungs[i].AttackSearchTime += took
		}
		if errors.Is(err, smt.ErrCanceled) {
			for _, i := range open {
				e.rungs[i].Canceled = true
			}
			return nil
		}
		if err != nil {
			return err
		}
		if v == nil {
			if e.iter < len(e.replay) {
				return fmt.Errorf("%w: iteration %d: the search exhausted where the journal records a candidate", ErrJournal, e.iter+1)
			}
			for _, i := range open {
				e.rungs[i].Exhausted = true
			}
			return nil
		}
		e.iter++
		for _, i := range open {
			e.rungs[i].Iterations = e.iter
		}
		var rec *JournalRecord
		if e.iter <= len(e.replay) {
			rec = &e.replay[e.iter-1]
			if !vectorsEqual(v, rec.Vector) {
				return fmt.Errorf("%w: iteration %d regenerated a different candidate than the journal records (was the input changed?)", ErrJournal, e.iter)
			}
		}
		if e.par > 1 && e.iter < e.maxIter {
			spec = e.speculate(ctx, v)
		}
		if err := e.verify(ctx, v, open, rec); err != nil {
			return err
		}
		if spec == nil {
			e.model.Block(v, e.a.BlockPrecision)
		}
	}
}

// speculation is the search for the next candidate on the model, after
// blocking the current one.
type speculation struct {
	done   chan struct{}
	cancel context.CancelFunc
	before smt.Stats // the model's counters before the speculation began
	v      *attack.Vector
	err    error
	took   time.Duration
}

// speculate blocks v and searches for the next candidate in the background.
// The model belongs to the speculation until the loop joins it.
func (e *engine) speculate(ctx context.Context, v *attack.Vector) *speculation {
	sctx, cancel := context.WithCancel(ctx)
	s := &speculation{done: make(chan struct{}), cancel: cancel, before: e.model.Solver().Stats()}
	model := e.model
	go func() {
		defer close(s.done)
		t0 := time.Now()
		model.Block(v, e.a.BlockPrecision)
		s.v, s.err = model.FindVectorContext(sctx)
		s.took = time.Since(t0)
	}()
	return s
}

// stop interrupts a speculation no rung needs and waits for it.
func (s *speculation) stop() {
	s.cancel()
	<-s.done
}

// verify decides candidate v against the open rungs: outcomes the journal
// record rec holds are replayed, the rest verified. A fresh iteration is
// journaled before the loop acts on it; a replayed one is not journaled
// again, so outcomes verified during replay (a rung whose verification a
// budget had cancelled) are recomputed by any later resume.
func (e *engine) verify(ctx context.Context, v *attack.Vector, open []int, rec *JournalRecord) error {
	var live []int
	for _, i := range open {
		switch {
		case rec != nil && slices.Contains(rec.Reached, i):
			e.rungs[i].ResumedIterations++
			e.reach(i, v, rec.Cost)
		case rec != nil && slices.Contains(rec.Missed, i):
			e.rungs[i].ResumedIterations++
		default:
			live = append(live, i)
		}
	}
	if len(live) == 0 {
		return nil
	}
	out := JournalRecord{Kind: RecIter, Iter: e.iter, Vector: v}
	if err := e.check(ctx, v, live, &out); err != nil {
		return err
	}
	if rec != nil || e.cp == nil {
		return nil
	}
	return e.cp.append(&out)
}

// reach resolves rung i as Found by candidate v.
func (e *engine) reach(i int, v *attack.Vector, cost float64) {
	r := e.rungs[i]
	r.Found, r.Vector, r.AttackedCost = true, v, cost
}

// check verifies v against the live rungs: the operator reruns OPF on the
// poisoned topology with the attack's load estimates. An attack succeeds at
// a rung when the resulting minimum cost is at least its threshold while
// OPF still converges (Eq. 38: the attacker avoids non-convergent
// outcomes). Each definitive outcome is recorded in out; a rung whose
// verification a budget cancels closes as Canceled.
func (e *engine) check(ctx context.Context, v *attack.Vector, live []int, out *JournalRecord) error {
	record := func(i int, reached bool) {
		if reached {
			e.reach(i, v, out.Cost)
			out.Reached = append(out.Reached, i)
		} else {
			out.Missed = append(out.Missed, i)
		}
	}
	t0 := time.Now()
	if e.mode != VerifySMT {
		var sol *opf.Solution
		var err error
		if e.mode == VerifyLP {
			sol, err = opf.Solve(e.a.Grid, v.MappedTopology, v.ObservedLoads)
		} else {
			sol, err = e.shiftSolve(v)
		}
		took := time.Since(t0)
		for _, i := range live {
			e.rungs[i].VerifyTime += took
		}
		if err != nil && !errors.Is(err, opf.ErrInfeasible) {
			return err
		}
		// Eq. 38: non-convergence is not a success at any threshold.
		converged := err == nil
		if converged {
			out.Cost = sol.Cost
		}
		for _, i := range live {
			record(i, converged && sol.Cost >= e.rungs[i].Threshold)
		}
		return nil
	}

	// VerifySMT: one OPF feasibility model answers both the Eq. 38 and the
	// Eq. 37 query of a rung, with the topology/load constraints encoded
	// once. Incrementally one model serves every rung; cold, each rung
	// asserts its caps permanently and needs a model of its own. Cost stays
	// 0: the verdict is certified, not computed.
	var fm *opf.FeasibilityModel
	for _, i := range live {
		if fm == nil || !fm.Incremental {
			var err error
			if fm, err = e.feasibility(v); err != nil {
				return err
			}
			defer func(fm *opf.FeasibilityModel) { e.stats.Add(fm.Stats()) }(fm)
		}
		reached, err := reaches(ctx, fm, e.rungs[i].Threshold)
		e.rungs[i].VerifyTime += time.Since(t0)
		t0 = time.Now()
		if errors.Is(err, smt.ErrCanceled) {
			e.rungs[i].Canceled = true
			continue
		}
		if err != nil {
			return err
		}
		record(i, reached)
	}
	return nil
}

// feasibility encodes the OPF feasibility model of candidate v's poisoned
// topology and load estimates.
func (e *engine) feasibility(v *attack.Vector) (*opf.FeasibilityModel, error) {
	a := e.a
	var fm *opf.FeasibilityModel
	var err error
	if a.incremental() {
		fm, err = opf.NewFeasibilityModelShared(e.vb, a.Grid, v.MappedTopology, v.ObservedLoads, a.MaxConflicts, a.QueryTimeout)
	} else {
		fm, err = opf.NewFeasibilityModel(a.Grid, v.MappedTopology, v.ObservedLoads, a.MaxConflicts, a.QueryTimeout)
	}
	if err != nil {
		return nil, err
	}
	fm.Incremental = a.incremental()
	fm.MaxPivots = a.MaxPivots
	fm.Certify = a.Certify
	return fm, nil
}

// shiftSolve is the VerifyShift OPF: the PTDF/LODF shift-factor solve for
// the candidate's single excluded line (0 = the intact network).
func (e *engine) shiftSolve(v *attack.Vector) (*opf.Solution, error) {
	outage := 0
	if len(v.ExcludedLines) == 1 && len(v.IncludedLines) == 0 {
		outage = v.ExcludedLines[0]
	} else if len(v.ExcludedLines) != 0 || len(v.IncludedLines) != 0 {
		return nil, fmt.Errorf("%w: shift-factor verification handles single-line exclusions only", ErrConfig)
	}
	return opf.SolveShift(e.a.Grid, e.fac, outage, v.ObservedLoads)
}

// reaches runs one rung's Eq. 38 / Eq. 37 pair on fm: the attack succeeds at
// threshold when OPF still converges for a generous budget while no
// dispatch stays below the threshold itself. On the cold path the caps are
// permanent assertions, so the generous cap must come first; unsat at the
// generous cap implies unsat at the tight one, which also makes the two
// paths verdict-identical.
func reaches(ctx context.Context, fm *opf.FeasibilityModel, threshold float64) (bool, error) {
	converges, err := fm.CheckCostBelow(ctx, threshold*10)
	if err != nil || !converges {
		return false, err
	}
	below, err := fm.CheckCostBelow(ctx, threshold)
	if err != nil {
		return false, err
	}
	return !below, nil
}

// incremental reports whether this analysis uses the assumption-based
// (incremental) SMT encoding for verification cost caps.
func (a *Analyzer) incremental() bool {
	return encodingName(a.NoIncremental, a.Certify) == "incremental"
}

// finish stamps the shared statistics onto every rung's report.
func (e *engine) finish(start time.Time) []*Report {
	elapsed := time.Since(start)
	for _, r := range e.rungs {
		r.SolverStats = e.stats
		r.Elapsed = elapsed
	}
	return e.rungs
}
