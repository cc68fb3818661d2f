package smt

import (
	"context"
	"fmt"
	"math/big"
	"sync/atomic"
	"time"
)

// Result is the outcome of a Check call.
type Result int

// Check outcomes.
const (
	Sat Result = iota + 1
	Unsat
)

func (r Result) String() string {
	switch r {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	default:
		return fmt.Sprintf("Result(%d)", int(r))
	}
}

// Stats reports solver effort counters.
type Stats struct {
	Decisions    int64
	Conflicts    int64
	Propagations int64 // boolean (watched-literal) propagations
	TheoryProps  int64 // theory-level bound propagations (implied atom literals)
	Pivots       int64
	Rat64FastOps int64 // hybrid-rational ops completed on the int64 fast path
	Rat64BigOps  int64 // hybrid-rational ops that fell back to big.Rat
	RowPoolReuse int64 // pivot merges served from recycled row storage
	SATVars      int
	Clauses      int
	RealVars     int
}

// Add accumulates o's effort counters into s. The size gauges (SATVars,
// Clauses, RealVars) take the maximum — summing problem sizes across
// independent solvers would be meaningless.
func (s *Stats) Add(o Stats) {
	s.Decisions += o.Decisions
	s.Conflicts += o.Conflicts
	s.Propagations += o.Propagations
	s.TheoryProps += o.TheoryProps
	s.Pivots += o.Pivots
	s.Rat64FastOps += o.Rat64FastOps
	s.Rat64BigOps += o.Rat64BigOps
	s.RowPoolReuse += o.RowPoolReuse
	s.SATVars = max(s.SATVars, o.SATVars)
	s.Clauses = max(s.Clauses, o.Clauses)
	s.RealVars = max(s.RealVars, o.RealVars)
}

// FastPathPercent is the share of hybrid-rational operations that completed
// on the int64 fast path, in percent (100 when no operations ran).
func (s Stats) FastPathPercent() float64 {
	total := s.Rat64FastOps + s.Rat64BigOps
	if total == 0 {
		return 100
	}
	return 100 * float64(s.Rat64FastOps) / float64(total)
}

// Solver is an incremental SMT solver for QF_LRA. Typical use:
//
//	s := smt.NewSolver()
//	p := s.NewBool("p")
//	x := s.NewReal("x")
//	s.Assert(smt.Implies(smt.Bool(p), smt.AtomFloat(smt.NewLinExpr().AddInt(1, x), smt.OpGE, 2)))
//	if res, _ := s.Check(); res == smt.Sat { ... s.RealValueFloat(x) ... }
//
// Additional assertions (e.g. blocking clauses) may be added after a Check;
// learned clauses are retained across calls.
type Solver struct {
	core *satCore
	simp *simplex

	boolNames []string
	realNames []string

	trueVar int

	atoms        map[int]*atomInfo // SAT var -> theory meaning
	atomVars     map[string]int    // canonical atom key -> SAT var
	formSlacks   map[string]int    // canonical form key -> simplex var
	tseitinCache map[*Formula]literal

	// Theory-propagation index: the simplex variables that carry atoms, in
	// first-use order (deterministic iteration), and the SAT variables of the
	// atoms on each.
	atomSlacks   []int
	atomsBySlack map[int][]int

	theoryHead int // trail index up to which bounds were sent to the theory

	// NoPropagate disables theory-level bound propagation (implied atom
	// literals derived from asserted bounds and tableau rows after each
	// successful simplex check). Propagation never changes verdicts, but it
	// does steer the search, so the differential harness runs both settings
	// and asserts identical Sat/Unsat answers.
	NoPropagate bool

	// ForceBigRat routes every hybrid-rational operation in the theory solver
	// through the big.Rat slow path (the int64 fast path is skipped even when
	// values fit). Results are bit-identical by construction; the differential
	// harness uses this to prove it on the seeded sweep.
	ForceBigRat bool

	theoryProps int64  // implied atom literals pushed into the SAT core
	lastPropRev uint64 // simplex boundRev at the last propagation round

	// MaxConflicts bounds the search effort per Check call; 0 means
	// unlimited. When exceeded, Check returns an error matching both
	// ErrBudgetExceeded and ErrCanceled.
	MaxConflicts int64

	// MaxDuration bounds wall-clock time per Check call; 0 means unlimited.
	// Checked at every conflict and every restart, so a Check may overshoot
	// by at most one theory-check's duration. When exceeded, Check returns
	// an error matching both ErrBudgetExceeded and ErrCanceled.
	MaxDuration time.Duration

	// MaxPivots bounds simplex pivots per Check call; 0 means unlimited.
	// When exceeded, Check returns an error matching both ErrBudgetExceeded
	// and ErrCanceled.
	MaxPivots int64

	// Certify, when true, makes every Check emit a checkable certificate
	// (retrievable via Certificate): the full model for Sat, a clausal trace
	// with Farkas-annotated theory lemmas for Unsat. It must be enabled
	// before the first Check on this solver — derivations from uncertified
	// Checks are not in the trace, and certificates built afterwards report
	// themselves as spoiled and fail verification.
	Certify bool

	// selfCheck verifies every certificate inside Check itself, turning any
	// discrepancy into an error (enabled together with Certify when the
	// GRIDATTACK_CERTIFY environment variable is set, or via
	// SetCertifyDefault for tests and benchmarks).
	selfCheck bool

	// certSpoiled records that a Check ran without Certify, so the proof
	// trace has gaps and certificates can no longer be trusted.
	certSpoiled bool

	// Certification records. assertRecs/premises grow on every assertion
	// (cheap; kept unconditionally so Certify may be enabled any time before
	// the first Check); steps grows during certified search only.
	assertRecs []assertRecord
	premises   [][]literal
	steps      []proofStep
	slackDefs  map[int][]LinTerm // simplex slack var -> defining linear form
	lastCert   *Certificate

	// interrupt, when non-nil and set, cancels an in-flight Check at the
	// next poll point (installed by SetInterrupt; used by the context-aware
	// entry points).
	interrupt *atomic.Bool

	// Assumption state (see assume.go): assumps holds the literals of an
	// in-flight CheckAssuming (empty otherwise); assumpRelative records that
	// the last check's Unsat was relative to the assumptions (and must not
	// latch); failedAssumps is the analyzeFinal core of that refutation.
	assumps        []literal
	assumpRelative bool
	failedAssumps  []literal

	model      bool // a model is available from the last Check
	modelDelta *big.Rat
}

// SetInterrupt installs an external cancellation flag: once the flag becomes
// true, an in-flight or future Check returns ErrCanceled at its next poll
// point (conflicts, periodic decision ticks, and simplex pivot batches).
// Passing nil detaches the flag. The flag itself is safe to set from another
// goroutine; installing it must happen before Check starts.
func (s *Solver) SetInterrupt(flag *atomic.Bool) {
	s.interrupt = flag
	s.simp.stop = flag
	s.core.stop = flag
}

// interrupted reports whether the external cancellation flag is set.
func (s *Solver) interrupted() bool {
	return s.interrupt != nil && s.interrupt.Load()
}

// NewSolver returns an empty solver. When the GRIDATTACK_CERTIFY environment
// variable is set (or SetCertifyDefault(true) was called), the solver starts
// with certification and per-Check self-verification enabled.
func NewSolver() *Solver {
	s := &Solver{
		core:         newSATCore(),
		simp:         newSimplex(),
		atoms:        make(map[int]*atomInfo),
		atomVars:     make(map[string]int),
		formSlacks:   make(map[string]int),
		tseitinCache: make(map[*Formula]literal),
		atomsBySlack: make(map[int][]int),
		slackDefs:    make(map[int][]LinTerm),
	}
	if certifyDefault.Load() {
		s.Certify = true
		s.selfCheck = true
	}
	s.trueVar = s.core.newVar()
	s.addClause([]literal{mkLit(s.trueVar, false)})
	return s
}

// NewBool allocates a fresh boolean variable and returns its index for use
// with Bool().
func (s *Solver) NewBool(name string) int {
	v := s.core.newVar()
	s.boolNames = append(s.boolNames, name)
	return v
}

// NewReal allocates a fresh real-valued variable and returns its index for
// use in linear expressions.
func (s *Solver) NewReal(name string) int {
	v := s.simp.addVar()
	s.realNames = append(s.realNames, name)
	return v
}

// newSATVar allocates an internal SAT variable (atoms, Tseitin auxiliaries).
func (s *Solver) newSATVar() int { return s.core.newVar() }

// addClause adds a clause at decision level 0, undoing any in-progress
// search first. Every clause is also recorded as a proof premise for the
// certificate checker (the recorded copy is immutable; the live clause's
// literal order changes during watch maintenance).
func (s *Solver) addClause(lits []literal) {
	s.premises = append(s.premises, append([]literal(nil), lits...))
	s.core.addClause(lits)
}

// Assert adds formula f to the solver's constraints. Assertions are
// permanent (no push/pop scoping); blocking-clause style iteration simply
// asserts more formulas between Check calls.
func (s *Solver) Assert(f *Formula) {
	s.backtrackAll()
	s.model = false
	s.assertRecs = append(s.assertRecs, assertRecord{kind: assertFormula, f: f})
	s.assertCNF(f)
}

// AssertAtMostK asserts that at most k of the given boolean variables are
// true, using the Sinz sequential-counter encoding.
func (s *Solver) AssertAtMostK(vars []int, k int) {
	s.backtrackAll()
	s.model = false
	s.assertRecs = append(s.assertRecs, assertRecord{
		kind: assertAtMostK, vars: append([]int(nil), vars...), k: k,
	})
	n := len(vars)
	if k < 0 {
		s.addClause(nil)
		return
	}
	if k == 0 {
		for _, v := range vars {
			s.addClause([]literal{mkLit(v, true)})
		}
		return
	}
	if n <= k {
		return
	}
	// reg[i][j] is true when at least j+1 of vars[0..i] are true.
	reg := make([][]int, n-1)
	for i := range reg {
		reg[i] = make([]int, k)
		for j := range reg[i] {
			reg[i][j] = s.newSATVar()
		}
	}
	x := func(i int) literal { return mkLit(vars[i], false) }
	r := func(i, j int) literal { return mkLit(reg[i][j], false) }

	s.addClause([]literal{x(0).not(), r(0, 0)})
	for j := 1; j < k; j++ {
		s.addClause([]literal{r(0, j).not()})
	}
	for i := 1; i < n-1; i++ {
		s.addClause([]literal{x(i).not(), r(i, 0)})
		s.addClause([]literal{r(i-1, 0).not(), r(i, 0)})
		for j := 1; j < k; j++ {
			s.addClause([]literal{x(i).not(), r(i-1, j-1).not(), r(i, j)})
			s.addClause([]literal{r(i-1, j).not(), r(i, j)})
		}
		s.addClause([]literal{x(i).not(), r(i-1, k-1).not()})
	}
	s.addClause([]literal{x(n - 1).not(), r(n-2, k-1).not()})
}

// AssertAtLeastOne asserts that at least one of the boolean variables is
// true.
func (s *Solver) AssertAtLeastOne(vars []int) {
	s.backtrackAll()
	s.model = false
	s.assertRecs = append(s.assertRecs, assertRecord{
		kind: assertAtLeastOne, vars: append([]int(nil), vars...),
	})
	lits := make([]literal, len(vars))
	for i, v := range vars {
		lits[i] = mkLit(v, false)
	}
	s.addClause(lits)
}

func (s *Solver) backtrackAll() {
	s.core.cancelUntil(0)
	s.simp.popTo(0)
	s.theoryHead = min(s.theoryHead, len(s.core.trail))
}

// Check decides satisfiability of the asserted formulas. On Sat, a model is
// available through BoolValue/RealValue. With Certify enabled, a verdict
// additionally produces a certificate (see Certificate); in self-check mode
// a certificate that fails verification turns the verdict into an error.
func (s *Solver) Check() (Result, error) {
	res, err := s.check()
	if err == nil && res == Unsat && !s.assumpRelative {
		// Assertions are permanent, so unsat is too. Latching it keeps
		// re-checks sound: a theory conflict among level-0 literals is
		// consumed from the trail when found (theoryHead) and would not be
		// rediscovered by a later call.
		s.core.unsatisfiable = true
	}
	if err == nil && s.Certify {
		cert := s.buildCertificate(res)
		s.lastCert = cert
		if s.selfCheck {
			if verr := cert.Verify(); verr != nil {
				return 0, fmt.Errorf("smt: self-certification of %v verdict failed: %w", res, verr)
			}
		}
	}
	return res, err
}

// CheckContext is Check with context cancellation: when ctx is canceled, the
// search stops at its next poll point and returns ErrCanceled. A ctx without
// a Done channel degrades to a plain Check with no watcher goroutine. With
// Certify set, a verdict is returned only once its certificate verifies
// (Check already does so in self-check mode).
func (s *Solver) CheckContext(ctx context.Context) (Result, error) {
	res, err := s.withContext(ctx, s.Check)
	if err == nil && s.Certify && !s.selfCheck {
		cert := s.Certificate()
		if cert == nil {
			return 0, fmt.Errorf("smt: certified check produced no certificate")
		}
		if verr := cert.Verify(); verr != nil {
			return 0, fmt.Errorf("smt: certificate verification failed: %w", verr)
		}
	}
	return res, err
}

// withContext runs check with ctx's cancellation wired to the solver's
// interrupt flag by a watcher goroutine, which has exited when it returns.
func (s *Solver) withContext(ctx context.Context, check func() (Result, error)) (Result, error) {
	if ctx == nil || ctx.Done() == nil {
		return check()
	}
	if err := ctx.Err(); err != nil {
		return 0, ErrCanceled
	}
	var stop atomic.Bool
	s.SetInterrupt(&stop)
	defer s.SetInterrupt(nil)
	finished := make(chan struct{})
	watcherDone := make(chan struct{})
	go func() {
		defer close(watcherDone)
		select {
		case <-ctx.Done():
			stop.Store(true)
		case <-finished:
		}
	}()
	res, err := check()
	close(finished)
	<-watcherDone
	return res, err
}

// Certificate returns the certificate of the most recent successful Check,
// or nil when the last Check did not produce one (Certify disabled, or the
// Check ended in an error).
func (s *Solver) Certificate() *Certificate { return s.lastCert }

func (s *Solver) check() (Result, error) {
	s.model = false
	s.lastCert = nil
	s.assumpRelative = false
	s.failedAssumps = nil
	if !s.Certify {
		// Any uncertified search may learn clauses that never enter the
		// proof trace; certificates built after that cannot be replayed.
		s.certSpoiled = true
	}
	s.simp.certify = s.Certify
	s.simp.forceBig = s.ForceBigRat
	if s.core.unsatisfiable {
		return Unsat, nil
	}
	s.backtrackAll()

	var conflictsAtStart = s.core.conflicts
	restartCount := 1
	conflictBudget := lubyUnit * luby(restartCount)
	conflictsThisRestart := int64(0)
	var deadline time.Time
	if s.MaxDuration > 0 {
		deadline = time.Now().Add(s.MaxDuration)
	}
	if s.MaxPivots > 0 {
		s.simp.pivotCap = s.simp.pivots + int(s.MaxPivots)
		defer func() { s.simp.pivotCap = 0 }()
	}
	decisionsSinceClock := 0
	if s.interrupted() {
		return 0, ErrCanceled
	}

	for {
		confl := s.core.propagate()
		if s.core.interrupted {
			// BCP stopped at the external flag with literals still queued
			// (qhead < len(trail)); the next Check resumes from qhead, so
			// returning here keeps the solver reusable.
			s.core.interrupted = false
			return 0, ErrCanceled
		}
		var tconfl *theoryConflict
		if confl == nil {
			tconfl = s.drainTheory()
			if tconfl == nil && s.theoryFullCheckNeeded() {
				var err error
				tconfl, err = s.simp.checkWithin(deadline)
				if err != nil {
					return 0, err
				}
			}
		}
		if confl != nil || tconfl != nil {
			s.core.conflicts++
			conflictsThisRestart++
			if tconfl != nil {
				cl, lvl := s.theoryConflictClause(tconfl)
				if cl == nil {
					return Unsat, nil
				}
				if lvl < s.core.decisionLevel() {
					s.core.cancelUntil(lvl)
					s.simp.popTo(lvl)
					s.theoryHead = min(s.theoryHead, len(s.core.trail))
				}
				confl = cl
			}
			if s.core.decisionLevel() == 0 {
				return Unsat, nil
			}
			// Budget and cancellation polls run only after the level-0 unsat
			// checks above. Polling first would return ErrCanceled for a
			// conflict that already proves unsatisfiability — and since
			// finding it consumed it (theory literals past theoryHead,
			// propagation queue drained), a subsequent Check could not
			// rediscover it and might answer Sat.
			if s.MaxConflicts > 0 && s.core.conflicts-conflictsAtStart > s.MaxConflicts {
				return 0, errConflictBudget
			}
			if !deadline.IsZero() && time.Now().After(deadline) {
				return 0, errDeadlineBudget
			}
			if s.interrupted() {
				return 0, ErrCanceled
			}
			learnt, bt := s.core.analyze(confl)
			s.logLearned(learnt)
			s.core.cancelUntil(bt)
			s.simp.popTo(bt)
			s.theoryHead = min(s.theoryHead, len(s.core.trail))
			if len(learnt) == 1 {
				if !s.core.enqueue(learnt[0], nil) {
					return Unsat, nil
				}
			} else {
				cl := &clause{lits: learnt, learned: true}
				s.core.clauses = append(s.core.clauses, cl)
				s.core.attach(cl)
				if !s.core.enqueue(learnt[0], cl) {
					return Unsat, nil
				}
			}
			s.core.decayActivity()
			continue
		}

		// Theory-consistent fixpoint: derive implied atom literals from the
		// current bounds and tableau before spending a boolean decision. Any
		// propagated literal goes back through BCP (and then the theory) at
		// the top of the loop.
		if s.theoryPropagate() {
			// Propagation-dominated runs can cycle here for a long time
			// without reaching the decision clock below, so charge the same
			// clock before continuing. State is resumable at this point
			// (pending literals re-enter BCP on the next Check), exactly as
			// at the pre-loop interrupt poll.
			decisionsSinceClock++
			if decisionsSinceClock >= 512 {
				decisionsSinceClock = 0
				if !deadline.IsZero() && time.Now().After(deadline) {
					return 0, errDeadlineBudget
				}
				if s.interrupted() {
					return 0, ErrCanceled
				}
			}
			continue
		}

		if conflictsThisRestart >= conflictBudget {
			restartCount++
			conflictBudget = lubyUnit * luby(restartCount)
			conflictsThisRestart = 0
			s.core.cancelUntil(0)
			s.simp.popTo(0)
			s.theoryHead = min(s.theoryHead, len(s.core.trail))
			continue
		}

		// Assumption levels come before any free decision: the dl-th
		// assumption is installed as the decision of level dl+1. An already-
		// true assumption still opens its own (empty) level so later
		// assumptions land at their fixed levels; an already-false one means
		// the assertions refute the assumption set — Unsat relative to the
		// assumptions, which must NOT latch the permanent unsat flag.
		if dl := s.core.decisionLevel(); dl < len(s.assumps) {
			p := s.assumps[dl]
			switch s.core.litValue(p) {
			case assignTrue:
				s.core.trailLim = append(s.core.trailLim, len(s.core.trail))
				s.simp.push()
			case assignFals:
				s.assumpRelative = true
				s.failedAssumps = s.core.analyzeFinal(p)
				return Unsat, nil
			default:
				s.core.trailLim = append(s.core.trailLim, len(s.core.trail))
				s.simp.push()
				s.core.enqueue(p, nil)
			}
			continue
		}

		decisionsSinceClock++
		if decisionsSinceClock >= 512 {
			decisionsSinceClock = 0
			if !deadline.IsZero() && time.Now().After(deadline) {
				return 0, errDeadlineBudget
			}
			if s.interrupted() {
				return 0, ErrCanceled
			}
		}

		v := s.core.pickBranchVar()
		if v < 0 {
			// Complete assignment, theory-consistent: SAT. Unlike a level-0
			// Unsat (which is consumed when found and must therefore win over
			// an expired budget), a Sat verdict is re-derivable, so poll the
			// budget first: theory propagation can finish small queries
			// without reaching any other poll point, and an exhausted budget
			// must not slip through to a verdict.
			if !deadline.IsZero() && time.Now().After(deadline) {
				return 0, errDeadlineBudget
			}
			if s.interrupted() {
				return 0, ErrCanceled
			}
			tc, err := s.simp.checkWithin(deadline)
			if err != nil {
				return 0, err
			}
			if tc != nil {
				// Should have been caught above; treat as a conflict.
				cl, lvl := s.theoryConflictClause(tc)
				if cl == nil {
					return Unsat, nil
				}
				s.core.cancelUntil(lvl)
				s.simp.popTo(lvl)
				s.theoryHead = min(s.theoryHead, len(s.core.trail))
				continue
			}
			s.model = true
			s.modelDelta = s.simp.concreteDelta()
			return Sat, nil
		}
		s.core.decisions++
		s.core.trailLim = append(s.core.trailLim, len(s.core.trail))
		s.simp.push()
		s.core.enqueue(mkLit(v, !s.core.phase[v]), nil)
	}
}

// theoryFullCheckNeeded reports whether a full simplex check should run at
// this point. We run it at every propagation fixpoint: exact but potentially
// slow; fine at the problem sizes of the paper's evaluation.
func (s *Solver) theoryFullCheckNeeded() bool { return true }

// drainTheory forwards newly assigned theory literals to the simplex.
func (s *Solver) drainTheory() *theoryConflict {
	for s.theoryHead < len(s.core.trail) {
		l := s.core.trail[s.theoryHead]
		s.theoryHead++
		info, ok := s.atoms[l.variable()]
		if !ok {
			continue
		}
		var isUpper bool
		var val drat64
		if l.negated() {
			isUpper, val = !info.isUpper, info.nVal
		} else {
			isUpper, val = info.isUpper, info.pVal
		}
		if confl := s.simp.assertBound(info.slack, isUpper, val, l); confl != nil {
			return confl
		}
	}
	return nil
}

// theoryConflictClause converts a theory conflict (set of jointly
// inconsistent literals) into a conflicting clause (all literals false under
// the current assignment) and the decision level at which it is conflicting.
// A nil clause means the conflict holds at level 0: unsatisfiable.
func (s *Solver) theoryConflictClause(tc *theoryConflict) (*clause, int) {
	lits := make([]literal, 0, len(tc.lits))
	maxLevel := 0
	for _, l := range tc.lits {
		lits = append(lits, l.not())
		if lvl := s.core.level[l.variable()]; lvl > maxLevel {
			maxLevel = lvl
		}
	}
	if s.Certify {
		// Log the theory lemma before any clause that resolves against it,
		// so the checker has it in scope when replaying the derivation.
		s.steps = append(s.steps, proofStep{
			lits:   append([]literal(nil), lits...),
			theory: true,
			tlits:  append([]literal(nil), tc.lits...),
			farkas: tc.farkas,
		})
	}
	if maxLevel == 0 {
		return nil, 0
	}
	return &clause{lits: lits, learned: true}, maxLevel
}

// logLearned records a learned clause in the proof trace. The copy is taken
// before the clause is attached (watch maintenance reorders live literals).
func (s *Solver) logLearned(lits []literal) {
	if !s.Certify {
		return
	}
	s.steps = append(s.steps, proofStep{lits: append([]literal(nil), lits...)})
}

// buildCertificate snapshots the state backing a verdict. The assertion,
// premise, and step slices are append-only, so three-index slice headers
// freeze this Check's view without copying.
func (s *Solver) buildCertificate(res Result) *Certificate {
	c := &Certificate{
		res:       res,
		spoiled:   s.certSpoiled,
		asserts:   s.assertRecs[:len(s.assertRecs):len(s.assertRecs)],
		premises:  s.premises[:len(s.premises):len(s.premises)],
		atoms:     s.atoms,
		slackDefs: s.slackDefs,
		nVars:     s.core.numVars,
	}
	switch res {
	case Unsat:
		// The trace must end in the empty clause; derive it now unless a
		// previous Unsat already did.
		if n := len(s.steps); n == 0 || len(s.steps[n-1].lits) != 0 {
			s.steps = append(s.steps, proofStep{})
		}
		c.steps = s.steps[:len(s.steps):len(s.steps)]
	case Sat:
		c.boolModel = append([]assignVal(nil), s.core.assign...)
		c.realModel = make([]*big.Rat, s.simp.nVars)
		for v := range c.realModel {
			c.realModel[v] = s.simp.value(v, s.modelDelta)
		}
	}
	return c
}

// BoolValue returns the model value of boolean variable v. Valid only after
// a Sat result.
func (s *Solver) BoolValue(v int) bool {
	if !s.model {
		panic("smt: BoolValue called without a model")
	}
	return s.core.assign[v] == assignTrue
}

// RealValue returns the model value of real variable v as an exact rational.
// Valid only after a Sat result.
func (s *Solver) RealValue(v int) *big.Rat {
	if !s.model {
		panic("smt: RealValue called without a model")
	}
	return s.simp.value(v, s.modelDelta)
}

// RealValueFloat returns the model value of real variable v as a float64.
func (s *Solver) RealValueFloat(v int) float64 {
	f, _ := s.RealValue(v).Float64()
	return f
}

// HasModel reports whether a model from the last Check is available.
func (s *Solver) HasModel() bool { return s.model }

// Stats returns effort counters accumulated across all Check calls.
func (s *Solver) Stats() Stats {
	return Stats{
		Decisions:    s.core.decisions,
		Conflicts:    s.core.conflicts,
		Propagations: s.core.propagations,
		TheoryProps:  s.theoryProps,
		Pivots:       int64(s.simp.pivots),
		Rat64FastOps: s.simp.fastOps,
		Rat64BigOps:  s.simp.bigOps,
		RowPoolReuse: s.simp.rowReuse,
		SATVars:      s.core.numVars,
		Clauses:      len(s.core.clauses),
		RealVars:     s.simp.nVars,
	}
}
