package smt

import (
	"context"
	"errors"
	"math/big"
	"sync/atomic"
	"testing"
	"time"
)

// newCertSolver returns a solver with certification on but self-checking off,
// so tests drive Verify explicitly (including on tampered certificates).
func newCertSolver() *Solver {
	s := NewSolver()
	s.Certify = true
	return s
}

func atomCmp(v int, op Op, rhs int64) *Formula {
	return Atom(NewLinExpr().AddInt(1, v), op, big.NewRat(rhs, 1))
}

func TestCertificateSatVerifies(t *testing.T) {
	s := newCertSolver()
	b := s.NewBool("b")
	x := s.NewReal("x")
	y := s.NewReal("y")
	s.Assert(Or(Bool(b), Atom(NewLinExpr().AddInt(1, x).AddInt(2, y), OpLE, big.NewRat(5, 1))))
	s.Assert(atomCmp(x, OpGE, 2))
	s.Assert(Atom(NewLinExpr().AddInt(1, x).AddInt(-1, y), OpLT, big.NewRat(4, 1)))
	k1, k2, k3 := s.NewBool(""), s.NewBool(""), s.NewBool("")
	s.AssertAtMostK([]int{k1, k2, k3}, 1)
	s.AssertAtLeastOne([]int{k1, k2, k3})

	res, err := s.Check()
	if err != nil || res != Sat {
		t.Fatalf("Check = %v, %v; want Sat", res, err)
	}
	cert := s.Certificate()
	if cert == nil {
		t.Fatal("no certificate after certified Sat check")
	}
	if cert.Result() != Sat {
		t.Fatalf("cert.Result() = %v, want Sat", cert.Result())
	}
	if err := cert.Verify(); err != nil {
		t.Fatalf("Verify() = %v, want nil", err)
	}
}

func TestCertificateSatRejectsTampering(t *testing.T) {
	s := newCertSolver()
	b := s.NewBool("b")
	x := s.NewReal("x")
	s.Assert(Bool(b))
	s.Assert(atomCmp(x, OpGE, 1))
	if res, err := s.Check(); err != nil || res != Sat {
		t.Fatalf("Check = %v, %v; want Sat", res, err)
	}
	cert := s.Certificate()
	if err := cert.Verify(); err != nil {
		t.Fatalf("pristine Verify() = %v, want nil", err)
	}

	// Flip the constrained boolean: the model no longer satisfies Assert(b).
	mut := *cert
	mut.boolModel = append([]assignVal(nil), cert.boolModel...)
	mut.boolModel[b] = assignFals
	if err := mut.Verify(); err == nil {
		t.Fatal("Verify accepted a flipped boolean model value")
	}

	// Break the arithmetic model: x = 0 violates x >= 1.
	mut = *cert
	mut.realModel = append([]*big.Rat(nil), cert.realModel...)
	mut.realModel[x] = new(big.Rat)
	if err := mut.Verify(); err == nil {
		t.Fatal("Verify accepted a corrupted real model value")
	}

	// A spoiled certificate must not verify regardless of content.
	mut = *cert
	mut.spoiled = true
	if err := mut.Verify(); err == nil {
		t.Fatal("Verify accepted a spoiled certificate")
	}
}

// TestCertificateUnsatBoundClash certifies the two-literal bound-clash
// conflict (x <= 1 against x >= 2) and checks tampering is caught.
func TestCertificateUnsatBoundClash(t *testing.T) {
	s := newCertSolver()
	x := s.NewReal("x")
	s.Assert(atomCmp(x, OpLE, 1))
	s.Assert(atomCmp(x, OpGE, 2))
	res, err := s.Check()
	if err != nil || res != Unsat {
		t.Fatalf("Check = %v, %v; want Unsat", res, err)
	}
	cert := s.Certificate()
	if cert == nil || cert.Result() != Unsat {
		t.Fatalf("certificate missing or wrong verdict: %+v", cert)
	}
	if err := cert.Verify(); err != nil {
		t.Fatalf("Verify() = %v, want nil", err)
	}
	ti := theoryStepIndex(cert)
	if ti < 0 {
		t.Fatal("unsat certificate carries no theory lemma")
	}

	// Corrupting one Farkas coefficient must break the refutation.
	mut := tamperFarkas(cert, ti, big.NewRat(5, 1))
	if err := mut.Verify(); err == nil {
		t.Fatal("Verify accepted a corrupted Farkas coefficient")
	}
	mut = tamperFarkas(cert, ti, big.NewRat(-1, 1))
	if err := mut.Verify(); err == nil {
		t.Fatal("Verify accepted a negative Farkas multiplier")
	}

	// Dropping the theory lemma leaves the empty clause underived. (Dropping
	// only the final empty step would not invalidate the trace: the lemma
	// clause alone already conflicts with the unit premises.)
	mut = *cert
	mut.steps = append([]proofStep(nil), cert.steps[ti+1:]...)
	if err := mut.Verify(); err == nil {
		t.Fatal("Verify accepted a trace with the theory lemma dropped")
	}
}

// TestCertificateUnsatRowConflict forces a simplex row conflict over a
// multi-term form, exercising slack expansion in the Farkas checker.
func TestCertificateUnsatRowConflict(t *testing.T) {
	s := newCertSolver()
	x := s.NewReal("x")
	y := s.NewReal("y")
	s.Assert(Atom(NewLinExpr().AddInt(1, x).AddInt(1, y), OpLE, big.NewRat(1, 1)))
	s.Assert(atomCmp(x, OpGE, 1))
	s.Assert(atomCmp(y, OpGE, 1))
	res, err := s.Check()
	if err != nil || res != Unsat {
		t.Fatalf("Check = %v, %v; want Unsat", res, err)
	}
	cert := s.Certificate()
	if err := cert.Verify(); err != nil {
		t.Fatalf("Verify() = %v, want nil", err)
	}
	ti := theoryStepIndex(cert)
	if ti < 0 {
		t.Fatal("unsat certificate carries no theory lemma")
	}
	if n := len(cert.steps[ti].farkas); n < 2 {
		t.Fatalf("row-conflict lemma has %d multipliers, want >= 2", n)
	}
	mut := tamperFarkas(cert, ti, big.NewRat(7, 2))
	if err := mut.Verify(); err == nil {
		t.Fatal("Verify accepted a corrupted Farkas coefficient in a row conflict")
	}
}

// TestCertificateUnsatPropositional certifies a purely propositional
// refutation (pigeonhole), where every step is RUP-checked.
func TestCertificateUnsatPropositional(t *testing.T) {
	s := newCertSolver()
	pigeonhole(s, 5)
	res, err := s.Check()
	if err != nil || res != Unsat {
		t.Fatalf("Check = %v, %v; want Unsat", res, err)
	}
	cert := s.Certificate()
	if err := cert.Verify(); err != nil {
		t.Fatalf("Verify() = %v, want nil", err)
	}
	if cert.Steps() == 0 {
		t.Fatal("propositional refutation has no steps")
	}

	// Keeping only the first learned clause leaves the conflict underived.
	// (Dropping just the final empty step is not enough: the last learned
	// units already conflict at the permanent level, which is still a valid
	// refutation.)
	mut := *cert
	mut.steps = cert.steps[:1]
	if err := mut.Verify(); err == nil {
		t.Fatal("Verify accepted a truncated propositional trace")
	}
	mut = *cert
	mut.steps = nil
	if err := mut.Verify(); err == nil {
		t.Fatal("Verify accepted an empty trace")
	}
}

// TestCertificateIncremental checks certification across incremental Check
// calls: Sat first, Unsat after more assertions, and the latched re-Check.
func TestCertificateIncremental(t *testing.T) {
	s := newCertSolver()
	x := s.NewReal("x")
	s.Assert(atomCmp(x, OpGE, 0))
	res, err := s.Check()
	if err != nil || res != Sat {
		t.Fatalf("first Check = %v, %v; want Sat", res, err)
	}
	if err := s.Certificate().Verify(); err != nil {
		t.Fatalf("sat Verify() = %v", err)
	}
	s.Assert(atomCmp(x, OpLT, 0))
	res, err = s.Check()
	if err != nil || res != Unsat {
		t.Fatalf("second Check = %v, %v; want Unsat", res, err)
	}
	if err := s.Certificate().Verify(); err != nil {
		t.Fatalf("unsat Verify() = %v", err)
	}
	// Latched path: the refutation must remain checkable on re-Check.
	res, err = s.Check()
	if err != nil || res != Unsat {
		t.Fatalf("latched Check = %v, %v; want Unsat", res, err)
	}
	if err := s.Certificate().Verify(); err != nil {
		t.Fatalf("latched Verify() = %v", err)
	}
}

// TestCertificateSurvivesBudgetedAttempt checks that a Check aborted by a
// budget does not spoil later certificates: the steps it logged stay valid.
func TestCertificateSurvivesBudgetedAttempt(t *testing.T) {
	s := newCertSolver()
	pigeonhole(s, 6)
	s.MaxConflicts = 1
	_, err := s.Check()
	if err != nil && !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("budgeted Check error = %v, want budget error", err)
	}
	s.MaxConflicts = 0
	res, err := s.Check()
	if err != nil || res != Unsat {
		t.Fatalf("unbudgeted Check = %v, %v; want Unsat", res, err)
	}
	if err := s.Certificate().Verify(); err != nil {
		t.Fatalf("Verify() after budgeted attempt = %v", err)
	}
}

// TestUncertifiedCheckSpoilsCertificates locks in the spoiling rule: once a
// Check runs without certification, later certificates must refuse to verify
// (their traces have gaps).
func TestUncertifiedCheckSpoilsCertificates(t *testing.T) {
	// Under the GRIDATTACK_CERTIFY lane every Check is certified from birth,
	// so the gap this test plants would never exist; pin the default off.
	defer SetCertifyDefault(SetCertifyDefault(false))
	s := NewSolver()
	x := s.NewReal("x")
	s.Assert(atomCmp(x, OpGE, 0))
	if _, err := s.Check(); err != nil {
		t.Fatal(err)
	}
	s.Certify = true
	s.Assert(atomCmp(x, OpLT, 0))
	res, err := s.Check()
	if err != nil || res != Unsat {
		t.Fatalf("Check = %v, %v; want Unsat", res, err)
	}
	cert := s.Certificate()
	if cert == nil {
		t.Fatal("no certificate")
	}
	if err := cert.Verify(); err == nil {
		t.Fatal("Verify accepted a certificate spanning an uncertified Check")
	}
	// CheckContext verifies the certificate before it returns the verdict.
	if res, err := s.CheckContext(context.Background()); err == nil {
		t.Fatalf("CheckContext = %v with a spoiled certificate; want an error", res)
	}
}

func theoryStepIndex(c *Certificate) int {
	for i, st := range c.steps {
		if st.theory {
			return i
		}
	}
	return -1
}

// tamperFarkas returns a copy of cert with one multiplier of the given
// theory step replaced.
func tamperFarkas(cert *Certificate, step int, v *big.Rat) Certificate {
	mut := *cert
	mut.steps = append([]proofStep(nil), cert.steps...)
	st := mut.steps[step]
	st.farkas = append([]*big.Rat(nil), st.farkas...)
	st.farkas[0] = v
	mut.steps[step] = st
	return mut
}

// TestPortfolioWinnerCertified: a certified Unsat through CheckContext
// carries a certificate that verifies.
func TestPortfolioWinnerCertified(t *testing.T) {
	s := newCertSolver()
	pigeonhole(s, 6)
	res, err := s.CheckContext(context.Background())
	if err != nil || res != Unsat {
		t.Fatalf("CheckContext = %v, %v; want Unsat", res, err)
	}
	cert := s.Certificate()
	if cert == nil {
		t.Fatal("no certificate after certified CheckContext Unsat")
	}
	if err := cert.Verify(); err != nil {
		t.Fatalf("CheckContext certificate Verify() = %v", err)
	}
}

// TestBCPInterruptResumes drives the SAT core directly: an interrupt in the
// middle of unit propagation must leave the queue intact so a later call
// finishes the fixpoint.
func TestBCPInterruptResumes(t *testing.T) {
	core := newSATCore()
	const n = 50
	vars := make([]int, n)
	for i := range vars {
		vars[i] = core.newVar()
	}
	for i := 0; i+1 < n; i++ {
		core.addClause([]literal{mkLit(vars[i], true), mkLit(vars[i+1], false)})
	}
	var stop atomic.Bool
	stop.Store(true)
	core.stop = &stop
	core.enqueue(mkLit(vars[0], false), nil)
	if confl := core.propagate(); confl != nil {
		t.Fatalf("unexpected conflict: %v", confl.lits)
	}
	if !core.interrupted {
		t.Fatal("propagate did not honor the stop flag")
	}
	if core.qhead >= len(core.trail) {
		t.Fatal("interrupted propagate left no queued work")
	}
	// Resume: the fixpoint completes and the whole chain is implied.
	stop.Store(false)
	core.interrupted = false
	if confl := core.propagate(); confl != nil {
		t.Fatalf("unexpected conflict on resume: %v", confl.lits)
	}
	for i, v := range vars {
		if core.assign[v] != assignTrue {
			t.Fatalf("var %d not propagated after resume", i)
		}
	}
}

// TestCancelMidCheckLeavesSolverReusable cancels a hard certified instance at
// several points mid-search and requires the subsequent uncancelled Check to
// still prove Unsat with a valid certificate.
func TestCancelMidCheckLeavesSolverReusable(t *testing.T) {
	for _, timeout := range []time.Duration{time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond} {
		s := newCertSolver()
		pigeonhole(s, 7)
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		_, err := s.CheckContext(ctx)
		cancel()
		if err == nil {
			continue // solved before the deadline: nothing to resume
		}
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("timeout %v: err = %v, want ErrCanceled", timeout, err)
		}
		res, err := s.Check()
		if err != nil || res != Unsat {
			t.Fatalf("timeout %v: re-Check = %v, %v; want Unsat", timeout, res, err)
		}
		if err := s.Certificate().Verify(); err != nil {
			t.Fatalf("timeout %v: certificate after cancel = %v", timeout, err)
		}
	}
}

// TestPivotBudgetLeavesSolverReusable exhausts the pivot budget mid-simplex
// and requires the unbudgeted re-Check to succeed with a checkable model.
func TestPivotBudgetLeavesSolverReusable(t *testing.T) {
	s := newCertSolver()
	const n = 40
	xs := make([]int, n)
	for i := range xs {
		xs[i] = s.NewReal("")
	}
	for i := 0; i+1 < n; i++ {
		s.Assert(Atom(NewLinExpr().AddInt(1, xs[i]).AddInt(1, xs[i+1]), OpGE, big.NewRat(1, 1)))
		s.Assert(atomCmp(xs[i], OpLE, 1))
	}
	s.MaxPivots = 1
	_, err := s.Check()
	if err == nil {
		t.Skip("instance solved within one pivot; budget never engaged")
	}
	if !errors.Is(err, ErrBudgetExceeded) || !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want pivot budget error matching both sentinels", err)
	}
	s.MaxPivots = 0
	res, err := s.Check()
	if err != nil || res != Sat {
		t.Fatalf("re-Check = %v, %v; want Sat", res, err)
	}
	if err := s.Certificate().Verify(); err != nil {
		t.Fatalf("certificate after pivot budget = %v", err)
	}
}

// TestLevel0ConflictBeatsDeadline locks in the poll ordering: a conflict that
// proves unsatisfiability at level 0 is consumed when found, so it must be
// reported as Unsat even when the deadline has already expired — otherwise a
// later Check could wrongly answer Sat.
func TestLevel0ConflictBeatsDeadline(t *testing.T) {
	s := newCertSolver()
	x := s.NewReal("x")
	s.Assert(atomCmp(x, OpLE, 1))
	s.Assert(atomCmp(x, OpGE, 2))
	s.MaxDuration = time.Nanosecond
	res, err := s.Check()
	if err != nil || res != Unsat {
		t.Fatalf("Check = %v, %v; want Unsat despite expired deadline", res, err)
	}
	res, err = s.Check()
	if err != nil || res != Unsat {
		t.Fatalf("re-Check = %v, %v; want Unsat", res, err)
	}
	if err := s.Certificate().Verify(); err != nil {
		t.Fatalf("Verify() = %v", err)
	}
}

func TestBudgetErrorTaxonomy(t *testing.T) {
	for _, err := range []error{errConflictBudget, errPivotBudget, errDeadlineBudget} {
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("%v does not match ErrBudgetExceeded", err)
		}
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("%v does not match ErrCanceled (compatibility)", err)
		}
	}
	if errors.Is(ErrCanceled, ErrBudgetExceeded) {
		t.Fatal("plain cancellation must not read as a budget overrun")
	}
}
