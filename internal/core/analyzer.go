// Package core implements the paper's primary contribution: the formal
// framework (Fig. 2) that decides whether a stealthy topology-poisoning
// attack exists whose impact on Optimal Power Flow reaches a target
// generation-cost increase.
//
// The loop follows the paper exactly: compute the attack-free optimal cost
// T0 and the threshold T = T0*(1 + I/100); repeatedly ask the attack model
// for a stealthy vector; update the system with the vector's poisoned
// topology and shifted load estimates; verify the impact by checking that no
// OPF dispatch stays below T (Eq. 37) while OPF still converges for larger
// budgets (Eq. 38); on failure, block the vector (quantized to the paper's
// 2-digit precision, Sec. IV-A) and iterate until success or exhaustion.
package core

import (
	"errors"
	"fmt"
	"time"

	"gridattack/internal/attack"
	"gridattack/internal/grid"
	"gridattack/internal/measure"
	"gridattack/internal/smt"
)

// ErrConfig reports an invalid analyzer configuration.
var ErrConfig = errors.New("core: invalid configuration")

// VerifyMode selects how a candidate attack's OPF impact is verified.
type VerifyMode int

// Verification modes.
const (
	// VerifyLP computes the exact post-attack OPF minimum with the LP
	// simplex and compares it against the threshold.
	VerifyLP VerifyMode = iota + 1
	// VerifySMT runs the paper's OPF feasibility model (Eq. 37): unsat of
	// "cost <= T" certifies the increase.
	VerifySMT
	// VerifyShift uses the PTDF/LODF shift-factor OPF (paper Sec. IV-A);
	// only valid for single-line exclusion attacks.
	VerifyShift
)

func (m VerifyMode) String() string {
	switch m {
	case VerifyLP:
		return "lp"
	case VerifySMT:
		return "smt"
	case VerifyShift:
		return "shift-factor"
	default:
		return fmt.Sprintf("VerifyMode(%d)", int(m))
	}
}

// Analyzer holds one impact-analysis problem instance.
type Analyzer struct {
	Grid       *grid.Grid
	Plan       *measure.Plan
	Capability attack.Capability

	// TargetIncreasePercent is the attacker's objective I for Run: raise
	// the generation cost by at least I% over the attack-free optimum.
	// RunLadder takes its targets as an argument instead.
	TargetIncreasePercent float64

	// OperatingDispatch is the pre-attack generation dispatch (the state
	// the attacker observes). Nil selects the attack-free OPF optimum.
	OperatingDispatch []float64

	// BlockPrecision quantizes attack vectors for blocking (paper Sec.
	// IV-A); 0 selects the paper's 2-digit precision (0.01 p.u.).
	BlockPrecision float64

	// MaxIterations caps the find-verify loop; 0 selects 200.
	MaxIterations int

	// MaxConflicts bounds SMT effort per query; 0 means unlimited.
	MaxConflicts int64

	// QueryTimeout bounds wall-clock time per SMT query; 0 means unlimited.
	// A timed-out query marks the report Canceled rather than erroring.
	QueryTimeout time.Duration

	// Verify selects the impact-verification backend; 0 selects VerifyLP.
	Verify VerifyMode

	// Parallelism selects the speculative find–verify pipeline: 0 selects
	// runtime.GOMAXPROCS(0), 1 runs the loop strictly sequentially, and any
	// larger value overlaps the search for the next candidate with the
	// verification of the current one (so values above 2 behave like 2).
	// The report's verdicts (Found, Exhausted, Canceled, Iterations, the
	// vector itself) are identical at every setting, under MaxConflicts and
	// MaxPivots budgets too; only wall-clock time changes. See DESIGN.md,
	// "Parallel impact analysis".
	Parallelism int

	// MaxPivots bounds simplex pivots per SMT query (0 = unlimited); like
	// MaxConflicts, an exceeded budget marks the report Canceled.
	MaxPivots int64

	// Certify makes every SMT verdict in the analysis carry a certificate
	// that is independently checked before the verdict is trusted (see
	// DESIGN.md, "Trust model"). Certification can also be enabled
	// process-wide with the GRIDATTACK_CERTIFY environment variable.
	Certify bool

	// NoIncremental forces the cold (assertion-based) SMT encoding path:
	// under VerifySMT each open rung gets its own verification model per
	// candidate, which asserts its cost caps permanently, instead of one
	// shared model per candidate that passes every rung's caps as
	// retractable assumptions. The candidate search is shared across rungs
	// either way, and verdicts are identical (see DESIGN.md, "Expression
	// layer & incremental search"); the knob exists for A/B validation,
	// benchmarking, and as an escape hatch. Under VerifyLP and VerifyShift
	// it changes nothing but the journal fingerprint and cache key. Enabling
	// Certify implies the cold path, because an unsat-under-assumptions
	// verdict carries no checkable certificate.
	NoIncremental bool

	// CheckpointPath enables crash-resumable analysis: every find–verify
	// iteration — the candidate and its definitive per-rung outcomes — is
	// appended (fsync'd, hash-chained) to this journal file, and a final
	// record once every rung is Found or Exhausted. The header fingerprints
	// the configuration including the whole threshold set. Re-running with
	// the same configuration and path replays the journal, reusing the
	// recorded verification outcomes, and resumes at the first incomplete
	// iteration, producing verdicts identical to an uninterrupted run; a
	// rung whose verification a budget cancelled is verified again. Empty
	// disables checkpointing.
	CheckpointPath string

	// JournalObserver receives every journal record in order: records
	// replayed from an existing journal on resume first (including a
	// finalized journal's, before the reconstructed report returns), then
	// each new record as it is durably appended. Without CheckpointPath it
	// receives the records the engine would have journaled, with empty
	// chain fields, and nothing is written. The serve layer turns this
	// stream into per-job progress events. The callback runs on the
	// analysis goroutine and must not block for long.
	JournalObserver func(JournalRecord)
}

// Report is the outcome of one analysis run.
type Report struct {
	BaselineCost float64        // attack-free OPF optimum T0
	Threshold    float64        // T = T0*(1 + I/100)
	Found        bool           // an attack reaching the threshold exists
	Exhausted    bool           // the whole (quantized) attack space was enumerated
	Canceled     bool           // the SMT conflict budget ran out before a verdict
	Vector       *attack.Vector // the successful attack, when Found
	AttackedCost float64        // operator's OPF cost under the attack, when Found (0 under VerifySMT certification)
	Iterations   int            // attack vectors examined
	// ResumedIterations counts the iterations whose verification verdict was
	// replayed from a checkpoint journal rather than recomputed.
	ResumedIterations int

	AttackSearchTime time.Duration // cumulative attack-model solving time
	VerifyTime       time.Duration // cumulative OPF verification time
	Elapsed          time.Duration

	// PrescreenPruned is kept for callers that read it.
	//
	// Deprecated: always 0. The analysis verifies every candidate; the
	// LODF witness screen lives on only in ScreenExclusions.
	PrescreenPruned int

	// SolverStats aggregates SMT effort counters across the analysis: the
	// attack model's solver (its counters are cumulative; a speculative
	// search the loop discards is left out) plus every SMT-backed OPF
	// verification model. LP and shift-factor verification contribute
	// nothing. The arithmetic-kernel counters (Rat64FastOps vs Rat64BigOps)
	// show how often the hybrid rationals stayed on the int64 fast path.
	SolverStats smt.Stats
}

// Run executes the Fig. 2 loop against the single target
// TargetIncreasePercent: a one-rung RunLadder.
func (a *Analyzer) Run() (*Report, error) {
	reps, err := a.RunLadder([]float64{a.TargetIncreasePercent})
	if err != nil {
		return nil, err
	}
	return reps[0], nil
}
