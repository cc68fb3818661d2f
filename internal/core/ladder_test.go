package core

import (
	"errors"
	"path/filepath"
	"testing"

	"gridattack/internal/cases"
	"gridattack/internal/smt"
)

// ladderTargets is a Fig. 4(a)-style rung set spanning reachable and
// unreachable targets on the paper's 5-bus Case Study 1 system.
var ladderTargets = []float64{1, 3, 6, 50}

// TestRunLadderMatchesIndependentRuns: each rung's report from the
// incremental ladder must carry the verdict an independent sequential Run at
// that target computes, at every Parallelism. On ladderTargets the first
// candidate reaches the low rungs and leaves the high ones open, so a
// speculation is adopted after a partial reach; on its reachable prefix the
// first candidate closes every rung, so the speculation is discarded and
// SolverStats must count the model as it stood before the speculative Block:
// the sequential run's search effort, but fewer clauses, because the
// sequential loop blocks the last candidate on its way out. The comparison
// is made under VerifyLP, where SolverStats holds the attack model alone.
func TestRunLadderMatchesIndependentRuns(t *testing.T) {
	for _, mode := range []VerifyMode{VerifyLP, VerifySMT} {
		want := make([]*Report, len(ladderTargets))
		for i, target := range ladderTargets {
			ref := cs1Analyzer(target)
			ref.Verify = mode
			want[i] = runAt(t, ref, 1)
		}
		for _, targets := range [][]float64{ladderTargets, ladderTargets[:2]} {
			var seqStats smt.Stats
			for _, par := range []int{1, 2, 4} {
				a := cs1Analyzer(targets[0])
				a.Verify = mode
				a.Parallelism = par
				reps, err := a.RunLadder(targets)
				if err != nil {
					t.Fatalf("%v: RunLadder(%v) at parallelism %d: %v", mode, targets, par, err)
				}
				if len(reps) != len(targets) {
					t.Fatalf("%v: got %d reports, want %d", mode, len(reps), len(targets))
				}
				var foundAny bool
				for i := range targets {
					requireSameVerdict(t, want[i], reps[i], par)
					foundAny = foundAny || reps[i].Found
				}
				if !foundAny {
					t.Fatalf("%v: no rung found an attack; the A/B is vacuous", mode)
				}
				got := reps[0].SolverStats
				if par == 1 {
					seqStats = got
					continue
				}
				search, seqSearch := got, seqStats
				search.SATVars, search.Clauses, seqSearch.SATVars, seqSearch.Clauses = 0, 0, 0, 0
				if mode == VerifyLP && allFound(reps) && (search != seqSearch || got.Clauses >= seqStats.Clauses) {
					t.Errorf("%v: parallelism %d counts a discarded speculation: SolverStats %+v, sequential %+v",
						mode, par, got, seqStats)
				}
			}
		}
	}
}

// allFound reports whether every rung closed Found, so the loop returned with
// a speculation in flight whenever it speculated.
func allFound(reps []*Report) bool {
	for _, r := range reps {
		if !r.Found {
			return false
		}
	}
	return true
}

// TestRunLadderColdMatchesIncremental: the NoIncremental fallback produces
// the same per-rung verdicts as the incremental ladder.
func TestRunLadderColdMatchesIncremental(t *testing.T) {
	a := cs1Analyzer(ladderTargets[0])
	a.Verify = VerifySMT
	a.Parallelism = 1
	inc, err := a.RunLadder(ladderTargets)
	if err != nil {
		t.Fatalf("incremental: %v", err)
	}
	a.NoIncremental = true
	cold, err := a.RunLadder(ladderTargets)
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	for i := range ladderTargets {
		requireSameVerdict(t, cold[i], inc[i], 1)
	}
}

// TestRunLadderConfig: invalid ladder configurations are refused up front,
// and a checkpointed ladder resumes from its journal — which fingerprints
// the whole threshold set.
func TestRunLadderConfig(t *testing.T) {
	a := cs1Analyzer(1)
	if _, err := a.RunLadder(nil); !errors.Is(err, ErrConfig) {
		t.Errorf("empty targets: err=%v, want ErrConfig", err)
	}
	if _, err := a.RunLadder([]float64{1, -2}); !errors.Is(err, ErrConfig) {
		t.Errorf("negative target: err=%v, want ErrConfig", err)
	}
	a.CheckpointPath = filepath.Join(t.TempDir(), "ladder.journal")
	if _, err := a.RunLadder([]float64{1, 2}); err != nil {
		t.Fatalf("checkpointed ladder: %v", err)
	}
	again, err := a.RunLadder([]float64{1, 2})
	if err != nil {
		t.Fatalf("checkpointed ladder resume: %v", err)
	}
	for i, rep := range again {
		if rep.Iterations == 0 || rep.ResumedIterations != rep.Iterations {
			t.Errorf("rung %d: finalized re-run resumed %d of %d iterations", i, rep.ResumedIterations, rep.Iterations)
		}
	}
	if _, err := a.RunLadder([]float64{1, 3}); !errors.Is(err, ErrJournal) {
		t.Errorf("other threshold set on the same journal: err=%v, want ErrJournal", err)
	}
}

// runLadderAt runs a copy of the analyzer's ladder at the given parallelism.
func runLadderAt(t *testing.T, a Analyzer, targets []float64, par int) []*Report {
	t.Helper()
	a.Parallelism = par
	reps, err := a.RunLadder(targets)
	if err != nil {
		t.Fatalf("RunLadder(parallelism=%d): %v", par, err)
	}
	return reps
}

// TestLadderCheckpointResume truncates a ladder's journal at every
// iteration boundary and resumes it: every rung must reach the verdict of
// the uninterrupted ladder, replaying exactly the journaled iterations it
// took part in. The ieee14 ladder resolves its rungs at different
// iterations (found at 1, 3 and 5; the last rung hits the iteration cap),
// and odd truncation points resume through the speculative pipeline.
func TestLadderCheckpointResume(t *testing.T) {
	ieee := *NewScenario(cases.Registry()["ieee14"], ScenarioConfig{Seed: 6, States: true}).Analyzer(1)
	ieee.MaxIterations = 8
	for _, tc := range []struct {
		name    string
		a       Analyzer
		targets []float64
	}{
		{"cs1", cs1Analyzer(1), ladderTargets},
		{"ieee14", ieee, []float64{0.3, 0.6, 0.75, 1.5}},
	} {
		for _, mode := range []VerifyMode{VerifyLP, VerifySMT} {
			a := tc.a
			a.Verify = mode
			ref := runLadderAt(t, a, tc.targets, 1)

			cp := filepath.Join(t.TempDir(), "ladder.journal")
			b := a
			b.CheckpointPath = cp
			iters := 0
			for i, rep := range runLadderAt(t, b, tc.targets, 1) {
				requireSameVerdict(t, ref[i], rep, 1)
				iters = max(iters, rep.Iterations)
			}
			for keep := 0; keep <= iters; keep++ {
				c := a
				c.CheckpointPath = truncateJournal(t, cp, keep)
				for i, rep := range runLadderAt(t, c, tc.targets, 1+keep%2) {
					requireSameVerdict(t, ref[i], rep, 1)
					if want := min(keep, ref[i].Iterations); rep.ResumedIterations != want {
						t.Errorf("%s %v rung %v%%, resumed after %d iterations: ResumedIterations=%d, want %d",
							tc.name, mode, tc.targets[i], keep, rep.ResumedIterations, want)
					}
				}
			}
		}
	}
}

// TestLadderResumeReverifiesCancelled: a tight MaxPivots budget cancels one
// SMT rung's verification while the others resolve. The cancellation is not
// journaled as an outcome, so resuming without the budget verifies that
// rung again and reaches the unbudgeted verdict; the journal is then
// finalized.
func TestLadderResumeReverifiesCancelled(t *testing.T) {
	// Pin the incremental encoding: the budget below is calibrated to it.
	defer smt.SetCertifyDefault(smt.SetCertifyDefault(false))
	a := cs1Analyzer(1)
	a.Verify = VerifySMT
	ref := runLadderAt(t, a, ladderTargets, 1)

	cp := filepath.Join(t.TempDir(), "ladder.journal")
	tight := a
	tight.CheckpointPath = cp
	tight.MaxPivots = 10
	budgeted := runLadderAt(t, tight, ladderTargets, 1)
	if !budgeted[0].Canceled || budgeted[1].Canceled || !budgeted[1].Found {
		t.Fatalf("MaxPivots=10 must cancel only the first rung: %+v / %+v", budgeted[0], budgeted[1])
	}
	for i := 1; i < len(ladderTargets); i++ {
		requireSameVerdict(t, ref[i], budgeted[i], 1)
	}

	// Same budget: the rung is verified again and cancels again.
	again := runLadderAt(t, tight, ladderTargets, 1)
	if !again[0].Canceled || again[0].ResumedIterations != 0 {
		t.Fatalf("budgeted resume: canceled=%v resumed=%d, want a fresh cancellation", again[0].Canceled, again[0].ResumedIterations)
	}

	loose := a
	loose.CheckpointPath = cp
	resumed := runLadderAt(t, loose, ladderTargets, 1)
	for i := range ladderTargets {
		requireSameVerdict(t, ref[i], resumed[i], 1)
	}
	if resumed[0].ResumedIterations != 0 || resumed[1].ResumedIterations != 1 {
		t.Fatalf("resumed iterations %d/%d, want 0 for the re-verified rung and 1 for the replayed one",
			resumed[0].ResumedIterations, resumed[1].ResumedIterations)
	}
	fast := runLadderAt(t, loose, ladderTargets, 1)
	if fast[0].ResumedIterations != fast[0].Iterations || fast[0].AttackSearchTime != 0 {
		t.Fatalf("journal not finalized after the re-verified resume: %+v", fast[0])
	}
}

// TestCheckpointEncodingMismatch: a journal written under one encoding path
// (incremental vs cold) must refuse to resume under the other — the journaled
// solver-effort trail and any path-specific bug surface would otherwise be
// silently mixed.
func TestCheckpointEncodingMismatch(t *testing.T) {
	// Under the GRIDATTACK_CERTIFY lane every analyzer is forced cold, which
	// would make both journals below "cold" and vacuously match; pin the
	// incremental-vs-cold contrast this test exists to exercise.
	defer smt.SetCertifyDefault(smt.SetCertifyDefault(false))

	cp := filepath.Join(t.TempDir(), "cs1enc.journal")
	a := cs1Analyzer(3) // incremental by default
	a.CheckpointPath = cp
	runAt(t, a, 1)

	b := cs1Analyzer(3)
	b.CheckpointPath = cp
	b.NoIncremental = true
	if _, err := b.Run(); !errors.Is(err, ErrJournal) {
		t.Fatalf("cold resume of an incremental journal: err=%v, want ErrJournal", err)
	}

	// Same encoding resumes fine (finalized fast path).
	c := cs1Analyzer(3)
	c.CheckpointPath = cp
	rep := runAt(t, c, 1)
	if rep.ResumedIterations != rep.Iterations {
		t.Errorf("finalized same-encoding re-run resumed %d of %d iterations", rep.ResumedIterations, rep.Iterations)
	}
}
