package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gridattack/internal/attack"
	"gridattack/internal/cases"
	"gridattack/internal/journal"
)

// cs1Analyzer builds the Case Study 1 analyzer used by the resume tests.
func cs1Analyzer(target float64) Analyzer {
	return Analyzer{
		Grid: cases.Paper5Bus(),
		Plan: cases.Paper5PlanCase1(),
		Capability: attack.Capability{
			MaxMeasurements:       8,
			MaxBuses:              3,
			RequireTopologyChange: true,
		},
		TargetIncreasePercent: target,
		OperatingDispatch:     cases.Paper5OperatingDispatch(),
	}
}

// truncateJournal copies the first 1+keepIters lines (header + iterations) of
// src to a fresh path, cutting on line boundaries so the hash chain prefix
// stays valid, and returns the new path.
func truncateJournal(t *testing.T, src string, keepIters int) string {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	// SplitAfter keeps separators, so re-add the final line's newline.
	keep := 1 + keepIters
	if keep > len(lines) {
		t.Fatalf("journal has %d lines, cannot keep %d", len(lines), keep)
	}
	out := bytes.Join(lines[:keep], nil)
	if out[len(out)-1] != '\n' {
		out = append(out, '\n')
	}
	dst := filepath.Join(t.TempDir(), fmt.Sprintf("trunc%d.journal", keepIters))
	if err := os.WriteFile(dst, out, 0o644); err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestCheckpointResumeFound runs Case Study 1 to its sat verdict, then
// resumes from the journal truncated at several intermediate iterations; the
// resumed reports must match the uninterrupted reference exactly.
func TestCheckpointResumeFound(t *testing.T) {
	a := cs1Analyzer(3)
	ref := runAt(t, a, 1)
	if !ref.Found {
		t.Fatal("reference run must find the CS1 attack")
	}

	cp := filepath.Join(t.TempDir(), "cs1.journal")
	b := a
	b.CheckpointPath = cp
	full := runAt(t, b, 1)
	requireSameVerdict(t, ref, full, 1)
	if full.ResumedIterations != 0 {
		t.Fatalf("fresh checkpointed run resumed %d iterations, want 0", full.ResumedIterations)
	}

	// The journal is finalized: a re-run must reconstruct the verdict from it
	// without solving anything.
	fast := runAt(t, b, 1)
	requireSameVerdict(t, ref, fast, 1)
	if fast.ResumedIterations != fast.Iterations {
		t.Fatalf("finalized re-run: ResumedIterations=%d, Iterations=%d, want equal", fast.ResumedIterations, fast.Iterations)
	}
	if fast.AttackSearchTime != 0 || fast.VerifyTime != 0 {
		t.Fatalf("finalized re-run solved: search=%v verify=%v, want zero", fast.AttackSearchTime, fast.VerifyTime)
	}

	// Resume from truncation points: header only, first iteration done, and
	// all iterations done but the final verdict lost.
	points := map[int]bool{0: true, 1: true, ref.Iterations - 1: true, ref.Iterations: true}
	for keep := range points {
		if keep < 0 || keep > ref.Iterations {
			continue
		}
		c := a
		c.CheckpointPath = truncateJournal(t, cp, keep)
		rep := runAt(t, c, 1)
		requireSameVerdict(t, ref, rep, 1)
		if rep.ResumedIterations != keep {
			t.Errorf("resume after %d journaled iterations: ResumedIterations=%d", keep, rep.ResumedIterations)
		}
	}
}

// TestCheckpointResumeExhausted covers the unsat verdict: the journal's final
// record marks exhaustion, and a mid-run truncation resumes into the
// remaining enumeration.
func TestCheckpointResumeExhausted(t *testing.T) {
	a := cs1Analyzer(50) // unreachable target
	ref := runAt(t, a, 1)
	if !ref.Exhausted {
		t.Fatal("reference run must exhaust the attack space")
	}

	cp := filepath.Join(t.TempDir(), "cs1x.journal")
	b := a
	b.CheckpointPath = cp
	requireSameVerdict(t, ref, runAt(t, b, 1), 1)

	keep := ref.Iterations / 2
	c := a
	c.CheckpointPath = truncateJournal(t, cp, keep)
	rep := runAt(t, c, 1)
	requireSameVerdict(t, ref, rep, 1)
	if rep.ResumedIterations != keep {
		t.Errorf("resumed %d iterations, want %d", rep.ResumedIterations, keep)
	}

	// Finalized fast path for the exhausted verdict.
	fast := runAt(t, b, 1)
	requireSameVerdict(t, ref, fast, 1)
	if fast.ResumedIterations != ref.Iterations {
		t.Errorf("finalized re-run resumed %d iterations, want %d", fast.ResumedIterations, ref.Iterations)
	}
}

// TestCheckpointResumePipelined checks that the speculative find–verify
// pipeline journals the same iteration sequence as the sequential loop, and
// that a truncated journal resumes correctly at parallelism > 1.
func TestCheckpointResumePipelined(t *testing.T) {
	a := cs1Analyzer(3)
	ref := runAt(t, a, 1)

	cp := filepath.Join(t.TempDir(), "cs1p.journal")
	b := a
	b.CheckpointPath = cp
	requireSameVerdict(t, ref, runAt(t, b, 2), 2)

	keep := 1
	if ref.Iterations < 2 {
		keep = 0
	}
	c := a
	c.CheckpointPath = truncateJournal(t, cp, keep)
	rep := runAt(t, c, 2)
	requireSameVerdict(t, ref, rep, 2)
	if rep.ResumedIterations != keep {
		t.Errorf("resumed %d iterations, want %d", rep.ResumedIterations, keep)
	}
}

// TestCheckpointConfigMismatch: resuming a journal written under a different
// analysis configuration must be refused, not silently replayed.
func TestCheckpointConfigMismatch(t *testing.T) {
	cp := filepath.Join(t.TempDir(), "cs1.journal")
	a := cs1Analyzer(3)
	a.CheckpointPath = cp
	runAt(t, a, 1)

	b := cs1Analyzer(4) // different target => different threshold
	b.CheckpointPath = cp
	if _, err := b.Run(); !errors.Is(err, ErrJournal) {
		t.Fatalf("Run with mismatched config: err=%v, want ErrJournal", err)
	}
}

// TestCheckpointCandidateMismatch rewrites a journaled candidate (re-chaining
// the hashes so the file itself verifies) and requires the replay to detect
// that the regenerated candidate differs from the record.
func TestCheckpointCandidateMismatch(t *testing.T) {
	cp := filepath.Join(t.TempDir(), "cs1.journal")
	a := cs1Analyzer(3)
	a.CheckpointPath = cp
	runAt(t, a, 1)

	var cfg JournalConfig
	j, recs, err := journal.Open[JournalRecord](cp, journalVersion, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	mutated := false
	for i := range recs {
		if recs[i].Kind == recIter && recs[i].Vector != nil && len(recs[i].Vector.ObservedLoads) > 0 {
			recs[i].Vector.ObservedLoads[0] += 0.25
			mutated = true
			break
		}
	}
	if !mutated {
		t.Fatal("no iteration record with loads to mutate")
	}
	// Re-chain under the same header so the tampering is invisible to the
	// integrity check and only the replay's candidate comparison can catch
	// it. The final record is dropped so the run replays instead of
	// fast-pathing.
	if n := len(recs); recs[n-1].Kind == recFinal {
		recs = recs[:n-1]
	}
	if j, err = journal.Create(cp, journalVersion, cfg); err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := j.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	_, err = a.Run()
	if !errors.Is(err, ErrJournal) || !strings.Contains(err.Error(), "regenerated a different candidate") {
		t.Fatalf("Run with rewritten candidate: err=%v, want ErrJournal for a regenerated different candidate", err)
	}
}
