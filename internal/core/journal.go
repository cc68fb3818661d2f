// Checkpoint journal: the Fig. 2 engine's progress, kept in the repository's
// hash-chained journal format (package journal), letting an analysis killed
// mid-run resume at the first incomplete iteration with verdicts identical
// to an uninterrupted run.
//
// After the header (the configuration fingerprint, whole threshold set
// included) every record is either one find–verify iteration or the final
// verdict of every rung.
package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"

	"gridattack/internal/attack"
	"gridattack/internal/journal"
)

// journalVersion identifies the checkpoint format; bump on layout changes.
// Version 2 made the journal per-ladder: one header for the whole threshold
// set and per-rung outcomes in every record.
const journalVersion = 2

// ErrJournal reports a corrupt, mismatched, or unreadable checkpoint journal.
var ErrJournal = journal.ErrInvalid

// Journal record kinds. The exported names let journal consumers (the serve
// layer streams records as server-sent events) switch on JournalRecord.Kind
// without duplicating the strings.
const (
	RecIter  = "iter"
	RecFinal = "final"
)

// JournalConfig fingerprints the analysis a journal belongs to. Resuming
// against a journal whose configuration differs is refused: the journaled
// candidate sequence and per-rung outcomes would not match the ones the
// engine regenerates.
type JournalConfig struct {
	// Encoding records the SMT encoding path ("incremental" or "cold", see
	// Analyzer.NoIncremental) the journaled run used. A resume under the
	// other path is refused: the two paths are verdict-identical, but mixing
	// them inside one journal would make the recorded solver-effort trail
	// meaningless and would mask encoding bugs that only one path has.
	Encoding string `json:"encoding,omitempty"`

	Buses        int     `json:"buses"`
	Lines        int     `json:"lines"`
	BaselineCost float64 `json:"baseline_cost"`
	// Targets are the rungs' cost-increase percentages, in input order, and
	// Thresholds the matching cost thresholds.
	Targets               []float64 `json:"targets"`
	Thresholds            []float64 `json:"thresholds"`
	MaxIterations         int       `json:"max_iterations"`
	VerifyMode            int       `json:"verify_mode"`
	BlockPrecision        float64   `json:"block_precision"`
	MaxMeasurements       int       `json:"max_measurements"`
	MaxBuses              int       `json:"max_buses"`
	States                bool      `json:"states"`
	RequireTopologyChange bool      `json:"require_topology_change"`
}

// RungVerdict is one rung's definitive outcome as the final record keeps it.
type RungVerdict struct {
	Found        bool           `json:"found,omitempty"`
	Exhausted    bool           `json:"exhausted,omitempty"`
	Iterations   int            `json:"iterations"`
	Vector       *attack.Vector `json:"vector,omitempty"`
	AttackedCost float64        `json:"attacked_cost,omitempty"`
}

// JournalRecord is one line of the checkpoint journal after its header.
type JournalRecord struct {
	Kind string `json:"kind"`

	// Iteration fields: the candidate, its post-attack OPF cost under the
	// cost-based verify modes, and the rungs (indices into the header's
	// Targets) it was definitively verified against: Reached lists those
	// whose threshold it reaches, Missed those it does not. A rung whose
	// verification a budget cancelled is in neither list; a resume verifies
	// it again instead of replaying the cancellation.
	Iter    int            `json:"iter,omitempty"`
	Vector  *attack.Vector `json:"vector,omitempty"`
	Cost    float64        `json:"cost,omitempty"`
	Reached []int          `json:"reached,omitempty"`
	Missed  []int          `json:"missed,omitempty"`

	// Final-record field: every rung's verdict, in target order. Written
	// only once every rung is Found or Exhausted — budget and cancellation
	// exits are never finalized, so a re-run with larger budgets resumes
	// instead of replaying a truncated verdict.
	Verdicts []RungVerdict `json:"verdicts,omitempty"`

	journal.Link
}

// checkpoint is an open checkpoint journal positioned for appending; the
// observer sees every record once it is durable. A checkpoint without a
// journal (j nil) only feeds the observer.
type checkpoint struct {
	j        *journal.Journal
	observer func(JournalRecord)
}

func (c *checkpoint) append(rec *JournalRecord) error {
	if c.j != nil {
		if err := c.j.Append(rec); err != nil {
			return fmt.Errorf("core: checkpoint: %w", err)
		}
	}
	if c.observer != nil {
		c.observer(*rec)
	}
	return nil
}

// openCheckpoint opens the journal at path, or creates it when it is
// missing or empty, and returns it with the records to replay. A journal
// written under a configuration other than cfg is ErrJournal.
func openCheckpoint(path string, cfg JournalConfig) (*journal.Journal, []JournalRecord, error) {
	st, err := os.Stat(path)
	if errors.Is(err, os.ErrNotExist) || (err == nil && st.Size() == 0) {
		j, err := journal.Create(path, journalVersion, cfg)
		return j, nil, err
	}
	if err != nil {
		return nil, nil, err
	}
	var have JournalConfig
	j, recs, err := journal.Open[JournalRecord](path, journalVersion, &have)
	if err != nil {
		return nil, nil, err
	}
	if !reflect.DeepEqual(have, cfg) {
		j.Close()
		return nil, nil, fmt.Errorf("%w: %s was written by a different analysis configuration", ErrJournal, path)
	}
	return j, recs, nil
}

// vectorsEqual compares two vectors through their canonical wire form.
func vectorsEqual(a, b *attack.Vector) bool {
	if a == nil || b == nil {
		return a == b
	}
	ja, err1 := json.Marshal(a)
	jb, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && bytes.Equal(ja, jb)
}
