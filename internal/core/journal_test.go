package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"gridattack/internal/attack"
	"gridattack/internal/grid"
)

// Test-side names for the record kinds, which the resume tests use to read
// journals.
const (
	recIter  = RecIter
	recFinal = RecFinal
)

func testVector() *attack.Vector {
	return &attack.Vector{
		ExcludedLines:       []int{6},
		AlteredMeasurements: []int{6, 13, 17, 18},
		CompromisedBuses:    []int{2, 4},
		DeltaFlow:           []float64{0, 0.25, -0.1, 0, 0, 0.47, 0},
		DeltaConsumption:    []float64{0.1, -0.2, 0, 0, 0.1},
		ObservedLoads:       []float64{1.1, 0.8, 0, 0, 2.3},
		DeltaTheta:          []float64{0, 0, 0, 0, 0},
		MappedTopology:      grid.NewTopology([]int{1, 2, 3, 4, 5, 7}),
	}
}

// TestJournalRoundTrip: the checkpoint schema — per-rung outcomes in
// iteration records, per-rung verdicts in the final one — survives a write
// and re-open, and a different threshold set is refused.
func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	cfg := JournalConfig{Encoding: "incremental", Buses: 5, Lines: 7, BaselineCost: 1534.25,
		Targets: []float64{1, 3}, Thresholds: []float64{1549.5925, 1580.2775}, MaxIterations: 200, VerifyMode: 1}
	j, recs, err := openCheckpoint(path, cfg)
	if err != nil || len(recs) != 0 {
		t.Fatalf("create: %v, %d records", err, len(recs))
	}
	var seen []JournalRecord
	cp := &checkpoint{j: j, observer: func(rec JournalRecord) { seen = append(seen, rec) }}
	v := testVector()
	for _, rec := range []*JournalRecord{
		{Kind: RecIter, Iter: 1, Vector: v, Cost: 1550, Reached: []int{0}, Missed: []int{1}},
		{Kind: RecIter, Iter: 2, Vector: v, Cost: 1590, Reached: []int{1}},
		{Kind: RecFinal, Verdicts: []RungVerdict{{Found: true, Iterations: 1, Vector: v, AttackedCost: 1550}, {Found: true, Iterations: 2, Vector: v, AttackedCost: 1590}}},
	} {
		if err := cp.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j, recs, err = openCheckpoint(path, cfg)
	if err != nil {
		t.Fatalf("re-open: %v", err)
	}
	j.Close()
	if len(recs) != 3 || len(seen) != 3 {
		t.Fatalf("got %d records (%d observed), want 3", len(recs), len(seen))
	}
	if recs[0].Kind != recIter || recs[0].Cost != 1550 || recs[0].Reached[0] != 0 || recs[0].Missed[0] != 1 {
		t.Fatalf("record 0 mismatch: %+v", recs[0])
	}
	if recs[1].Reached[0] != 1 || len(recs[1].Missed) != 0 {
		t.Fatalf("record 1 mismatch: %+v", recs[1])
	}
	if fin := recs[2]; fin.Kind != recFinal || len(fin.Verdicts) != 2 || fin.Verdicts[1].Iterations != 2 || !fin.Verdicts[1].Found {
		t.Fatalf("final record mismatch: %+v", recs[2])
	}
	if !vectorsEqual(recs[0].Vector, v) || !vectorsEqual(recs[2].Verdicts[0].Vector, v) {
		t.Fatalf("vector did not round-trip:\n got %+v\nwant %+v", recs[0].Vector, v)
	}
	if seen[2].Hash != recs[2].Hash {
		t.Fatal("observer saw a record other than the one written")
	}

	other := cfg
	other.Thresholds = []float64{1549.5925, 1580.2776}
	if _, _, err := openCheckpoint(path, other); !errors.Is(err, ErrJournal) {
		t.Fatalf("re-open under another threshold set: err=%v, want ErrJournal", err)
	}
}

// writeCheckpoint creates a checkpoint journal at path holding one
// iteration record per cost.
func writeCheckpoint(t *testing.T, path string, costs ...float64) {
	t.Helper()
	j, _, err := openCheckpoint(path, JournalConfig{Buses: 5, Targets: []float64{3}, Thresholds: []float64{1580.2775}})
	if err != nil {
		t.Fatal(err)
	}
	cp := &checkpoint{j: j}
	for i, c := range costs {
		if err := cp.append(&JournalRecord{Kind: RecIter, Iter: i + 1, Vector: testVector(), Cost: c, Missed: []int{0}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestJournalTornTailTruncated simulates a crash inside an append: the
// unterminated tail must be dropped, everything before it kept, and the
// checkpoint must accept appends that re-open cleanly.
func TestJournalTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	cfg := JournalConfig{Buses: 5, Targets: []float64{3}, Thresholds: []float64{1580.2775}}
	writeCheckpoint(t, path, 10)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"kind":"iter","iter":2,"cos`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j, recs, err := openCheckpoint(path, cfg)
	if err != nil {
		t.Fatalf("openCheckpoint with torn tail: %v", err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records after torn-tail truncation, want 1", len(recs))
	}
	cp := &checkpoint{j: j}
	if err := cp.append(&JournalRecord{Kind: RecIter, Iter: 2, Vector: testVector(), Cost: 11, Reached: []int{0}}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j, recs, err = openCheckpoint(path, cfg)
	if err != nil {
		t.Fatalf("re-open after post-truncation append: %v", err)
	}
	j.Close()
	if len(recs) != 2 || recs[1].Cost != 11 {
		t.Fatalf("records after repair: %+v", recs)
	}
}

// TestJournalRejectsTampering flips content, deletes a record, and reorders
// records of a checkpoint journal; every alteration must break the hash
// chain and surface as ErrJournal.
func TestJournalRejectsTampering(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	cfg := JournalConfig{Buses: 5, Targets: []float64{3}, Thresholds: []float64{1580.2775}}
	writeCheckpoint(t, path, 1550, 1590)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(pristine, []byte("\n"))
	for name, data := range map[string][]byte{
		"content flip":      bytes.Replace(pristine, []byte("1550"), []byte("1551"), 1),
		"record deleted":    bytes.Join([][]byte{lines[0], lines[2]}, nil),
		"records reordered": bytes.Join([][]byte{lines[0], lines[2], lines[1]}, nil),
		"header dropped":    bytes.Join([][]byte{lines[1], lines[2]}, nil),
	} {
		p := filepath.Join(t.TempDir(), "tampered.journal")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := openCheckpoint(p, cfg); !errors.Is(err, ErrJournal) {
			t.Errorf("%s: openCheckpoint error = %v, want ErrJournal", name, err)
		}
	}
}
