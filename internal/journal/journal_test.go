package journal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

type testConfig struct {
	Name string `json:"name"`
}

type testRecord struct {
	Kind  string  `json:"kind"`
	Iter  int     `json:"iter,omitempty"`
	Value float64 `json:"value,omitempty"`
	Link
}

const testVersion = 3

// writeJournal creates a journal holding the header and one record per
// value and returns its path.
func writeJournal(t *testing.T, values ...float64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := Create(path, testVersion, testConfig{Name: "cs1"})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range values {
		if err := j.Append(&testRecord{Kind: "iter", Iter: i + 1, Value: v}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func open(path string) (*Journal, []testRecord, testConfig, error) {
	var cfg testConfig
	j, recs, err := Open[testRecord](path, testVersion, &cfg)
	return j, recs, cfg, err
}

// TestRoundTrip: records come back in order with their chain fields, and
// re-sealing a record recomputes the hash Append wrote.
func TestRoundTrip(t *testing.T) {
	path := writeJournal(t, 1550, 1590)
	j, recs, cfg, err := open(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if cfg.Name != "cs1" || len(recs) != 2 || recs[0].Value != 1550 || recs[1].Iter != 2 {
		t.Fatalf("round trip: cfg %+v recs %+v", cfg, recs)
	}
	if recs[1].Prev != recs[0].Hash {
		t.Fatal("records are not chained")
	}
	resealed := recs[1]
	if _, err := seal(&resealed, resealed.Prev); err != nil || resealed.Hash != recs[1].Hash {
		t.Fatalf("re-sealed hash = %s, %v; line carries %s", resealed.Hash, err, recs[1].Hash)
	}
}

// TestLineFormat pins the on-disk line: the record's own JSON object with
// the chain fields last.
func TestLineFormat(t *testing.T) {
	path := writeJournal(t, 2.5)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	if !bytes.HasPrefix(lines[0], []byte(`{"kind":"header","version":3,"config":{"name":"cs1"},"prev":"","hash":"`)) {
		t.Fatalf("header line %s", lines[0])
	}
	if !bytes.HasPrefix(lines[1], []byte(`{"kind":"iter","iter":1,"value":2.5,"prev":"`)) {
		t.Fatalf("record line %s", lines[1])
	}
}

// TestTornTailTruncated simulates a crash inside an append: the
// unterminated tail must be dropped, everything before it kept, and the
// journal must accept appends that re-open cleanly.
func TestTornTailTruncated(t *testing.T) {
	path := writeJournal(t, 10)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"kind":"iter","iter":2,"val`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j, recs, _, err := open(path)
	if err != nil {
		t.Fatalf("Open with torn tail: %v", err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records after torn-tail truncation, want 1", len(recs))
	}
	if err := j.Append(&testRecord{Kind: "iter", Iter: 2, Value: 11}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j, recs, _, err = open(path)
	if err != nil {
		t.Fatalf("re-open after post-truncation append: %v", err)
	}
	j.Close()
	if len(recs) != 2 || recs[1].Value != 11 {
		t.Fatalf("records after repair: %+v", recs)
	}
}

// TestRejectsTampering flips content, deletes a record, reorders records,
// and drops the header; every alteration must break the hash chain.
func TestRejectsTampering(t *testing.T) {
	pristine, err := os.ReadFile(writeJournal(t, 1550, 1590))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(pristine, []byte("\n"))
	for name, data := range map[string][]byte{
		"content flip":      bytes.Replace(pristine, []byte("1550"), []byte("1551"), 1),
		"unknown field":     bytes.Replace(pristine, []byte(`"iter":1,`), []byte(`"iter":1,"x":0,`), 1),
		"record deleted":    bytes.Join([][]byte{lines[0], lines[2]}, nil),
		"records reordered": bytes.Join([][]byte{lines[0], lines[2], lines[1]}, nil),
		"header dropped":    bytes.Join([][]byte{lines[1], lines[2]}, nil),
	} {
		p := filepath.Join(t.TempDir(), "tampered.journal")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := open(p); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: Open error = %v, want ErrInvalid", name, err)
		}
	}
}

// TestEmptyRejected: a file with no complete record is not a journal.
func TestEmptyRejected(t *testing.T) {
	for name, content := range map[string]string{"empty": "", "torn header only": `{"kind":"hea`} {
		p := filepath.Join(t.TempDir(), "empty.journal")
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := open(p); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: Open error = %v, want ErrInvalid", name, err)
		}
	}
}

// TestRejectsFutureVersion guards the format-version gate.
func TestRejectsFutureVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "future.journal")
	j, err := Create(path, testVersion+1, testConfig{Name: "cs1"})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, _, _, err := open(path); !errors.Is(err, ErrInvalid) {
		t.Fatalf("Open error = %v, want ErrInvalid for a future version", err)
	}
}

// TestRejectsMisplacedLink: a record type whose chain fields do not close
// its encoding cannot be sealed.
func TestRejectsMisplacedLink(t *testing.T) {
	type bad struct {
		Link
		Kind string `json:"kind"`
	}
	path := writeJournal(t)
	j, _, _, err := open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Append(&bad{Kind: "iter"}); err == nil {
		t.Fatal("Append accepted a record with Link not last")
	}
}
