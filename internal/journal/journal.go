// Package journal is the append-only, fsync'd, hash-chained log behind every
// crash-resumable loop in the repository: the Fig. 2 checkpoint journal
// (package core) and the supervised EMS loop journal (package fleet). Each
// of those keeps only its record schema; this package owns the format.
//
// Format: one JSON object per line, each the record's own encoding with two
// trailing chain fields (see Link). The first line is a header carrying the
// format version and the writer's configuration fingerprint. Every line
// stores the hex SHA-256 of its own content and its predecessor's hash,
// forming a chain: any in-place edit, reordering, or deletion fails Open. A
// torn final line (the writer died inside a write) is truncated away on
// Open; everything before it is intact because every Append is fsync'd
// before the caller acts on the record.
package journal

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

// ErrInvalid reports a corrupt, empty, or version-mismatched journal.
var ErrInvalid = errors.New("journal: invalid journal")

// Link is the hash-chain tail of a record. Record types embed it as their
// last field, so every line ends with "prev" and "hash": Prev is the
// predecessor's Hash ("" for the header) and Hash is the hex SHA-256 of the
// line as written with Hash set to "".
type Link struct {
	Prev string `json:"prev"`
	Hash string `json:"hash"`
}

func (l *Link) link() *Link { return l }

// Record is a journal line: a pointer to any struct that embeds Link last.
type Record interface{ link() *Link }

// hashTail is how every record's encoding ends before its hash is filled in.
var hashTail = []byte(`"hash":""}`)

// seal chains rec after prev and returns its line (without the newline),
// setting rec's Prev and Hash.
func seal(rec Record, prev string) ([]byte, error) {
	l := rec.link()
	l.Prev, l.Hash = prev, ""
	blank, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	if !bytes.HasSuffix(blank, hashTail) {
		return nil, fmt.Errorf("journal: %T does not embed Link as its last field", rec)
	}
	sum := sha256.Sum256(blank)
	l.Hash = hex.EncodeToString(sum[:])
	line := append(blank[:len(blank)-2], l.Hash...)
	return append(line, `"}`...), nil
}

// verify checks one line's own hash and returns its (prev, hash) link.
func verify(line []byte) (Link, bool) {
	var l Link
	if json.Unmarshal(line, &l) != nil {
		return l, false
	}
	tail := len(line) - len(hashTail) - len(l.Hash)
	if tail < 0 || !bytes.HasSuffix(line, []byte(`"hash":"`+l.Hash+`"}`)) {
		return l, false
	}
	// The line as sealed, before its hash was filled in.
	blank := append(line[:tail:tail], hashTail...)
	sum := sha256.Sum256(blank)
	return l, hex.EncodeToString(sum[:]) == l.Hash
}

// header is the first record of every journal.
type header struct {
	Kind    string          `json:"kind"`
	Version int             `json:"version,omitempty"`
	Config  json.RawMessage `json:"config,omitempty"`
	Link
}

// Journal is an open journal positioned for appending.
type Journal struct {
	f    *os.File
	prev string
}

// Create starts a fresh journal at path (truncating any previous content)
// and writes the fsync'd header carrying version and config.
func Create(path string, version int, config any) (*Journal, error) {
	cfg, err := json.Marshal(config)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	j := &Journal{f: f}
	if err := j.Append(&header{Kind: "header", Version: version, Config: cfg}); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// Open reads the journal at path: it truncates a torn unterminated final
// line, verifies every line's hash and the chain, checks that the first
// line is a header of the given format version, decodes the header's
// configuration into config and the remaining lines into records of type R,
// and returns the journal positioned for appending. Any integrity violation
// other than a torn tail is ErrInvalid.
func Open[R any](path string, version int, config any) (*Journal, []R, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	if n := len(data); n > 0 && data[n-1] != '\n' {
		// The writer died mid-write: the unterminated tail was never acted
		// on (appends are fsync'd before the caller proceeds), so it is safe
		// to drop. Anything before it is covered by the hash chain.
		keep := bytes.LastIndexByte(data, '\n') + 1
		if err := os.Truncate(path, int64(keep)); err != nil {
			return nil, nil, err
		}
		data = data[:keep]
	}
	if len(data) == 0 {
		return nil, nil, fmt.Errorf("%w: %s holds no complete records", ErrInvalid, path)
	}

	var recs []R
	prev := ""
	for n, line := range bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n")) {
		l, ok := verify(line)
		if !ok {
			return nil, nil, fmt.Errorf("%w: %s line %d: hash mismatch (content altered)", ErrInvalid, path, n+1)
		}
		if l.Prev != prev {
			return nil, nil, fmt.Errorf("%w: %s line %d: broken hash chain (records altered or reordered)", ErrInvalid, path, n+1)
		}
		prev = l.Hash
		if n == 0 {
			var h header
			if err := json.Unmarshal(line, &h); err != nil || h.Kind != "header" || len(h.Config) == 0 {
				return nil, nil, fmt.Errorf("%w: %s does not start with a header record", ErrInvalid, path)
			}
			if h.Version != version {
				return nil, nil, fmt.Errorf("%w: %s has format version %d, this build reads %d", ErrInvalid, path, h.Version, version)
			}
			if err := json.Unmarshal(h.Config, config); err != nil {
				return nil, nil, fmt.Errorf("%w: %s header: %v", ErrInvalid, path, err)
			}
			continue
		}
		var rec R
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, nil, fmt.Errorf("%w: %s line %d: %v", ErrInvalid, path, n+1, err)
		}
		recs = append(recs, rec)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	return &Journal{f: f, prev: prev}, recs, nil
}

// Append chains, writes, and fsyncs one record, setting its Prev and Hash.
func (j *Journal) Append(rec Record) error {
	line, err := seal(rec, j.prev)
	if err != nil {
		return err
	}
	if _, err := j.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: sync: %w", err)
	}
	j.prev = rec.link().Hash
	return nil
}

// Close closes the underlying file.
func (j *Journal) Close() error {
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
