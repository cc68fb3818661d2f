package serve

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// waitJobInProc waits on a registered job's completion channel directly —
// the recovery tests drive the Server API without an HTTP transport.
func waitJobInProc(t *testing.T, s *Server, key string) JobStatus {
	t.Helper()
	deadline := time.After(2 * time.Minute)
	for {
		if job, ok := s.lookupJob(key); ok {
			select {
			case <-job.Done():
				return job.Status()
			case <-deadline:
				t.Fatalf("job %s did not finish in time", key)
			}
		}
		select {
		case <-deadline:
			t.Fatalf("job %s never registered", key)
		case <-time.After(time.Millisecond):
		}
	}
}

// TestWorkerCrashIsolation: a panic inside the analysis must fail that one
// job as retryable, leave every other worker alive, and put nothing in the
// cache — a crashed run can never poison the content-addressed store.
func TestWorkerCrashIsolation(t *testing.T) {
	s, ts := newTestServer(t, Config{JournalDir: t.TempDir(), Workers: 2})
	setTestJobHook(func(*Job) { panic("injected solver fault") })
	t.Cleanup(func() { setTestJobHook(nil) })

	body := jobBody(t, JobRequest{Input: caseInputText(t, "paper5", 1, 3)})
	sub, code := submit(t, ts.URL, "alice", body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	st := waitDone(t, ts.URL, sub.JobID)
	if st.State != JobFailed {
		t.Fatalf("state %s, want failed", st.State)
	}
	if !st.Retryable || !strings.Contains(st.Error, "worker crashed") {
		t.Fatalf("want a retryable worker-crash error, got retryable=%v %q", st.Retryable, st.Error)
	}
	if cs := s.Cache().Stats(); cs.Entries != 0 {
		t.Fatalf("crashed job left %d cache entries", cs.Entries)
	}
	if _, err := os.Stat(filepath.Join(s.cfg.JournalDir, sub.JobID+".result.json")); !os.IsNotExist(err) {
		t.Fatalf("crashed job persisted a result file (err=%v)", err)
	}

	// The crash is transient: disarm the fault and resubmit the same bytes.
	// The content address replaces the failed job and solves for real.
	setTestJobHook(nil)
	again, code := submit(t, ts.URL, "alice", body)
	if code != http.StatusAccepted || again.JobID != sub.JobID {
		t.Fatalf("resubmit: status %d id %s", code, again.JobID)
	}
	st = waitDone(t, ts.URL, again.JobID)
	if st.State != JobDone || !st.Result.Definitive {
		t.Fatalf("retry after crash: state %s definitive=%v", st.State, st.Result != nil && st.Result.Definitive)
	}
	if cs := s.Cache().Stats(); cs.Entries != 1 {
		t.Fatalf("retried solve did not cache: %+v", cs)
	}
}

// referenceRun solves one job on a throwaway durable server and returns its
// parsed form plus the status and the journal-dir path.
func referenceRun(t *testing.T, req JobRequest) (*ParsedJob, JobStatus, string) {
	t.Helper()
	dir := t.TempDir()
	s, _ := newTestServer(t, Config{JournalDir: dir, Workers: 1})
	body := jobBody(t, req)
	parsed, err := ParseJobRequest(body, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(parsed, "ref", body); err != nil {
		t.Fatal(err)
	}
	st := waitJobInProc(t, s, parsed.Key)
	if st.State != JobDone {
		t.Fatalf("reference run failed: %s", st.Error)
	}
	return parsed, st, dir
}

// TestRestartResumeTruncatedJournal is the kill-and-restart contract at the
// library layer: a daemon that died mid-solve leaves a request record and a
// journal prefix; Recover on a fresh process resumes at the first incomplete
// iteration and the verdict is bit-identical to the uninterrupted run. A
// ladder job resumes from its journal like a single-target one.
func TestRestartResumeTruncatedJournal(t *testing.T) {
	for _, targets := range [][]float64{{1}, {0.5, 1, 2}} {
		req := JobRequest{Input: caseInputText(t, "synth30", 1, 3), Targets: targets}
		parsed, ref, refDir := referenceRun(t, req)
		refRung := ref.Result.Rungs[0]
		if refRung.Iterations < 3 {
			t.Fatalf("reference scenario ran %d iterations; the resume test needs >= 3", refRung.Iterations)
		}

		journal, err := os.ReadFile(filepath.Join(refDir, parsed.Key+".journal"))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitAfter(string(journal), "\n")
		// header + first two completed iterations: a valid hash-chain prefix,
		// exactly what an fsync'd journal holds after dying in iteration three.
		truncated := strings.Join(lines[:3], "")

		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, parsed.Key+".journal"), []byte(truncated), 0o644); err != nil {
			t.Fatal(err)
		}
		reqFile, err := os.ReadFile(filepath.Join(refDir, parsed.Key+".req.json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, parsed.Key+".req.json"), reqFile, 0o644); err != nil {
			t.Fatal(err)
		}

		s, _ := newTestServer(t, Config{JournalDir: dir, Workers: 1})
		reloaded, resumed, err := s.Recover()
		if err != nil || reloaded != 0 || resumed != 1 {
			t.Fatalf("Recover = (%d, %d, %v), want (0, 1, nil)", reloaded, resumed, err)
		}
		st := waitJobInProc(t, s, parsed.Key)
		if st.State != JobDone {
			t.Fatalf("resumed job failed: %s", st.Error)
		}
		for i, rung := range st.Result.Rungs {
			refRung := ref.Result.Rungs[i]
			// Every rung still open after the two journaled iterations
			// replays both; one that closed earlier replays its own.
			if want := min(2, refRung.Iterations); rung.ResumedIterations != want {
				t.Fatalf("targets %v rung %d: resumed %d iterations, want exactly the %d journaled ones", targets, i, rung.ResumedIterations, want)
			}
			if rung.Iterations != refRung.Iterations {
				t.Fatalf("targets %v rung %d: resumed run took %d iterations, reference took %d", targets, i, rung.Iterations, refRung.Iterations)
			}
		}
		if !bytes.Equal(st.Result.VerdictBytes(), ref.Result.VerdictBytes()) {
			t.Fatalf("resumed verdict differs from uninterrupted run:\n%s\nvs\n%s",
				st.Result.VerdictBytes(), ref.Result.VerdictBytes())
		}
	}
}

// TestRecoverFinalizedJournalNoResolve: when the journal reached its final
// record but the process died before writing the result file, recovery must
// reconstruct the verdict entirely from the journal — zero new solving.
func TestRecoverFinalizedJournalNoResolve(t *testing.T) {
	req := JobRequest{Input: caseInputText(t, "ieee14", 1, 3), Targets: []float64{1}}
	parsed, ref, refDir := referenceRun(t, req)
	if ref.Result.Rungs[0].Iterations == 0 {
		t.Fatal("reference scenario finished without iterations; pick one that iterates")
	}

	dir := t.TempDir()
	for _, suffix := range []string{".journal", ".req.json"} {
		data, err := os.ReadFile(filepath.Join(refDir, parsed.Key+suffix))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, parsed.Key+suffix), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s, _ := newTestServer(t, Config{JournalDir: dir, Workers: 1})
	if _, resumed, err := s.Recover(); err != nil || resumed != 1 {
		t.Fatalf("Recover resumed=%d err=%v", resumed, err)
	}
	st := waitJobInProc(t, s, parsed.Key)
	if st.State != JobDone {
		t.Fatalf("recovered job failed: %s", st.Error)
	}
	rung := st.Result.Rungs[0]
	if rung.ResumedIterations != rung.Iterations {
		t.Fatalf("finalized journal re-solved: replayed %d of %d iterations", rung.ResumedIterations, rung.Iterations)
	}
	if !bytes.Equal(st.Result.VerdictBytes(), ref.Result.VerdictBytes()) {
		t.Fatal("journal-reconstructed verdict differs from the original")
	}
	if cs := s.Cache().Stats(); cs.Entries != 1 {
		t.Fatalf("recovered definitive result not cached: %+v", cs)
	}
}

// TestRecoverReloadsResults: persisted definitive results re-enter the cache
// on restart, so finalized jobs are never solved twice.
func TestRecoverReloadsResults(t *testing.T) {
	req := JobRequest{Input: caseInputText(t, "paper5", 2, 3)}
	parsed, ref, refDir := referenceRun(t, req)

	s, ts := newTestServer(t, Config{JournalDir: refDir, Workers: 1})
	reloaded, resumed, err := s.Recover()
	if err != nil || reloaded != 1 || resumed != 0 {
		t.Fatalf("Recover = (%d, %d, %v), want (1, 0, nil)", reloaded, resumed, err)
	}
	sub, code := submit(t, ts.URL, "alice", jobBody(t, req))
	if code != http.StatusOK || !sub.Cached {
		t.Fatalf("post-restart submit: status %d cached=%v — the job was re-solved", code, sub.Cached)
	}
	if sub.JobID != parsed.Key {
		t.Fatalf("post-restart key %s != %s", sub.JobID, parsed.Key)
	}
	if !bytes.Equal(sub.Result.VerdictBytes(), ref.Result.VerdictBytes()) {
		t.Fatal("reloaded result differs from the original solve")
	}
}

// TestStaleJournalDiscarded: a journal that belongs to a different problem
// (a stale artifact at the right path) must be discarded and the job solved
// cold, not failed and not resumed against the wrong trail.
func TestStaleJournalDiscarded(t *testing.T) {
	req := JobRequest{Input: caseInputText(t, "ieee14", 1, 3), Targets: []float64{1}}
	otherReq := JobRequest{Input: caseInputText(t, "synth30", 1, 3), Targets: []float64{1}}
	_, ref, _ := referenceRun(t, req)
	otherParsed, _, otherDir := referenceRun(t, otherReq)

	dir := t.TempDir()
	parsed, err := ParseJobRequest(jobBody(t, req), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	stale, err := os.ReadFile(filepath.Join(otherDir, otherParsed.Key+".journal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, parsed.Key+".journal"), stale, 0o644); err != nil {
		t.Fatal(err)
	}

	s, _ := newTestServer(t, Config{JournalDir: dir, Workers: 1})
	if _, err := s.Submit(parsed, "alice", jobBody(t, req)); err != nil {
		t.Fatal(err)
	}
	st := waitJobInProc(t, s, parsed.Key)
	if st.State != JobDone {
		t.Fatalf("job with stale journal failed: %s", st.Error)
	}
	if !bytes.Equal(st.Result.VerdictBytes(), ref.Result.VerdictBytes()) {
		t.Fatal("cold re-solve after discarding a stale journal diverged")
	}
}

// TestRecoverSkipsCorruptArtifacts: unreadable durable files are logged and
// skipped, never fatal, and never enter the cache.
func TestRecoverSkipsCorruptArtifacts(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"0000.result.json": "{not json",
		"1111.result.json": `{"key":"mismatched","rungs":[],"definitive":true}`,
		"2222.req.json":    "also not json",
		"3333.req.json":    `{"tenant":"a","request":{"input":""}}`,
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, _ := newTestServer(t, Config{JournalDir: dir})
	reloaded, resumed, err := s.Recover()
	if err != nil || reloaded != 0 || resumed != 0 {
		t.Fatalf("Recover = (%d, %d, %v), want all corrupt artifacts skipped", reloaded, resumed, err)
	}
	if cs := s.Cache().Stats(); cs.Entries != 0 {
		t.Fatalf("corrupt artifacts reached the cache: %+v", cs)
	}
}
