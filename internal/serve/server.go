package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"gridattack/internal/core"
)

// Config parameterizes a Server.
type Config struct {
	// Workers is the number of queue shards / worker goroutines
	// (0 = GOMAXPROCS).
	Workers int
	// QueueDepth is the per-shard backlog before submits see 503 (0 = 64).
	QueueDepth int
	// CacheEntries bounds the result cache (0 = DefaultCacheEntries).
	CacheEntries int
	// JournalDir, when non-empty, makes the service durable: requests,
	// checkpoint journals, and definitive results are persisted there, and
	// Recover resumes in-flight jobs after a restart.
	// Empty runs fully in-memory.
	JournalDir string
	// DefaultTier applies to tenants absent from Tiers. The zero Tier means
	// no rate limit, no solver budgets, sequential analysis.
	DefaultTier Tier
	// Tiers maps tenant names (the X-Tenant request header) to QoS classes.
	Tiers map[string]Tier
	// Limits bound individual requests.
	Limits Limits
	// Now is the admission clock (nil = time.Now); injectable for tests.
	Now func() time.Time
	// Logf receives operational log lines (nil = discard).
	Logf func(format string, args ...any)
}

// Server is the analysis service: HTTP transport over a sharded job queue,
// content-addressed cache, and tenant table.
type Server struct {
	cfg     Config
	limits  Limits
	cache   *Cache
	tenants *Tenants
	queue   *queue
	mux     *http.ServeMux

	mu      sync.Mutex
	jobs    map[string]*Job
	order   []string // insertion order, for pruning terminal jobs
	maxJobs int      // job-table bound (maxRetainedJobs; smaller in tests)
}

// maxRetainedJobs bounds the in-memory job table; terminal jobs beyond it
// are pruned oldest-first (their results live on in the cache).
const maxRetainedJobs = 16384

// New builds a Server and starts its workers.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.JournalDir != "" {
		if err := os.MkdirAll(cfg.JournalDir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: journal dir: %w", err)
		}
	}
	s := &Server{
		cfg:     cfg,
		limits:  cfg.Limits.fill(),
		cache:   NewCache(cfg.CacheEntries),
		tenants: NewTenants(cfg.DefaultTier, cfg.Tiers, cfg.Now),
		jobs:    make(map[string]*Job),
		maxJobs: maxRetainedJobs,
	}
	s.queue = newQueue(cfg.Workers, cfg.QueueDepth, s.runJob)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n")
	})
	return s, nil
}

// Handler returns the HTTP handler serving the v1 API.
func (s *Server) Handler() http.Handler { return s.mux }

// Close drains the queue: intake stops and in-flight jobs run to completion.
func (s *Server) Close() { s.queue.close() }

// Cache exposes the result cache (stats, tests).
func (s *Server) Cache() *Cache { return s.cache }

// Tenants exposes the tenant table (stats, tests).
func (s *Server) Tenants() *Tenants { return s.tenants }

func (s *Server) journalPath(key string) string {
	return filepath.Join(s.cfg.JournalDir, key+".journal")
}
func (s *Server) reqPath(key string) string {
	return filepath.Join(s.cfg.JournalDir, key+".req.json")
}
func (s *Server) resultPath(key string) string {
	return filepath.Join(s.cfg.JournalDir, key+".result.json")
}

// storedRequest is the durable form of a submission, written next to the
// journal so a restarted daemon can rebuild and resume the job.
type storedRequest struct {
	Tenant  string          `json:"tenant"`
	Request json.RawMessage `json:"request"`
}

// writeFileAtomic writes via a temp file + rename so a crash mid-write never
// leaves a torn durable artifact.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// lookupJob returns the job addressed by id.
func (s *Server) lookupJob(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// registerJob installs job under its ID, pruning old terminal jobs when the
// table is full. It returns the job actually registered: when a live job
// with the same ID already exists, that one wins (deduplication).
func (s *Server) registerJob(job *Job) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if existing, ok := s.jobs[job.ID]; ok {
		switch st := existing.Status(); st.State {
		case JobQueued, JobRunning:
			return existing, false
		case JobDone:
			// A definitive verdict is final — the arrival rides it. A
			// non-definitive (budget-canceled) one is retryable: replace, so
			// the resubmission solves again, possibly under a bigger budget.
			if res, ok := existing.Result(); ok && res.Definitive {
				return existing, false
			}
		case JobFailed:
			// Replace with the fresh attempt.
		}
	} else {
		s.order = append(s.order, job.ID)
	}
	s.jobs[job.ID] = job
	if len(s.order) > s.maxJobs {
		keep := s.order[:0]
		for _, id := range s.order {
			if j, ok := s.jobs[id]; ok && len(s.jobs) > s.maxJobs/2 {
				switch j.Status().State {
				case JobDone, JobFailed:
					delete(s.jobs, id)
					continue
				}
			}
			keep = append(keep, id)
		}
		s.order = keep
	}
	return job, true
}

// Submit runs the full submission path programmatically (the HTTP handler
// and the restart-recovery scan both funnel through it): cache lookup,
// deduplication, durable request record, enqueue. It never rate-limits —
// admission is the transport's concern.
func (s *Server) Submit(parsed *ParsedJob, tenant string, rawRequest []byte) (*Job, error) {
	tier := s.tenants.TierFor(tenant)
	if res, ok := s.cache.Get(parsed.Key); ok {
		job := newCachedJob(parsed, tenant, tier, res)
		reg, _ := s.registerJob(job)
		return reg, nil
	}
	job := newJob(parsed, tenant, tier)
	reg, fresh := s.registerJob(job)
	if !fresh {
		return reg, nil
	}
	if s.cfg.JournalDir != "" {
		sr, err := json.Marshal(storedRequest{Tenant: tenant, Request: rawRequest})
		if err == nil {
			err = writeFileAtomic(s.reqPath(parsed.Key), sr)
		}
		if err != nil {
			s.cfg.Logf("serve: persist request %s: %v", parsed.Key, err)
		}
	}
	if err := s.queue.submit(job); err != nil {
		job.fail(err.Error(), true)
		return job, err
	}
	return job, nil
}

// Recover replays the durable state left in JournalDir by a previous
// process: persisted definitive results re-enter the cache verbatim, and
// persisted requests without a result are resubmitted — their checkpoint
// journals make every job, ladders included, resume at the first incomplete
// iteration (bit-identically, finalized journals re-solving nothing).
// Returns (results reloaded, jobs resumed).
func (s *Server) Recover() (reloaded, resumed int, err error) {
	if s.cfg.JournalDir == "" {
		return 0, 0, nil
	}
	entries, err := os.ReadDir(s.cfg.JournalDir)
	if err != nil {
		return 0, 0, fmt.Errorf("serve: recover: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".result.json") {
			continue
		}
		key := strings.TrimSuffix(name, ".result.json")
		data, rerr := os.ReadFile(filepath.Join(s.cfg.JournalDir, name))
		if rerr != nil {
			s.cfg.Logf("serve: recover result %s: %v", key, rerr)
			continue
		}
		var res Result
		if jerr := json.Unmarshal(data, &res); jerr != nil || res.Key != key {
			s.cfg.Logf("serve: recover result %s: corrupt, skipping", key)
			continue
		}
		if s.cache.Put(key, &res) {
			reloaded++
		}
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".req.json") {
			continue
		}
		key := strings.TrimSuffix(name, ".req.json")
		if _, statErr := os.Stat(s.resultPath(key)); statErr == nil {
			continue // finished and durably recorded; the cache has it
		}
		data, rerr := os.ReadFile(filepath.Join(s.cfg.JournalDir, name))
		if rerr != nil {
			s.cfg.Logf("serve: recover request %s: %v", key, rerr)
			continue
		}
		var sr storedRequest
		if jerr := json.Unmarshal(data, &sr); jerr != nil {
			s.cfg.Logf("serve: recover request %s: corrupt, skipping", key)
			continue
		}
		parsed, perr := ParseJobRequest(sr.Request, s.limits)
		if perr != nil || parsed.Key != key {
			s.cfg.Logf("serve: recover request %s: stale or invalid, skipping", key)
			continue
		}
		if _, serr := s.Submit(parsed, sr.Tenant, sr.Request); serr != nil {
			s.cfg.Logf("serve: recover submit %s: %v", key, serr)
			continue
		}
		resumed++
	}
	return reloaded, resumed, nil
}

// testJobHook, when set, runs at the start of every job execution; the
// failure-path tests use it to stand in for a worker crash. Guarded so the
// race detector stays quiet when tests flip it around live workers.
var (
	testHookMu  sync.Mutex
	testJobHook func(*Job)
)

func setTestJobHook(fn func(*Job)) {
	testHookMu.Lock()
	testJobHook = fn
	testHookMu.Unlock()
}

func currentTestJobHook() func(*Job) {
	testHookMu.Lock()
	defer testHookMu.Unlock()
	return testJobHook
}

// runJob executes one queued job on its shard worker. A panicking analysis
// is isolated here: the worker recovers, the job fails retryable, and —
// because only complete definitive results are ever Put — the cache cannot
// be poisoned by the wreckage.
func (s *Server) runJob(job *Job) {
	defer func() {
		if p := recover(); p != nil {
			s.cfg.Logf("serve: job %s crashed: %v", job.ID, p)
			job.fail(fmt.Sprintf("worker crashed: %v", p), true)
		}
	}()
	// A duplicate submitted while this key was queued may have finished and
	// populated the cache meanwhile; also, restart recovery funnels completed
	// keys here when their result file was lost but the journal survived.
	// Submit already counted this key's miss.
	if res, ok := s.cache.lookup(job.ID, false); ok {
		job.completeFromCache(res)
		return
	}
	job.setRunning()
	if hook := currentTestJobHook(); hook != nil {
		hook(job)
	}
	res, err := s.solve(job)
	if err != nil {
		job.fail(err.Error(), false)
		return
	}
	if res.Definitive {
		s.cache.Put(job.ID, res)
		if s.cfg.JournalDir != "" {
			if data, merr := json.Marshal(res); merr == nil {
				if werr := writeFileAtomic(s.resultPath(job.ID), data); werr != nil {
					s.cfg.Logf("serve: persist result %s: %v", job.ID, werr)
				}
			}
		}
	}
	job.complete(res)
}

// solve runs the analysis for one job: a ladder of the job's targets (one
// rung for a single-target job), checkpointed under JournalDir, each journal
// record streaming out as a progress event.
func (s *Server) solve(job *Job) (*Result, error) {
	p := job.Parsed
	a := &core.Analyzer{
		Grid:           p.In.Grid,
		Plan:           p.In.Plan,
		Capability:     p.Capability(),
		Verify:         p.Mode,
		MaxIterations:  p.Req.MaxIterations,
		BlockPrecision: p.Req.BlockPrecision,
		Certify:        p.Req.Certify,
		NoIncremental:  p.Req.NoIncremental,
		Parallelism:    job.Tier.parallelism(),
		MaxConflicts:   job.Tier.MaxConflicts,
		MaxPivots:      job.Tier.MaxPivots,
		QueryTimeout:   job.Tier.QueryTimeout,
	}
	if s.cfg.JournalDir != "" {
		a.CheckpointPath = s.journalPath(job.ID)
	}
	a.JournalObserver = func(rec core.JournalRecord) {
		switch rec.Kind {
		case core.RecIter:
			job.events.append("iter", map[string]any{"iter": rec.Iter, "cost": rec.Cost, "reached": targetsAt(p.Targets, rec.Reached)})
		case core.RecFinal:
			rungs := make([]map[string]any, len(rec.Verdicts))
			for i, v := range rec.Verdicts {
				rungs[i] = map[string]any{"target": p.Targets[i], "found": v.Found, "exhausted": v.Exhausted}
			}
			job.events.append("final", map[string]any{"rungs": rungs})
		}
	}
	reps, err := a.RunLadder(p.Targets)
	if errors.Is(err, core.ErrJournal) && a.CheckpointPath != "" {
		// The journal on disk belongs to a different problem or is damaged
		// beyond the torn-tail rule. The content address makes this a stale
		// artifact, not a resumable run: discard and solve cold rather than
		// failing the job.
		s.cfg.Logf("serve: job %s: discarding unusable journal: %v", job.ID, err)
		if rmErr := os.Remove(a.CheckpointPath); rmErr != nil {
			return nil, err
		}
		reps, err = a.RunLadder(p.Targets)
	}
	if err != nil {
		return nil, err
	}
	return resultFromReports(job.ID, p.Targets, reps), nil
}

// targetsAt maps rung indices to their target percentages.
func targetsAt(targets []float64, rungs []int) []float64 {
	out := make([]float64, len(rungs))
	for k, i := range rungs {
		out[k] = targets[i]
	}
	return out
}

// ---- HTTP transport ----

type submitResponse struct {
	JobID        string   `json:"job_id"`
	State        JobState `json:"state"`
	Cached       bool     `json:"cached,omitempty"`
	Deduplicated bool     `json:"deduplicated,omitempty"`
	Result       *Result  `json:"result,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// tenantOf extracts the caller identity; absent means the anonymous tenant.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return "anonymous"
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	tenant := tenantOf(r)
	if !s.tenants.Admit(tenant) {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "tenant %q is over its admission rate", tenant)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, int64(s.limits.MaxRequestBytes)))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "request exceeds %d bytes", s.limits.MaxRequestBytes)
			return
		}
		writeError(w, http.StatusBadRequest, "reading request: %v", err)
		return
	}
	parsed, err := ParseJobRequest(body, s.limits)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	existing, hadJob := s.lookupJob(parsed.Key)
	job, err := s.Submit(parsed, tenant, body)
	if err != nil {
		if errors.Is(err, ErrQueueFull) {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, "queue full, retry later")
			return
		}
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	st := job.Status()
	resp := submitResponse{JobID: job.ID, State: st.State, Cached: st.Cached}
	if st.State == JobDone {
		// Served without solving anything for this submission — whether the
		// result came from the cache proper or from an already-finished job
		// in the registry, to the caller it is a cache hit.
		if hadJob && existing == job {
			resp.Cached = true
		}
		resp.Result = st.Result
		writeJSON(w, http.StatusOK, resp)
		return
	}
	resp.Deduplicated = hadJob && existing == job
	writeJSON(w, http.StatusAccepted, resp)
}

func (s *Server) jobFor(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	job, ok := s.lookupJob(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return nil, false
	}
	return job, true
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if job, ok := s.jobFor(w, r); ok {
		writeJSON(w, http.StatusOK, job.Status())
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	st := job.Status()
	switch st.State {
	case JobDone:
		writeJSON(w, http.StatusOK, st)
	case JobFailed:
		writeJSON(w, http.StatusUnprocessableEntity, st)
	default:
		writeJSON(w, http.StatusAccepted, st)
	}
}

// handleEvents streams the job's progress log as server-sent events: the
// full history first (replayed journal records included, so a resumed job's
// stream is complete), then live records until the job reaches a terminal
// state or the client disconnects.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	events := job.Events()
	fl, canFlush := w.(http.Flusher)
	if !canFlush {
		writeError(w, http.StatusNotImplemented, "streaming unsupported by transport")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	_, _ = events.follow(r.Context(), 0, func(ev Event) error {
		if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\n", ev.Seq, ev.Type); err != nil {
			return err
		}
		data := ev.Data
		if len(data) == 0 {
			data = json.RawMessage("{}")
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", data); err != nil {
			return err
		}
		fl.Flush()
		return nil
	})
}

// StatsSnapshot is the /v1/stats payload.
type StatsSnapshot struct {
	Cache   CacheStats             `json:"cache"`
	Tenants map[string]TenantStats `json:"tenants"`
	Jobs    map[JobState]int       `json:"jobs"`
	Workers int                    `json:"workers"`
}

// Stats snapshots service-wide counters.
func (s *Server) Stats() StatsSnapshot {
	snap := StatsSnapshot{
		Cache:   s.cache.Stats(),
		Tenants: s.tenants.Stats(),
		Jobs:    make(map[JobState]int),
		Workers: s.cfg.Workers,
	}
	s.mu.Lock()
	for _, job := range s.jobs {
		snap.Jobs[job.Status().State]++
	}
	s.mu.Unlock()
	return snap
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}
