package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"gridattack/internal/cases"
	"gridattack/internal/core"
	"gridattack/internal/serve"
	"gridattack/internal/textio"
)

// serve_mix drives an in-process durable gridattackd over loopback HTTP with
// an open-loop schedule: request i is due at start + i/serveRate whatever
// happened to earlier requests, and its latency runs from that due time to
// the verdict in hand.
const (
	serveRate    = 60 // requests per second
	serveWorkers = 2
	// The default tier's deterministic solver budgets: far above what any
	// request of the mix needs, so a request that hits one (a Canceled,
	// non-definitive verdict) is a failure.
	serveMaxConflicts = 200000
	serveMaxPivots    = 2000000
	// serveGiveUp bounds how long the generator waits for one verdict.
	serveGiveUp = 60 * time.Second
)

// serveReq is one scheduled request.
type serveReq struct {
	class  string // hot, ladder or cold
	tenant string
	body   []byte
}

// buildServeMix renders the problems and draws n requests from the seed:
// 50% hot repeats of a small fixed set (the paper's two case studies and
// three registry scenarios), 20% threshold ladders over Case Study 2 and
// three registry scenarios, and 30% cold problems that are unique
// within the run (registry scenario, target) pairs from paper5, ieee14 and
// synth30.
func buildServeMix(seed int64, n int) ([]serveReq, error) {
	rendered := map[string]string{}
	render := func(caseName string, scen int64) (string, error) {
		key := fmt.Sprintf("%s/%d", caseName, scen)
		if s, ok := rendered[key]; ok {
			return s, nil
		}
		c, err := cases.ByName(caseName)
		if err != nil {
			return "", err
		}
		sc := core.NewScenario(c, core.ScenarioConfig{Seed: scen})
		var buf bytes.Buffer
		in := &textio.Input{Grid: sc.Case.Grid, Plan: sc.Plan, Capability: sc.Capability, MinIncreasePercent: 3}
		if err := textio.Write(&buf, in); err != nil {
			return "", err
		}
		rendered[key] = buf.String()
		return rendered[key], nil
	}
	caseStudy := func(n int) (string, error) {
		data, err := os.ReadFile(filepath.Join("testdata", fmt.Sprintf("case_study_%d.txt", n)))
		return string(data), err
	}

	cs1, err := caseStudy(1)
	if err != nil {
		return nil, err
	}
	cs2, err := caseStudy(2)
	if err != nil {
		return nil, err
	}
	// Case Study 1 at its own 1.5% target is exhausted; Case Study 2, the
	// state-infection study, finds an attack at 5%.
	hot := []serve.JobRequest{{Input: cs1}, {Input: cs2, States: true, Targets: []float64{5}}}
	for _, p := range []struct {
		name   string
		target float64
	}{{"paper5", 3}, {"ieee14", 3}, {"synth30", 1.5}} {
		in, err := render(p.name, 1)
		if err != nil {
			return nil, err
		}
		hot = append(hot, serve.JobRequest{Input: in, Targets: []float64{p.target}})
	}
	ladderSets := [][]float64{{1, 2, 3, 5, 8}, {0.5, 1.5, 2.5}, {2, 4, 6}}
	ladders := []serve.JobRequest{{Input: cs2, States: true, Targets: []float64{3, 5, 6}}}
	for _, name := range []string{"paper5", "ieee14", "synth30"} {
		in, err := render(name, 2)
		if err != nil {
			return nil, err
		}
		for _, ts := range ladderSets {
			ladders = append(ladders, serve.JobRequest{Input: in, Targets: ts})
		}
	}
	// Cold problems: one shuffled pool per case, drawn round-robin across
	// the cases so every run carries the same share of each.
	coldCases := []string{"paper5", "ieee14", "synth30"}
	type coldKey struct {
		scen   int64
		target float64
	}
	rng := rand.New(rand.NewSource(seed))
	cold := make([][]coldKey, len(coldCases))
	for c := range coldCases {
		for scen := int64(3); scen <= 8; scen++ {
			for t := 1; t <= 40; t++ {
				cold[c] = append(cold[c], coldKey{scen, 0.25 * float64(t)})
			}
		}
		rng.Shuffle(len(cold[c]), func(i, j int) { cold[c][i], cold[c][j] = cold[c][j], cold[c][i] })
	}

	// Classes come in shuffled blocks of ten: 5 hot, 2 ladder, 3 cold.
	block := []string{"hot", "hot", "hot", "hot", "hot", "ladder", "ladder", "cold", "cold", "cold"}
	tenants := []string{"tenant-a", "tenant-b", "tenant-c"}
	reqs := make([]serveReq, 0, n)
	var colds int
	for i := 0; i < n; i++ {
		if i%len(block) == 0 {
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		class := block[i%len(block)]
		var req serve.JobRequest
		switch class {
		case "hot":
			req = hot[rng.Intn(len(hot))]
		case "ladder":
			req = ladders[rng.Intn(len(ladders))]
		default:
			c := colds % len(coldCases)
			k := colds / len(coldCases)
			colds++
			if k >= len(cold[c]) {
				return nil, fmt.Errorf("serve mix: cold pool exhausted after %d requests", i)
			}
			in, err := render(coldCases[c], cold[c][k].scen)
			if err != nil {
				return nil, err
			}
			req = serve.JobRequest{Input: in, Targets: []float64{cold[c][k].target}}
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, serveReq{class: class, tenant: tenants[i%len(tenants)], body: body})
	}
	return reqs, nil
}

// daemon is one in-process gridattackd.
type daemon struct {
	srv  *serve.Server
	http *http.Server
	ln   net.Listener
	dir  string
	base string
	done chan struct{} // closed when the HTTP server has returned
}

// scratchDir makes a fresh directory under the build directory, so the
// benchmark writes nothing outside its checkout.
func scratchDir(prefix string) (string, error) {
	root := os.Getenv("PERFBENCH_BUILD")
	if root == "" {
		root = ".bench_build"
	}
	root = filepath.Join(root, "tmp")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, prefix)
}

// startDaemon brings up a durable server with a fresh journal directory.
// wrap, when non-nil, installs the traced submit handler.
func startDaemon(wrap func(*serve.Server) http.Handler) (*daemon, error) {
	dir, err := scratchDir("serve-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{
		Workers:     serveWorkers,
		JournalDir:  dir,
		DefaultTier: serve.Tier{MaxConflicts: serveMaxConflicts, MaxPivots: serveMaxPivots},
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(srv)
	}
	d := &daemon{srv: srv, http: &http.Server{Handler: h}, ln: ln, dir: dir, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		_ = d.http.Serve(ln) // returns ErrServerClosed on stop
	}()
	resp, err := http.Get(d.base + "/healthz")
	if err != nil {
		d.stop()
		return nil, fmt.Errorf("daemon health check: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return d, nil
}

// stop shuts the daemon down, waits for its goroutines and deletes its
// journal directory.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.http.Shutdown(ctx); err != nil {
		d.http.Close()
	}
	<-d.done
	d.srv.Close()
	os.RemoveAll(d.dir)
}

// submitReply mirrors the daemon's POST /v1/jobs response.
type submitReply struct {
	JobID        string         `json:"job_id"`
	State        serve.JobState `json:"state"`
	Cached       bool           `json:"cached,omitempty"`
	Deduplicated bool           `json:"deduplicated,omitempty"`
	Result       *serve.Result  `json:"result,omitempty"`
}

// reqOutcome is what the generator observed for one request.
type reqOutcome struct {
	class   string
	key     string
	refused bool
	failed  string // why the request failed ("" = answered)
	hit     bool   // answered on the POST without solving
	dedup   bool   // rode an earlier submission of the same key
	solved  bool   // accepted as a fresh job that solved
	verdict []byte
	due     time.Time
	sent    time.Time
	resp    time.Time
	got     time.Time // verdict in hand
}

// serverTimes is what the traced submit handler observed for one request.
type serverTimes struct {
	mu             sync.Mutex
	parse0, parse1 time.Time
	submit1        time.Time
	running, done  time.Time
	watched        chan struct{} // closed once running/done are final
}

// tracedSubmit re-drives the daemon's submit path from its public calls —
// serve.ParseJobRequest then Server.Submit — timing each, and watches
// accepted jobs to time their queue wait and solve. Every other route goes
// to the daemon's own handler. Deduplication is detected the way the
// daemon's handler does it: the returned job is one an earlier submission
// of the key already got.
func tracedSubmit(ops []*serverTimes) func(*serve.Server) http.Handler {
	return func(s *serve.Server) http.Handler {
		var mu sync.Mutex
		seen := map[string]*serve.Job{}
		mux := http.NewServeMux()
		mux.Handle("/", s.Handler())
		mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
			op, err := strconv.Atoi(r.Header.Get("X-Bench-Op"))
			if err != nil || op < 0 || op >= len(ops) {
				http.Error(w, "missing X-Bench-Op", http.StatusBadRequest)
				return
			}
			st := ops[op]
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			t0 := time.Now()
			parsed, err := serve.ParseJobRequest(body, serve.Limits{})
			t1 := time.Now()
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			tenant := r.Header.Get("X-Tenant")
			job, err := s.Submit(parsed, tenant, body)
			t2 := time.Now()
			st.mu.Lock()
			st.parse0, st.parse1, st.submit1 = t0, t1, t2
			st.mu.Unlock()
			if err != nil {
				code := http.StatusInternalServerError
				if errors.Is(err, serve.ErrQueueFull) {
					code = http.StatusServiceUnavailable
				}
				http.Error(w, err.Error(), code)
				return
			}
			mu.Lock()
			prev, had := seen[parsed.Key]
			seen[parsed.Key] = job
			mu.Unlock()
			js := job.Status()
			reply := submitReply{JobID: job.ID, State: js.State, Cached: js.Cached}
			code := http.StatusAccepted
			if js.State == serve.JobDone {
				reply.Cached = reply.Cached || (had && prev == job)
				reply.Result = js.Result
				code = http.StatusOK
			} else {
				reply.Deduplicated = had && prev == job
				st.mu.Lock()
				st.watched = make(chan struct{})
				st.mu.Unlock()
				go watchJob(job, st)
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(code)
			_ = json.NewEncoder(w).Encode(reply)
		})
		return mux
	}
}

// watchJob records when an accepted job starts running and when it ends.
// Queue wait is observed by polling the job's state every 250µs; the end is
// the job's completion channel.
func watchJob(job *serve.Job, st *serverTimes) {
	tick := time.NewTicker(250 * time.Microsecond)
	defer tick.Stop()
	var running time.Time
	for running.IsZero() {
		if job.Status().State != serve.JobQueued {
			running = time.Now()
			break
		}
		select {
		case <-job.Done():
			running = time.Now()
		case <-tick.C:
		}
	}
	<-job.Done()
	done := time.Now()
	st.mu.Lock()
	st.running, st.done = running, done
	close(st.watched)
	st.mu.Unlock()
}

// runSchedule replays reqs open-loop against the daemon at serveRate.
func runSchedule(d *daemon, reqs []serveReq, traced bool) ([]reqOutcome, time.Time, time.Time) {
	nproc := runtime.NumCPU()
	tr := &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc, IdleConnTimeout: 30 * time.Second}
	client := &http.Client{Transport: tr}
	defer tr.CloseIdleConnections()

	outs := make([]reqOutcome, len(reqs))
	interval := time.Second / serveRate
	start := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	for i := range reqs {
		due := start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			outs[i] = issue(client, d.base, i, reqs[i], due, traced)
		}(i, due)
	}
	wg.Wait()
	last := start
	for _, o := range outs {
		if o.got.After(last) {
			last = o.got
		}
	}
	return outs, start, last
}

// issue sends one request and waits for its verdict: on the POST for cache
// hits, by polling the result endpoint (1ms doubling to 8ms) for accepted
// jobs.
func issue(client *http.Client, base string, op int, q serveReq, due time.Time, traced bool) reqOutcome {
	o := reqOutcome{class: q.class, due: due, sent: time.Now()}
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(q.body))
	if err != nil {
		o.failed = err.Error()
		return o
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", q.tenant)
	if traced {
		req.Header.Set("X-Bench-Op", strconv.Itoa(op))
	}
	resp, err := client.Do(req)
	if err != nil {
		o.failed = err.Error()
		return o
	}
	var sub submitReply
	derr := json.NewDecoder(resp.Body).Decode(&sub)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	o.resp = time.Now()
	switch {
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		o.refused = true
		o.failed = fmt.Sprintf("refused with HTTP %d", resp.StatusCode)
		return o
	case derr != nil:
		o.failed = fmt.Sprintf("HTTP %d: undecodable reply: %v", resp.StatusCode, derr)
		return o
	case resp.StatusCode == http.StatusOK:
		o.key, o.hit, o.got = sub.JobID, true, o.resp
		return o.withResult(sub.Result)
	case resp.StatusCode != http.StatusAccepted:
		o.failed = fmt.Sprintf("HTTP %d", resp.StatusCode)
		return o
	}
	o.key, o.dedup, o.solved = sub.JobID, sub.Deduplicated, !sub.Deduplicated
	delay := time.Millisecond
	for {
		time.Sleep(delay)
		delay = min(2*delay, 8*time.Millisecond)
		if time.Since(due) > serveGiveUp {
			o.failed = "no verdict within " + serveGiveUp.String()
			return o
		}
		st, terminal, err := pollResult(client, base, sub.JobID)
		if err != nil {
			o.failed = err.Error()
			return o
		}
		if !terminal {
			continue
		}
		o.got = time.Now()
		if st.State != serve.JobDone {
			o.failed = "job failed: " + st.Error
			return o
		}
		if st.Cached {
			// Answered from the cache while queued: not a solve.
			o.solved = false
		}
		return o.withResult(st.Result)
	}
}

func (o reqOutcome) withResult(res *serve.Result) reqOutcome {
	switch {
	case res == nil:
		o.failed = "verdict missing from reply"
	case res.Key != o.key:
		o.failed = fmt.Sprintf("verdict for key %s answered job %s", res.Key, o.key)
	case !res.Definitive:
		o.failed = "non-definitive verdict (solver budget)"
	default:
		o.verdict = res.VerdictBytes()
	}
	return o
}

// pollResult fetches a job's result; terminal reports done or failed.
func pollResult(client *http.Client, base, id string) (serve.JobStatus, bool, error) {
	resp, err := client.Get(base + "/v1/jobs/" + id + "/result")
	if err != nil {
		return serve.JobStatus{}, false, err
	}
	defer resp.Body.Close()
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, false, fmt.Errorf("result of %s: %w", id, err)
	}
	switch resp.StatusCode {
	case http.StatusOK, http.StatusUnprocessableEntity:
		return st, true, nil
	case http.StatusAccepted:
		return st, false, nil
	}
	return st, false, fmt.Errorf("result of %s: HTTP %d", id, resp.StatusCode)
}

// directVerdict answers a request body with a direct core call configured
// as the daemon configures its analyzer for the default tier.
func directVerdict(body []byte) (string, []byte, error) {
	p, err := serve.ParseJobRequest(body, serve.Limits{})
	if err != nil {
		return "", nil, err
	}
	a := &core.Analyzer{
		Grid:           p.In.Grid,
		Plan:           p.In.Plan,
		Capability:     p.Capability(),
		Verify:         p.Mode,
		MaxIterations:  p.Req.MaxIterations,
		BlockPrecision: p.Req.BlockPrecision,
		Certify:        p.Req.Certify,
		NoIncremental:  p.Req.NoIncremental,
		Parallelism:    1,
		MaxConflicts:   serveMaxConflicts,
		MaxPivots:      serveMaxPivots,
	}
	var reps []*core.Report
	if len(p.Targets) == 1 {
		a.TargetIncreasePercent = p.Targets[0]
		rep, err := a.Run()
		if err != nil {
			return p.Key, nil, err
		}
		reps = []*core.Report{rep}
	} else if reps, err = a.RunLadder(p.Targets); err != nil {
		return p.Key, nil, err
	}
	res := &serve.Result{Key: p.Key}
	for i, rep := range reps {
		res.Rungs = append(res.Rungs, serve.RungResult{
			TargetPercent: p.Targets[i], BaselineCost: rep.BaselineCost, Threshold: rep.Threshold,
			Found: rep.Found, Exhausted: rep.Exhausted, Canceled: rep.Canceled,
			Iterations: rep.Iterations, Vector: rep.Vector, AttackedCost: rep.AttackedCost,
		})
	}
	return p.Key, res.VerdictBytes(), nil
}

// checkServe verifies every answer: all answers for one key carry identical
// verdict bytes, equal to a direct core call on the same request.
func checkServe(o *outcome, reqs []serveReq, outs []reqOutcome) {
	bodies := map[string][]byte{}
	answers := map[string][]byte{}
	for i, r := range outs {
		if r.failed != "" {
			continue
		}
		if prev, ok := answers[r.key]; ok && !bytes.Equal(prev, r.verdict) {
			o.problem("request %d (%s): verdict for key %.12s differs from an earlier answer", i, r.class, r.key)
		}
		answers[r.key] = r.verdict
		bodies[r.key] = reqs[i].body
	}
	keys := make([]string, 0, len(bodies))
	for k := range bodies {
		keys = append(keys, k)
	}
	type direct struct {
		key     string
		verdict []byte
		err     error
	}
	results := make([]direct, len(keys))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				k, v, err := directVerdict(bodies[keys[i]])
				results[i] = direct{k, v, err}
			}
		}()
	}
	for i := range keys {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, d := range results {
		switch {
		case d.err != nil:
			o.problem("direct core call for key %.12s: %v", keys[i], d.err)
		case d.key != keys[i]:
			o.problem("direct parse of key %.12s gave key %.12s", keys[i], d.key)
		case !bytes.Equal(d.verdict, answers[keys[i]]):
			o.problem("key %.12s: daemon verdict differs from a direct core call", keys[i])
		}
	}
}

// serveSegment runs one schedule against a fresh daemon, folds the results
// into o and returns the per-request outcomes.
func serveSegment(o *outcome, d *daemon, reqs []serveReq, traced bool, limit time.Duration) []reqOutcome {
	c0 := cpuTime()
	outs, start, last := runSchedule(d, reqs, traced)
	o.cpu += cpuTime() - c0
	o.rssMB = max(o.rssMB, peakRSSMB())
	o.ops += len(outs)
	o.window += last.Sub(start)
	for _, r := range outs {
		o.attempted++
		if r.failed != "" {
			o.failed++
			continue
		}
		lat := r.got.Sub(r.due)
		o.latencies = append(o.latencies, lat)
		if lat <= limit {
			o.ok++
		}
	}
	return outs
}

func runServeMix(cfg runConfig) (*outcome, error) {
	o := &outcome{}
	n := int(serveRate * cfg.seconds.Seconds())
	if cfg.trace {
		n /= 2 // the traced run replays the schedule twice: untraced, then traced
	}
	var reqs []serveReq
	var d *daemon
	for i := 0; i < 3; i++ {
		if d != nil {
			d.stop()
		}
		c0 := cpuTime()
		var err error
		reqs, err = buildServeMix(cfg.seed, n)
		if err != nil {
			return nil, err
		}
		d, err = startDaemon(nil)
		if err != nil {
			return nil, err
		}
		o.setups = append(o.setups, cpuTime()-c0)
	}

	resetPeakRSS()
	if !cfg.trace {
		outs := serveSegment(o, d, reqs, false, cfg.limit)
		d.stop()
		checkServe(o, reqs, outs)
		o.notes = append(o.notes, serveNotes(outs, cfg.limit)...)
		return o, nil
	}

	// Traced run: the untraced daemon above first, then a fresh daemon
	// with the traced submit handler, on the same schedule.
	base := serveSegment(o, d, reqs, false, cfg.limit)
	d.stop()
	checkServe(o, reqs, base)
	ops := make([]*serverTimes, len(reqs))
	for j := range ops {
		ops[j] = &serverTimes{}
	}
	td, err := startDaemon(tracedSubmit(ops))
	if err != nil {
		return nil, err
	}
	tracedStart := len(o.latencies)
	outs := serveSegment(o, td, reqs, true, cfg.limit)
	td.stop()
	checkServe(o, reqs, outs)
	tracedLat := o.latencies[tracedStart:]

	t := newTracer()
	var solvedReqs, allReqs int
	var late []time.Duration
	for i, r := range outs {
		if r.failed != "" {
			continue
		}
		allReqs++
		late = append(late, r.sent.Sub(r.due))
		st := ops[i]
		st.mu.Lock()
		watched := st.watched
		st.mu.Unlock()
		if watched != nil {
			<-watched
		}
		st.mu.Lock()
		root := t.record("request", i, -1, r.due, r.got)
		t.record("loadgen.late", i, root, r.due, r.sent)
		h := t.record("http.transport", i, root, r.sent, r.resp)
		t.record("serve.parse", i, h, st.parse0, st.parse1)
		t.record("serve.submit", i, h, st.parse1, st.submit1)
		if !st.done.IsZero() {
			solvedReqs++
			// The request's own timeline after the POST reply: waiting in
			// the queue, solving, then the generator's polling delay.
			// The watcher may observe a transition after the generator
			// already holds the verdict; clip to the request's timeline.
			done := earlierOf(laterOf(st.done, r.resp), r.got)
			run := earlierOf(laterOf(st.running, r.resp), done)
			t.record("serve.queue_wait", i, root, r.resp, run)
			t.record("serve.solve", i, root, run, done)
			t.record("loadgen.poll", i, root, done, r.got)
		}
		st.mu.Unlock()
	}
	self := t.selfTimes()
	perReq := func(name string, n int) float64 {
		if n == 0 {
			return 0
		}
		return ms(self[name]) / float64(n)
	}
	var attributed time.Duration
	for name, d := range self {
		if name != "request" {
			attributed += d
		}
	}
	hits, dedupes, refused, failed, solves, hotLat, coldLat := serveCounts(outs)
	o.layers = map[string]float64{
		"serve.parse_ms":        perReq("serve.parse", allReqs),
		"serve.submit_ms":       perReq("serve.submit", allReqs),
		"http.transport_ms":     perReq("http.transport", allReqs),
		"serve.queue_wait_ms":   perReq("serve.queue_wait", solvedReqs),
		"serve.solve_ms":        perReq("serve.solve", solvedReqs),
		"serve.hot_p50_ms":      ms(median(hotLat)),
		"serve.cold_p50_ms":     ms(median(coldLat)),
		"serve.cache_hit_share": float64(hits) / float64(len(outs)),
		"serve.solves":          float64(solves),
		"serve.dedupes":         float64(dedupes),
		"serve.failed":          float64(failed),
		"serve.refused":         float64(refused),
		"loadgen.late_p99_ms":   ms(percentile(late, 0.99)),
		"trace.coverage":        attributed.Seconds() / t.rootTotal("request").Seconds(),
		"trace.gap_share":       mean(tracedLat).Seconds()/mean(o.latencies[:tracedStart]).Seconds() - 1,
	}
	o.counters = map[string]float64{"serve.solves": float64(solves)}
	o.notes = append(o.notes, serveNotes(outs, cfg.limit)...)
	o.notes = append(o.notes,
		fmt.Sprintf("traced schedule: %d requests; mean latency untraced %.3f ms, traced %.3f ms (trace.gap_share: tracing overhead of the re-driven submit handler and the job watchers)",
			len(outs), ms(mean(o.latencies[:tracedStart])), ms(mean(tracedLat))),
		fmt.Sprintf("trace.coverage: layer self times cover %.2f%% of the traced request time", 100*o.layers["trace.coverage"]))
	return o, nil
}

func earlierOf(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

func laterOf(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// serveCounts classifies outcomes: cache hits (answered on the POST),
// deduplicated submissions, refusals, failures, distinct keys solved, and
// the latencies of the cache-hit and solve classes.
func serveCounts(outs []reqOutcome) (hits, dedupes, refused, failed, solves int, hot, cold []time.Duration) {
	solved := map[string]bool{}
	for _, r := range outs {
		switch {
		case r.refused:
			refused++
			failed++
		case r.failed != "":
			failed++
		case r.hit:
			hits++
			hot = append(hot, r.got.Sub(r.due))
		case r.dedup:
			dedupes++
		case r.solved:
			solved[r.key] = true
			cold = append(cold, r.got.Sub(r.due))
		}
	}
	return hits, dedupes, refused, failed, len(solved), hot, cold
}

// serveNotes reports the issue's per-class serve metrics with sample counts.
func serveNotes(outs []reqOutcome, limit time.Duration) []string {
	hits, dedupes, refused, failed, solves, hot, cold := serveCounts(outs)
	var all []time.Duration
	found := map[string]bool{}
	for _, r := range outs {
		if r.failed == "" {
			all = append(all, r.got.Sub(r.due))
			if bytes.Contains(r.verdict, []byte(`"found":true`)) {
				found[r.key] = true
			}
		}
	}
	return []string{
		fmt.Sprintf("open loop at %d requests/s, %d requests, %d workers, latency limit %v", serveRate, len(outs), serveWorkers, limit),
		fmt.Sprintf("serve_p50_ms %.3f ms n=%d; serve_p99_ms %.3f ms n=%d", ms(median(all)), len(all), ms(percentile(all, 0.99)), len(all)),
		fmt.Sprintf("serve_hot_p50_ms %.3f ms n=%d (cache hits); serve_cold_p50_ms %.3f ms n=%d (solves)", ms(median(hot)), len(hot), ms(median(cold)), len(cold)),
		fmt.Sprintf("cache hits %d/%d submissions, distinct keys solved %d, dedupes %d, refused %d, failed %d; %d keys have a Found rung", hits, len(outs), solves, dedupes, refused, failed, len(found)),
	}
}
