package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"gridattack/internal/ems"
	"gridattack/internal/fleet"
	"gridattack/internal/grid"
	"gridattack/internal/measure"
	"gridattack/internal/opf"
	"gridattack/internal/scada"
)

// soak118 runs the supervised EMS loop on synth118 over a real-TCP fleet of
// 118 RTUs: unfaulted, journaled, back-to-back cycles. The seed scales every
// load by one factor in [0.98, 1.02], which moves the operating point (and
// so every dispatch) without changing the work a cycle does.
const (
	soakCase    = "synth118"
	soakTimeout = 2 * time.Second // per RTU poll, as in the fleet's own soak tests
)

// soakRig is one fleet plus its supervisor.
type soakRig struct {
	g     *grid.Grid
	plan  *measure.Plan
	op    []float64 // operating-point dispatch the telemetry was produced at
	fleet *fleet.TCPFleet
	sup   *fleet.Supervisor
	dir   string
	ticks []time.Time     // one per completed cycle, stamped by the supervisor's hook
	cpus  []time.Duration // process CPU time at each tick
}

func (r *soakRig) close() {
	if r.sup != nil {
		r.sup.Close()
	}
	if r.fleet != nil {
		r.fleet.Close()
	}
	os.RemoveAll(r.dir)
}

// newSoakRig is the soak's set-up: case generation, the operating point,
// 118 RTU listeners, and a supervisor with a fresh journal.
func newSoakRig(seed int64) (*soakRig, error) {
	c, err := generateCase(soakCase)
	if err != nil {
		return nil, err
	}
	scale := 0.98 + 0.04*rand.New(rand.NewSource(seed)).Float64()
	for i := range c.Grid.Loads {
		c.Grid.Loads[i].P *= scale
	}
	r := &soakRig{g: c.Grid, plan: c.Plan}
	sol, err := opf.Solve(r.g, r.g.TrueTopology(), nil)
	if err != nil {
		return nil, fmt.Errorf("operating point: %w", err)
	}
	r.op = sol.Dispatch
	pf, err := r.g.SolvePowerFlow(r.g.TrueTopology(), r.op)
	if err != nil {
		return nil, err
	}
	z, err := r.plan.FromPowerFlow(r.g, pf, 0, nil)
	if err != nil {
		return nil, err
	}
	if r.dir, err = scratchDir("soak-"); err != nil {
		return nil, err
	}
	if r.fleet, err = fleet.NewTCPFleet(r.g, r.plan, z); err != nil {
		r.close()
		return nil, err
	}
	r.sup, err = fleet.New(fleet.Config{
		CaseName:          soakCase,
		Grid:              r.g,
		Plan:              r.plan,
		Fleet:             r.fleet,
		OperatingDispatch: r.op,
		ResidualThreshold: 1e-6,
		Timeout:           soakTimeout,
		JournalPath:       filepath.Join(r.dir, "soak.journal"),
		TestHook: func(int) bool {
			r.ticks = append(r.ticks, time.Now())
			r.cpus = append(r.cpus, cpuTime())
			return true
		},
	})
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// runSupervisor runs the supervisor for d and returns its cycle latencies:
// the time between successive cycle completions, the first measured from
// the start of the run.
func (r *soakRig) runSupervisor(o *outcome, d time.Duration) ([]time.Duration, *fleet.SoakReport, error) {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	r.ticks, r.cpus = r.ticks[:0], r.cpus[:0]
	start, c0 := time.Now(), cpuTime()
	rep, err := r.sup.Run(ctx, math.MaxInt32)
	o.cpu += cpuTime() - c0
	o.rssMB = peakRSSMB()
	if err != nil {
		return nil, nil, err
	}
	o.ops += len(r.ticks)
	lats := make([]time.Duration, len(r.ticks))
	prev, prevCPU := start, c0
	for i, t := range r.ticks {
		lats[i] = t.Sub(prev)
		o.opCPU = append(o.opCPU, r.cpus[i]-prevCPU)
		prev, prevCPU = t, r.cpus[i]
	}
	o.window += prev.Sub(start)
	return lats, rep, nil
}

// checkSupervisor requires every supervisor cycle to have been clean and
// the final set-point and dispatch to equal the reference bit for bit.
func (r *soakRig) checkSupervisor(o *outcome, rep *fleet.SoakReport) error {
	for i, outcome := range rep.Outcomes {
		o.attempted++
		if outcome != fleet.OutcomeClean {
			o.failed++
			o.problem("cycle %d ended %q, want clean", i+1, outcome)
		}
	}
	setpoint, dispatch, err := r.reference(r.sup.Cycle())
	if err != nil {
		return fmt.Errorf("reference dispatch: %w", err)
	}
	if !bitsEqual(r.sup.Setpoint(), setpoint) {
		o.problem("final set-point differs from the reference EMS cycle")
	}
	if !bitsEqual(r.sup.Dispatch(), dispatch) {
		o.problem("final dispatch after %d cycles differs from the reference AGC trajectory", r.sup.Cycle())
	}
	return nil
}

// reference recomputes the expected machine state from the layers
// directly: one collection, one EMS cycle without the memo, then the AGC
// stepped once per supervisor cycle from the operating point.
func (r *soakRig) reference(cycles int) (setpoint, dispatch []float64, err error) {
	center := newCenter(r)
	defer center.Close()
	col, err := center.CollectPartial()
	if err != nil {
		return nil, nil, err
	}
	pipe := ems.NewPipeline(r.g, r.plan)
	pipe.ResidualThreshold = 1e-6
	res, err := pipe.RunCycleResilient(col.Z, col.Report, r.op, center.LastGood())
	if err != nil {
		return nil, nil, err
	}
	setpoint = res.Dispatch.Dispatch
	agc := ems.NewAGC(r.g)
	dispatch = append([]float64(nil), r.op...)
	for i := 0; i < cycles; i++ {
		if dispatch, err = agc.Step(dispatch, setpoint); err != nil {
			return nil, nil, err
		}
	}
	return setpoint, dispatch, nil
}

// newCenter builds a collection center wired like the supervisor's.
func newCenter(r *soakRig) *scada.Center {
	c := scada.NewCenter(r.g, r.plan)
	c.Timeout = soakTimeout
	c.Retries = 2
	c.Persistent = true
	r.fleet.Register(c)
	return c
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func runSoak118(cfg runConfig) (*outcome, error) {
	o := &outcome{}
	var rig *soakRig
	defer func() {
		if rig != nil {
			rig.close()
		}
	}()
	if err := checkGenerated(soakCase); err != nil {
		return nil, err
	}
	for i := 0; i < 3; i++ {
		if rig != nil {
			rig.close()
		}
		c0 := cpuTime()
		var err error
		if rig, err = newSoakRig(cfg.seed); err != nil {
			return nil, err
		}
		o.setups = append(o.setups, cpuTime()-c0)
	}

	resetPeakRSS()
	if !cfg.trace {
		lats, rep, err := rig.runSupervisor(o, cfg.seconds)
		if err != nil {
			return nil, err
		}
		if err := rig.checkSupervisor(o, rep); err != nil {
			return nil, err
		}
		for _, l := range lats {
			if l <= cfg.limit {
				o.ok++
			}
		}
		o.latencies = lats
		o.notes = append(o.notes, fmt.Sprintf("supervisor: %d cycles, cycle_p50_ms %.3f n=%d, cycle_p99_ms %.3f n=%d",
			rig.sup.Cycle(), ms(median(lats)), len(lats), ms(percentile(lats, 0.99)), len(lats)))
		return o, nil
	}

	// Traced run: supervisor cycles, untraced, alternate with cycles
	// re-driven from the cycle body's layer calls — telemetry collection,
	// the EMS cycle (topology processing, WLS SE with bad-data detection,
	// OPF through the memo), AGC — with a span around each. Alternating
	// keeps both under the same host load, so their difference is the
	// fleet's own work.
	center := newCenter(rig)
	defer center.Close()
	pipe := ems.NewPipeline(rig.g, rig.plan)
	pipe.ResidualThreshold = 1e-6
	pipe.Memo = ems.NewOPFMemo(8)
	agc := ems.NewAGC(rig.g)
	cur := append([]float64(nil), rig.op...)
	tr := newTracer()
	var (
		attempts, cycles int
		supLat           []time.Duration
		rep              *fleet.SoakReport
		redrive          time.Duration
	)
	start := time.Now()
	for time.Since(start) < cfg.seconds {
		rig.ticks = rig.ticks[:0]
		t0 := time.Now()
		var err error
		if rep, err = rig.sup.Run(context.Background(), 1); err != nil {
			return nil, err
		}
		supLat = append(supLat, rig.ticks[len(rig.ticks)-1].Sub(t0))

		t0 = time.Now()
		op := cycles
		cycles++
		o.attempted++
		root := tr.begin("cycle", op, -1)
		h := tr.begin("scada.collect", op, root)
		col, err := center.CollectPartial()
		tr.end(h)
		if err != nil {
			return nil, fmt.Errorf("traced collect: %w", err)
		}
		attempts += col.Attempts
		h = tr.begin("ems.cycle", op, root)
		res, err := pipe.RunCycleResilient(col.Z, col.Report, rig.op, center.LastGood())
		tr.end(h)
		if err != nil {
			return nil, fmt.Errorf("traced EMS cycle: %w", err)
		}
		h = tr.begin("ems.agc", op, root)
		cur, err = agc.Step(cur, res.Dispatch.Dispatch)
		tr.end(h)
		if err != nil {
			return nil, fmt.Errorf("traced AGC: %w", err)
		}
		tr.end(root)
		redrive += time.Since(t0)
		if col.Degraded() || !res.Redispatched || res.Degraded || res.Stale {
			o.failed++
			o.problem("traced cycle %d was not clean", cycles)
		}
	}
	if err := rig.checkSupervisor(o, rep); err != nil {
		return nil, err
	}
	self := tr.selfTimes()
	n := float64(cycles)
	children := self["scada.collect"] + self["ems.cycle"] + self["ems.agc"]
	hits, misses := pipe.Memo.Stats()
	o.layers = map[string]float64{
		"scada.collect_ms":   ms(self["scada.collect"]) / n,
		"scada.attempts":     float64(attempts) / n,
		"ems.cycle_ms":       ms(self["ems.cycle"]) / n,
		"ems.agc_ms":         ms(self["ems.agc"]) / n,
		"ems.memo_hit_share": share(int64(hits), int64(hits+misses)),
		"fleet.self_ms":      ms(mean(supLat)) - ms(children)/n,
		"trace.coverage":     children.Seconds() / redrive.Seconds(),
		"trace.gap_share":    (redrive.Seconds()/n)/mean(supLat).Seconds() - 1,
	}
	o.counters = map[string]float64{"scada.attempts": o.layers["scada.attempts"]}
	o.notes = append(o.notes,
		fmt.Sprintf("%d supervisor cycles (mean %.3f ms) alternated with %d traced re-driven cycles (mean %.3f ms); trace.gap_share is minus the fleet's own work the re-drive leaves out (fleet.self_ms), plus tracing overhead",
			len(supLat), ms(mean(supLat)), cycles, ms(redrive)/n),
		fmt.Sprintf("trace.coverage: layer self times cover %.2f%% of the traced wall time", 100*o.layers["trace.coverage"]))
	return o, nil
}
