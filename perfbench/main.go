// Command perfbench is the gridattack benchmark: four seeded workloads that
// each load one part of the system, measured end to end (untraced runs) and
// split across layers (traced runs). Run it through run.py from the
// repository root:
//
//	python3 perfbench/run.py --workload fig4a_lp118 --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Every line before it is a
// human-readable report: the environment fingerprint, every metric with its
// unit and sample count, and the correctness checks. METRICS.md maps each
// layer metric to the end-to-end metric and workload it should move.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workloadSpec is one benchmark workload.
type workloadSpec struct {
	// limit is the latency limit an operation must meet to count toward
	// goodput_per_s.
	limit time.Duration
	run   func(cfg runConfig) (*outcome, error)
}

var workloads = map[string]workloadSpec{
	"fig4a_lp118":    {limit: 30 * time.Second, run: runFig4a},
	"fig4b_states30": {limit: 30 * time.Second, run: runFig4b},
	"serve_mix":      {limit: 1 * time.Second, run: runServeMix},
	"soak118":        {limit: 100 * time.Millisecond, run: runSoak118},
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	limit   time.Duration // the workload's latency limit
}

// outcome is what a workload reports back.
type outcome struct {
	setups    []time.Duration // CPU time of each set-up repetition
	latencies []time.Duration // per operation: wall time to verdict
	window    time.Duration   // measured wall time of the timed operations
	cpu       time.Duration   // process CPU time over the timed operations
	ops       int             // operations in the timed window
	opCPU     []time.Duration // per-operation CPU time (soak118's cycles)
	rssMB     float64         // peak RSS, read when the timed operations end
	attempted int
	failed    int      // operations that errored, were refused or were canceled
	ok        int      // operations answered correctly within the latency limit
	problems  []string // correctness failures; any makes the run incorrect

	layers   map[string]float64 // per-layer metrics (traced runs)
	counters map[string]float64 // exact effort counters (traced runs)
	notes    []string           // extra report lines
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// metricDef names one reported metric.
type metricDef struct{ name, unit string }

// endToEnd are reported by untraced runs of every workload. Times are
// process CPU time (user + system, from getrusage), which leaves out the
// time a shared host steals from the machine: on the hosts this benchmark
// was built on, steal moved wall-clock results by 2-30% from one minute to
// the next, while CPU time stayed within a few percent. Wall-clock latency
// percentiles and goodput are printed in the report lines above the result.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"cpu_ms_per_op", "ms"},
}

// perLayer are reported by traced runs of every workload; a layer a workload
// does not cross reads 0.
var perLayer = []metricDef{
	// Fig. 2 loop (fig4a_lp118, fig4b_states30); times are per query.
	{"opf.baseline_ms", "ms"},
	{"grid.powerflow_ms", "ms"},
	{"attack.encode_ms", "ms"},
	{"smt.sat_vars", "count"},
	{"smt.clauses", "count"},
	{"smt.search_ms", "ms"},
	{"smt.decisions", "count"},
	{"smt.conflicts", "count"},
	{"smt.propagations", "count"},
	{"smt.theory_props", "count"},
	{"smt.pivots", "count"},
	{"smt.rat64_fast_ops", "count"},
	{"smt.rat64_big_ops", "count"},
	{"smt.big_share", "share"},
	{"opf.verify_ms", "ms"},
	{"opf.verify_solves", "count"},
	{"lp.pivots", "count"},
	{"opf.warm_hit_share", "share"},
	{"attack.block_ms", "ms"},
	{"core.iterations", "count"},
	{"core.self_ms", "ms"},
	// Analysis service (serve_mix); times are per request crossing the layer.
	{"serve.parse_ms", "ms"},
	{"serve.submit_ms", "ms"},
	{"http.transport_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.solve_ms", "ms"},
	{"serve.hot_p50_ms", "ms"},
	{"serve.cold_p50_ms", "ms"},
	{"serve.cache_hit_share", "share"},
	{"serve.solves", "count"},
	{"serve.dedupes", "count"},
	{"serve.failed", "count"},
	{"serve.refused", "count"},
	{"loadgen.late_p99_ms", "ms"},
	// EMS loop (soak118); times are per cycle.
	{"scada.collect_ms", "ms"},
	{"scada.attempts", "count"},
	{"ems.cycle_ms", "ms"},
	{"ems.memo_hit_share", "share"},
	{"ems.agc_ms", "ms"},
	{"fleet.self_ms", "ms"},
	// Go runtime (every workload); per operation.
	{"go.alloc_mb", "MB"},
	{"go.gc_pause_ms", "ms"},
	// The trace itself.
	{"trace.coverage", "share"},
	{"trace.gap_share", "share"},
	{"bench.counter_drift", "count"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measurement length in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	regen := flag.String("regen-golden", "", "recompute the sweep golden table into this file and exit")
	flag.Parse()

	if *regen != "" {
		if err := regenGolden(*regen); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	spec, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {%s} --seed N --seconds S --trace {0|1}\n", strings.Join(names, "|"))
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, limit: spec.limit}

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	fmt.Fprintf(out, "# perfbench workload=%s seed=%d seconds=%d trace=%d\n", *workload, *seed, *seconds, *trace)
	fmt.Fprintf(out, "# env %s\n", fingerprint())

	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	st0 := hostTicks()
	o, err := spec.run(cfg)
	st1 := hostTicks()
	if err != nil {
		out.Flush()
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	if o.attempted < 1 {
		out.Flush()
		fmt.Fprintln(os.Stderr, "perfbench: no operation was attempted")
		os.Exit(1)
	}

	res := result{
		Correct:   len(o.problems) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue),
	}
	for _, n := range o.notes {
		fmt.Fprintf(out, "# %s\n", n)
	}
	for _, p := range o.problems {
		fmt.Fprintf(out, "# INCORRECT: %s\n", p)
	}
	fmt.Fprintf(out, "# operations attempted=%d failed=%d within-limit=%d (limit %v)\n", o.attempted, o.failed, o.ok, spec.limit)
	if total := st1.total - st0.total; total > 0 {
		fmt.Fprintf(out, "# host steal during the run: %.1f%% of all CPU ticks\n", 100*float64(st1.steal-st0.steal)/float64(total))
	}

	if !cfg.trace {
		fmt.Fprintf(out, "# wall-clock: p50_ms %.6f p99_ms %.6f n=%d; goodput_per_s %.6f (answers correct within %v per second, n=%d)\n",
			ms(percentile(o.latencies, 0.50)), ms(percentile(o.latencies, 0.99)), len(o.latencies),
			float64(o.ok)/o.window.Seconds(), spec.limit, o.attempted)
		vals := map[string]float64{
			"setup_s":       median(o.setups).Seconds(),
			"peak_rss_mb":   o.rssMB,
			"cpu_ms_per_op": ms(o.cpu) / float64(max(1, o.ops)),
		}
		if len(o.opCPU) > 0 {
			// Uniform operations measured one at a time: the median leaves
			// out the first cycle's cold OPF and GC bursts.
			vals["cpu_ms_per_op"] = ms(median(o.opCPU))
		}
		samples := map[string]int{"setup_s": len(o.setups), "peak_rss_mb": 1, "cpu_ms_per_op": o.ops}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{Value: vals[m.name], Unit: m.unit}
			fmt.Fprintf(out, "# %-22s %14.6f %-6s n=%d\n", m.name, vals[m.name], m.unit, samples[m.name])
		}
	} else {
		nops := float64(max(1, o.attempted))
		o.layers["go.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20) / nops
		o.layers["go.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6 / nops
		o.layers["bench.counter_drift"] = float64(checkCounters(out, *workload, cfg.seed, o.counters))
		for _, m := range perLayer {
			v := o.layers[m.name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
			fmt.Fprintf(out, "# %-22s %18.6f %s\n", m.name, v, m.unit)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(out, "%s\n", line)
}

// fingerprint describes the machine and the sources measured.
func fingerprint() string {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(l, "model name") {
				if i := strings.Index(l, ":"); i >= 0 {
					cpu = strings.TrimSpace(l[i+1:])
				}
				break
			}
		}
	}
	src := os.Getenv("PERFBENCH_SOURCE")
	if src == "" {
		src = "unknown"
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s source=%s", cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), src)
}

// ticks are the machine-wide CPU tick counters of /proc/stat.
type ticks struct{ total, steal int64 }

// hostTicks reads how much CPU time the host has stolen from this machine,
// for the report: stolen time inflates wall-clock results.
func hostTicks() ticks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return ticks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	var t ticks
	for i := 1; i < len(f) && i <= 8; i++ { // user .. steal; guest time is already in user
		v, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			return ticks{}
		}
		t.total += v
		if i == 8 {
			t.steal = v
		}
	}
	return t
}

// resetPeakRSS starts the peak-RSS measurement over after set-up: the
// repeated set-ups are the benchmark's, not the workload's, so their garbage
// is returned to the system and the kernel's high-water mark is reset to
// the current resident set.
func resetPeakRSS() {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: peak RSS not reset:", err)
	}
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(l, "VmHWM:") {
			f := strings.Fields(l)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}

// checkCounters records this run's exact effort counters next to the build
// and compares them with the record of an earlier run of the same sources,
// workload and seed. It returns how many counters differ: the solver is
// deterministic, so any difference is nondeterminism and is flagged.
func checkCounters(out *bufio.Writer, workload string, seed int64, counters map[string]float64) int {
	names := make([]string, 0, len(counters))
	for n := range counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "# counter %s = %.0f\n", n, counters[n])
	}
	build, src := os.Getenv("PERFBENCH_BUILD"), os.Getenv("PERFBENCH_SOURCE")
	if build == "" || src == "" {
		return 0
	}
	dir := filepath.Join(build, "counters")
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-%d.json", src, workload, seed))
	drift := 0
	if data, err := os.ReadFile(path); err == nil {
		var prev map[string]float64
		if json.Unmarshal(data, &prev) == nil {
			for _, n := range names {
				if p, ok := prev[n]; ok && p != counters[n] {
					drift++
					fmt.Fprintf(out, "# NONDETERMINISM: counter %s was %.0f in an earlier run of these sources, now %.0f\n", n, p, counters[n])
				}
			}
		}
		return drift
	}
	if data, err := json.Marshal(counters); err == nil && os.MkdirAll(dir, 0o755) == nil {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			fmt.Fprintf(out, "# counter record not written: %v\n", err)
		}
	}
	return drift
}

// cpuTime is the process's CPU time so far: user plus system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the nearest-rank q-quantile of ds (0 when empty).
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(ds []time.Duration) time.Duration { return percentile(ds, 0.5) }

func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t / time.Duration(len(ds))
}
