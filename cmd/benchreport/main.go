// Command benchreport regenerates the paper's evaluation artifacts (Sec. IV)
// and prints them as tables: Fig. 4(a)/(b)/(c) impact-verification times,
// Fig. 5(a) OPF-model times, Fig. 5(b)/(c) attack-model times, and Table IV
// memory requirements. The extra "par" artifact measures the speculative
// find–verify pipeline (Parallelism 2) against the sequential loop.
//
// Usage:
//
//	benchreport -fig 4a            # one artifact
//	benchreport -all               # everything (minutes on large systems)
//	benchreport -fig 4b -cases paper5,ieee14,synth30
//	benchreport -fig par           # speculative pipeline vs. sequential loop
//	benchreport -fig serve         # service throughput under the loadgen mix
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"

	"gridattack/internal/core"
	"gridattack/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchreport", flag.ContinueOnError)
	var (
		fig          = fs.String("fig", "", "artifact: 4a, 4b, 4c, 5a, 5b, 5c, t4, par, cert, arith, sparse, expr, soak, or serve")
		all          = fs.Bool("all", false, "run every artifact")
		caseList     = fs.String("cases", "", "comma-separated case subset (default: all five systems)")
		maxConflicts = fs.Int64("max-conflicts", 2_000_000, "SMT conflict budget per query (0 = unlimited)")
		soakCycles   = fs.Int("soak-cycles", 1000, "supervised cycles per fault rate for the soak artifact")
		serveQueries = fs.Int("serve-queries", 1000, "loadgen queries against the in-process service for the serve artifact")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var names []string
	if *caseList != "" {
		names = strings.Split(*caseList, ",")
	}
	artifacts := []string{*fig}
	if *all {
		artifacts = []string{"4a", "4b", "4c", "5a", "5b", "5c", "t4", "par", "cert", "arith", "sparse", "expr", "soak", "serve"}
	}
	for _, a := range artifacts {
		if a == "" {
			return fmt.Errorf("pass -fig or -all")
		}
		if err := runOne(stdout, a, names, *maxConflicts, *soakCycles, *serveQueries); err != nil {
			return err
		}
	}
	return nil
}

func runOne(w io.Writer, artifact string, names []string, maxConflicts int64, soakCycles, serveQueries int) error {
	switch artifact {
	case "4a", "4b", "4c":
		cfg := experiments.SweepConfig{
			Cases:        names,
			States:       artifact == "4b",
			Unsat:        artifact == "4c",
			MaxConflicts: maxConflicts,
		}
		rows, err := experiments.RunImpactSweep(cfg)
		if err != nil {
			return err
		}
		title := map[string]string{
			"4a": "Fig. 4(a): impact verification time, topology attacks without infecting states",
			"4b": "Fig. 4(b): impact verification time, topology attacks including infecting states",
			"4c": "Fig. 4(c): impact verification time, unsatisfiable cases",
		}[artifact]
		fmt.Fprintln(w, title)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "case\tbuses\tscenario\tresult\titers\ttime\tattack-search\topf-verify")
		for _, r := range rows {
			result := "iter-capped"
			switch {
			case r.Found:
				result = "sat"
			case r.Exhaust:
				result = "unsat"
			case r.Canceled:
				result = "timeout"
			}
			fmt.Fprintf(tw, "%s\t%d\t%d\t%s\t%d\t%v\t%v\t%v\n",
				r.Case, r.Buses, r.Scenario, result, r.Iters,
				r.Elapsed.Round(1e5), r.Search.Round(1e5), r.Verify.Round(1e5))
		}
		tw.Flush()
		fmt.Fprintln(w)

	case "5a":
		rows, err := experiments.RunOPFModel(names, nil, maxConflicts)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Fig. 5(a): OPF model execution time vs. cost-constraint tightness")
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "case\tbuses\tthreshold/optimal\tresult\ttime")
		for _, r := range rows {
			result := "unsat"
			if r.Feasible {
				result = "sat"
			}
			fmt.Fprintf(tw, "%s\t%d\t%.3f\t%s\t%v\n", r.Case, r.Buses, r.Tightness, result, r.Elapsed.Round(1e5))
		}
		tw.Flush()
		fmt.Fprintln(w)

	case "5b", "5c":
		unsat := artifact == "5c"
		rows, err := experiments.RunAttackModel(names, 0, true, unsat, maxConflicts)
		if err != nil {
			return err
		}
		title := "Fig. 5(b): topology attack model execution time"
		if unsat {
			title = "Fig. 5(c): attack model execution time, unsatisfiable cases"
		}
		fmt.Fprintln(w, title)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "case\tbuses\tscenario\tresult\ttime")
		for _, r := range rows {
			result := "unsat"
			if r.Found {
				result = "sat"
			}
			if r.Canceled {
				result = "timeout"
			}
			fmt.Fprintf(tw, "%s\t%d\t%d\t%s\t%v\n", r.Case, r.Buses, r.Scenario, result, r.Elapsed.Round(1e5))
		}
		tw.Flush()
		fmt.Fprintln(w)

	case "t4":
		rows, err := experiments.RunMemory(names, maxConflicts)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Table IV: memory (MB) required by the solver")
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "buses\ttopology attack model (MB)\tOPF model (MB)")
		for _, r := range rows {
			fmt.Fprintf(tw, "%d\t%.2f\t%.2f\n", r.Buses, r.AttackModel, r.OPFModel)
		}
		tw.Flush()
		fmt.Fprintln(w)

	case "par":
		rows, err := experiments.RunParallelScaling(names, nil, maxConflicts)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Speculative pipeline: impact-analysis time at Parallelism 1 and 2 (unsat-heavy workload)")
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "case\tbuses\tworkers\tresult\titers\ttime\tspeedup")
		baseline := make(map[string]float64)
		for _, r := range rows {
			if r.Workers == 1 {
				baseline[r.Case] = float64(r.Elapsed)
			}
			result := "iter-capped"
			switch {
			case r.Found:
				result = "sat"
			case r.Exhaust:
				result = "unsat"
			}
			speedup := "-"
			if b, ok := baseline[r.Case]; ok && r.Elapsed > 0 {
				speedup = fmt.Sprintf("%.2fx", b/float64(r.Elapsed))
			}
			fmt.Fprintf(tw, "%s\t%d\t%d\t%s\t%d\t%v\t%s\n",
				r.Case, r.Buses, r.Workers, result, r.Iters, r.Elapsed.Round(1e5), speedup)
		}
		tw.Flush()
		fmt.Fprintln(w)

	case "cert":
		rows, err := experiments.RunCertificationOverhead(names, maxConflicts)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Certification overhead: find-verify loop with checker-validated verdicts")
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "case\tbuses\titers\tplain\tcertified\toverhead")
		for _, r := range rows {
			fmt.Fprintf(tw, "%s\t%d\t%d\t%v\t%v\t%.2fx\n",
				r.Case, r.Buses, r.Iters, r.Plain.Round(1e5), r.Certified.Round(1e5), r.Overhead())
		}
		tw.Flush()
		fmt.Fprintln(w)

	case "arith":
		// The Fig. 4(a) sweep with the SMT verification backend, so both the
		// attack search and the OPF verification exercise the theory solver's
		// arithmetic kernel; the columns report its effort counters.
		rows, err := experiments.RunImpactSweep(experiments.SweepConfig{
			Cases:        names,
			MaxConflicts: maxConflicts,
			Verify:       core.VerifySMT,
		})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Arithmetic kernel: solver effort and hybrid-rational fast-path share (SMT-verified Fig. 4(a) sweep)")
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "case\tbuses\tscenario\ttime\tpivots\ttheory-props\trat64-fast\tbigrat-fallback\tfast-path\trow-pool-reuse")
		for _, r := range rows {
			fmt.Fprintf(tw, "%s\t%d\t%d\t%v\t%d\t%d\t%d\t%d\t%.2f%%\t%d\n",
				r.Case, r.Buses, r.Scenario, r.Elapsed.Round(1e5),
				r.Stats.Pivots, r.Stats.TheoryProps,
				r.Stats.Rat64FastOps, r.Stats.Rat64BigOps,
				r.Stats.FastPathPercent(), r.Stats.RowPoolReuse)
		}
		tw.Flush()
		fmt.Fprintln(w)

	case "sparse":
		// Three tables behind BENCH_sparse.json: the sparse numeric
		// substrate (factorization fill/time vs. the dense inverse it
		// replaced), the end-to-end economic exclusion screen, and the LP
		// warm-start re-dispatch ladder.
		sub, err := experiments.RunSparseSubstrate(names)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Sparse substrate: min-degree LU vs. dense inverse (per true-topology B matrix)")
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "case\tbuses\tlines\tB-nnz\tLU-nnz\tfill\tfactorize\tsolve\tptdf-sparse\tptdf-dense-inv\tspeedup")
		for _, r := range sub {
			speedup := float64(r.PTDFDense) / float64(r.PTDFSparse)
			fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%.2f\t%v\t%v\t%v\t%v\t%.1fx\n",
				r.Case, r.Buses, r.Lines, r.BNnz, r.FactorNnz, r.Fill,
				r.Factorize.Round(1e3), r.Solve.Round(1e3),
				r.PTDFSparse.Round(1e4), r.PTDFDense.Round(1e4), speedup)
		}
		tw.Flush()
		fmt.Fprintln(w)

		scr, err := experiments.RunExclusionScreen(names)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Economic exclusion screen: every single-line candidate classified against the +1.5% cost target")
		tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "case\tbuses\tcandidates\tsafe\tislanding\tflagged\tbase-opf\tfactors\tclassify\ttotal")
		for _, r := range scr {
			fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%v\t%v\t%v\t%v\n",
				r.Case, r.Buses, r.Candidates, r.Safe, r.Islanding, r.Flagged,
				r.BaseSolve.Round(1e5), r.Factors.Round(1e5),
				r.Classify.Round(1e5), r.Total.Round(1e5))
		}
		tw.Flush()
		fmt.Fprintln(w)

		lad, err := experiments.RunWarmLadder(names)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Warm-start re-dispatch ladder: one topology, 8 load drifts (warm basis reuse vs. cold two-phase)")
		tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "case\tbuses\tsteps\twarm\tcold\twarm-hits\tpivots-warm\tpivots-cold\tspeedup")
		for _, r := range lad {
			speedup := float64(r.Cold) / float64(r.Warm)
			fmt.Fprintf(tw, "%s\t%d\t%d\t%v\t%v\t%d/%d\t%d\t%d\t%.1fx\n",
				r.Case, r.Buses, r.Steps, r.Warm.Round(1e5), r.Cold.Round(1e5),
				r.WarmHits, r.Steps, r.WarmPivots, r.ColdPivots, speedup)
		}
		tw.Flush()
		fmt.Fprintln(w)

	case "expr":
		// Three tables behind BENCH_expr.json: the incremental Fig. 2
		// threshold ladder (one shared candidate search; under SMT
		// verification additionally assumption-based per-rung cost caps)
		// against the naive sweep of one cold Run per rung under both
		// verification modes (verdicts asserted identical on every rung no
		// per-query budget interrupts), and the first incremental OPF
		// feasibility probes on the 300-bus system.
		for _, lm := range []struct {
			mode  core.VerifyMode
			title string
		}{
			{core.VerifyLP, "Incremental threshold ladder, LP verification (Fig. 4(a) sweep; shared candidate search)"},
			{core.VerifySMT, "Incremental threshold ladder, SMT verification (shared search + assumption-based cost caps)"},
		} {
			rows, err := experiments.RunLadderSpeedup(names, lm.mode, maxConflicts)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, lm.title)
			tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
			fmt.Fprintln(tw, "case\tbuses\trungs\tfound\tbudget-bound\tincremental\tcold\tspeedup")
			for _, r := range rows {
				fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%v\t%v\t%.1fx\n",
					r.Case, r.Buses, r.Rungs, r.Found, r.Budgeted,
					r.Incremental.Round(1e5), r.Cold.Round(1e5), r.Speedup())
			}
			tw.Flush()
			fmt.Fprintln(w)
		}

		fq, err := experiments.RunFirstQuery("synth300", maxConflicts)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "First incremental OPF feasibility probes, 300-bus system (encode once, Sat at 1.1*T0, Unsat at 0.99*T0)")
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "case\tbuses\tlines\tencode\tsat-probe\tunsat-probe\twithin-budget")
		fmt.Fprintf(tw, "%s\t%d\t%d\t%v\t%v\t%v\t%v\n",
			fq.Case, fq.Buses, fq.Lines, fq.Encode.Round(1e5),
			fq.SatProbe.Round(1e5), fq.UnsProbe.Round(1e5), !fq.Canceled)
		tw.Flush()
		fmt.Fprintln(w)

	case "soak":
		// The table behind BENCH_soak.json: the supervised continuous-
		// operation loop run end to end (real-TCP fleet, cycle-keyed random
		// fault matrix, health machine + degradation ladder) at increasing
		// per-(bus,cycle) fault rates, reporting cycle outcomes, recovery
		// totals, and cycle-latency percentiles.
		soakCases := names
		if len(soakCases) == 0 {
			soakCases = []string{"paper5", "synth118"}
		}
		fmt.Fprintf(w, "Continuous-operation soak: cycle outcomes and latency vs. fault rate (%d supervised cycles each)\n", soakCycles)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "case\tbuses\tcycles\trate\tclean\tdegraded\theld\ttrips\trecovered\tattempts\tp50\tp90\tp99\tmax")
		for _, name := range soakCases {
			rows, err := experiments.RunSoak(name, soakCycles, nil, 1)
			if err != nil {
				return err
			}
			for _, r := range rows {
				fmt.Fprintf(tw, "%s\t%d\t%d\t%.3f\t%d\t%d\t%d\t%d\t%d\t%d\t%v\t%v\t%v\t%v\n",
					r.Case, r.Buses, r.Cycles, r.FaultRate, r.Clean, r.Degraded, r.Held,
					r.Trips, r.Recovered, r.Attempts,
					r.P50.Round(1e4), r.P90.Round(1e4), r.P99.Round(1e4), r.Max.Round(1e4))
			}
		}
		tw.Flush()
		fmt.Fprintln(w)

	case "serve":
		// The table behind BENCH_serve.json: an in-process gridattackd
		// (durable journal directory, real HTTP over loopback) replaying the
		// seeded mixed loadgen workload — hot-cache repeats, incremental
		// threshold ladders, cold unique problems — and reporting
		// throughput, latency percentiles, and cache effectiveness overall
		// and per workload class.
		dir, err := os.MkdirTemp("", "benchserve")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		res, err := experiments.RunServe(experiments.ServeConfig{
			Queries:    serveQueries,
			Seed:       1,
			Cases:      names,
			JournalDir: dir,
		})
		if err != nil {
			return err
		}
		rep := res.Report
		fmt.Fprintf(w, "Service throughput: seeded mixed workload vs. durable gridattackd (%d workers, %d queries)\n",
			res.Workers, rep.Queries)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "class\tqueries\tcompleted\tcache-hits\tp50\tp90\tp99")
		for _, cs := range rep.Classes {
			fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%v\t%v\t%v\n",
				cs.Class, cs.Queries, cs.Completed, cs.CacheHits,
				cs.P50.Round(1e4), cs.P90.Round(1e4), cs.P99.Round(1e4))
		}
		fmt.Fprintf(tw, "all\t%d\t%d\t%d\t%v\t%v\t%v\n",
			rep.Queries, rep.Completed, rep.CacheHits,
			rep.P50.Round(1e4), rep.P90.Round(1e4), rep.P99.Round(1e4))
		tw.Flush()
		fmt.Fprintf(w, "wall %v  %.1f queries/s  cache %d/%d (%.1f%% of completed, server: %d hits %d misses)\n",
			rep.Wall.Round(1e6), rep.QPS, rep.CacheHits, rep.Completed, 100*rep.CacheRate,
			res.Cache.Hits, res.Cache.Misses)
		fmt.Fprintln(w)

	default:
		return fmt.Errorf("unknown artifact %q (want 4a, 4b, 4c, 5a, 5b, 5c, t4, par, cert, arith, sparse, expr, soak, serve)", artifact)
	}
	return nil
}
