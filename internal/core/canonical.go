// Canonical problem serialization for content-addressed result caching.
//
// The analysis-as-a-service layer keys its result cache by the SHA-256 of a
// canonical byte rendering of (problem, verdict-relevant configuration). Two
// requirements pull in opposite directions and both are load-bearing:
//
//   - Invariance: the same problem loaded from differently-ordered textio
//     input (shuffled measurement/generator/load rows, reordered sections)
//     must canonicalize to the same bytes, so overlapping queries from many
//     tenants share one cache entry.
//   - Sensitivity: a one-ULP perturbation of any float must change the
//     bytes. Formatted-decimal renderings (the textio writer's %.4f) would
//     collapse distinct problems onto one key — the warm-tableau-drift class
//     of bug from the soak work, where last-ulp differences were exactly the
//     signal. Floats are therefore encoded as their IEEE-754 bit patterns.
//
// Configuration that cannot change a definitive verdict is deliberately
// excluded from the key: Parallelism (verdicts are bit-identical at every
// worker count, see DESIGN.md "Parallel impact analysis") and the resource
// budgets MaxConflicts/MaxPivots/QueryTimeout (a budget can only turn a
// definitive verdict into a Canceled one, and non-definitive results are
// never cached — see the serve package's trust boundary).
package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"

	"gridattack/internal/attack"
	"gridattack/internal/grid"
	"gridattack/internal/measure"
	"gridattack/internal/smt"
)

// KeyConfig holds the verdict-relevant analyzer configuration that joins the
// problem in a cache key. The zero value of each field selects the same
// default the Analyzer itself would (VerifyLP, 200 iterations, the paper's
// 2-digit block precision, the incremental encoding).
type KeyConfig struct {
	// Targets are the requested cost-increase percentages; one entry is a
	// plain Run, several an incremental ladder. Order is preserved: a ladder
	// answers per-target reports in input order.
	Targets []float64
	// Verify selects the verification backend (0 = VerifyLP).
	Verify VerifyMode
	// BlockPrecision quantizes blocked vectors (0 = the paper's 0.01 p.u.).
	BlockPrecision float64
	// MaxIterations caps the find-verify loop (0 = 200). It is part of the
	// key because an iteration-capped outcome depends on it.
	MaxIterations int
	// Certify demands checker-validated verdicts; certified and uncertified
	// runs are kept apart so a tenant requesting certification is never
	// served a result that skipped the checker.
	Certify bool
	// NoIncremental forces the cold encoding path. The paths are
	// verdict-identical, but they are keyed apart so the cache never blurs
	// the A/B boundary the rest of the repo tests against. The key records
	// the encoding the analysis actually runs (see encodingName), so where
	// certification forces the cold path anyway this knob changes nothing.
	NoIncremental bool
}

// CanonicalProblemBytes renders the analysis problem into deterministic
// bytes: rows sorted by ID/bus, floats as IEEE-754 bit patterns. Grid.Name
// is excluded (display only).
func CanonicalProblemBytes(g *grid.Grid, p *measure.Plan, cap attack.Capability) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "grid v1 buses=%d lines=%d ref=%d\n", g.NumBuses(), g.NumLines(), g.RefBus)
	buses := append([]grid.Bus(nil), g.Buses...)
	sort.Slice(buses, func(i, j int) bool { return buses[i].ID < buses[j].ID })
	for _, bus := range buses {
		fmt.Fprintf(&b, "bus %d %t %t\n", bus.ID, bus.HasGenerator, bus.HasLoad)
	}
	lines := append([]grid.Line(nil), g.Lines...)
	sort.Slice(lines, func(i, j int) bool { return lines[i].ID < lines[j].ID })
	for _, ln := range lines {
		fmt.Fprintf(&b, "line %d %d %d %016x %016x %t %t %t %t %t %t\n",
			ln.ID, ln.From, ln.To,
			math.Float64bits(ln.Admittance), math.Float64bits(ln.Capacity),
			ln.InService, ln.Core, ln.StatusSecured, ln.CanAlterStatus, ln.AdmittanceKnown,
			false) // reserved
	}
	gens := append([]grid.Generator(nil), g.Generators...)
	sort.Slice(gens, func(i, j int) bool {
		a, c := gens[i], gens[j]
		if a.Bus != c.Bus {
			return a.Bus < c.Bus
		}
		// Buses can host several generators; order the full record so the
		// sort is a total order independent of input order.
		ka := [4]uint64{math.Float64bits(a.MaxP), math.Float64bits(a.MinP), math.Float64bits(a.Alpha), math.Float64bits(a.Beta)}
		kc := [4]uint64{math.Float64bits(c.MaxP), math.Float64bits(c.MinP), math.Float64bits(c.Alpha), math.Float64bits(c.Beta)}
		for i := range ka {
			if ka[i] != kc[i] {
				return ka[i] < kc[i]
			}
		}
		return false
	})
	for _, gen := range gens {
		fmt.Fprintf(&b, "gen %d %016x %016x %016x %016x\n", gen.Bus,
			math.Float64bits(gen.MaxP), math.Float64bits(gen.MinP),
			math.Float64bits(gen.Alpha), math.Float64bits(gen.Beta))
	}
	loads := append([]grid.Load(nil), g.Loads...)
	sort.Slice(loads, func(i, j int) bool {
		a, c := loads[i], loads[j]
		if a.Bus != c.Bus {
			return a.Bus < c.Bus
		}
		ka := [3]uint64{math.Float64bits(a.P), math.Float64bits(a.MaxP), math.Float64bits(a.MinP)}
		kc := [3]uint64{math.Float64bits(c.P), math.Float64bits(c.MaxP), math.Float64bits(c.MinP)}
		for i := range ka {
			if ka[i] != kc[i] {
				return ka[i] < kc[i]
			}
		}
		return false
	})
	for _, ld := range loads {
		fmt.Fprintf(&b, "load %d %016x %016x %016x\n", ld.Bus,
			math.Float64bits(ld.P), math.Float64bits(ld.MaxP), math.Float64bits(ld.MinP))
	}
	fmt.Fprintf(&b, "plan %d ", p.M())
	for i := 1; i <= p.M(); i++ {
		c := byte('0')
		if p.Taken[i] {
			c |= 1
		}
		if p.Secured[i] {
			c |= 2
		}
		if p.Accessible[i] {
			c |= 4
		}
		b.WriteByte(c)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "cap %d %d %t %t\n", cap.MaxMeasurements, cap.MaxBuses, cap.States, cap.RequireTopologyChange)
	return b.Bytes()
}

// encodingName names the SMT encoding path an analysis with these knobs
// runs, journals, and is keyed under: "incremental" (assumption-based cost
// caps) unless NoIncremental or certification forces "cold". Certification
// counts whether requested or enabled process-wide (GRIDATTACK_CERTIFY),
// because a relative unsat verdict carries no certificate. This is the one
// place the decision is made.
func encodingName(noIncremental, certify bool) string {
	if noIncremental || certify || smt.CertifyDefault() {
		return "cold"
	}
	return "incremental"
}

// CacheKey returns the hex SHA-256 content address of (problem,
// configuration). Identical problems loaded from reordered inputs map to the
// same key; any one-ULP numeric difference, and any configuration difference
// that could change a definitive verdict, maps to a different one.
func CacheKey(g *grid.Grid, p *measure.Plan, cap attack.Capability, kc KeyConfig) string {
	h := sha256.New()
	h.Write(CanonicalProblemBytes(g, p, cap))
	mode := kc.Verify
	if mode == 0 {
		mode = VerifyLP
	}
	maxIter := kc.MaxIterations
	if maxIter <= 0 {
		maxIter = 200
	}
	prec := kc.BlockPrecision
	fmt.Fprintf(h, "cfg v1 verify=%d maxiter=%d prec=%016x certify=%t encoding=%s targets=",
		int(mode), maxIter, math.Float64bits(prec), kc.Certify, encodingName(kc.NoIncremental, kc.Certify))
	for _, t := range kc.Targets {
		fmt.Fprintf(h, "%016x,", math.Float64bits(t))
	}
	return hex.EncodeToString(h.Sum(nil))
}
