package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gridattack/internal/cases"
	"gridattack/internal/grid"
)

// This file holds a frozen copy of the original dense-tableau kernel, used as
// an oracle: the solver's kernel must take the same pivots and produce the
// same values. It shares the package's tolerances, so it pins the arithmetic,
// not the tuning. Do not optimise it.

// refTableau is the dense kernel's working state: one slice per row, every
// column updated on every pivot, reduced costs computed for every column.
type refTableau struct {
	m, n   int
	a      [][]float64
	xB     []float64
	basis  []int
	status []varStatus
	lower  []float64
	upper  []float64
	nonbas []float64
	pivots int
}

// refSolve is Solve on the dense kernel.
func (p *Problem) refSolve() (*Solution, error) {
	for i, c := range p.cons {
		for _, t := range c.terms {
			if t.Var < 0 || t.Var >= len(p.lower) {
				return nil, fmt.Errorf("lp: constraint %d references unknown variable %d", i, t.Var)
			}
		}
	}
	for j := range p.lower {
		if p.lower[j] > p.upper[j] {
			return &Solution{Status: Infeasible}, nil
		}
	}

	nStruct := len(p.lower)
	m := len(p.cons)
	nSlack := 0
	for _, c := range p.cons {
		if c.sense != EQ {
			nSlack++
		}
	}
	n := nStruct + nSlack + m

	t := &refTableau{
		m:      m,
		n:      n,
		a:      make([][]float64, m),
		xB:     make([]float64, m),
		basis:  make([]int, m),
		status: make([]varStatus, n),
		lower:  make([]float64, n),
		upper:  make([]float64, n),
		nonbas: make([]float64, n),
	}
	for i := range t.a {
		t.a[i] = make([]float64, n)
	}
	copy(t.lower, p.lower)
	copy(t.upper, p.upper)

	for j := 0; j < nStruct; j++ {
		switch {
		case math.IsInf(p.lower[j], -1) && math.IsInf(p.upper[j], 1):
			t.status[j] = statusFree
			t.nonbas[j] = 0
		case math.IsInf(p.lower[j], -1):
			t.status[j] = statusAtUpper
			t.nonbas[j] = p.upper[j]
		case math.IsInf(p.upper[j], 1):
			t.status[j] = statusAtLower
			t.nonbas[j] = p.lower[j]
		case math.Abs(p.lower[j]) <= math.Abs(p.upper[j]):
			t.status[j] = statusAtLower
			t.nonbas[j] = p.lower[j]
		default:
			t.status[j] = statusAtUpper
			t.nonbas[j] = p.upper[j]
		}
	}

	slackIdx := nStruct
	artIdx := nStruct + nSlack
	for i, c := range p.cons {
		for _, term := range c.terms {
			t.a[i][term.Var] += term.Coeff
		}
		if c.sense != EQ {
			t.a[i][slackIdx] = 1
			if c.sense == LE {
				t.lower[slackIdx], t.upper[slackIdx] = 0, math.Inf(1)
				t.status[slackIdx] = statusAtLower
			} else {
				t.lower[slackIdx], t.upper[slackIdx] = math.Inf(-1), 0
				t.status[slackIdx] = statusAtUpper
			}
			slackIdx++
		}
		resid := c.rhs
		for j := 0; j < artIdx; j++ {
			if t.a[i][j] != 0 && t.status[j] != statusBasic {
				resid -= t.a[i][j] * t.nonbas[j]
			}
		}
		if resid < 0 {
			for j := 0; j < artIdx; j++ {
				t.a[i][j] = -t.a[i][j]
			}
			resid = -resid
		}
		art := artIdx + i
		t.a[i][art] = 1
		t.lower[art], t.upper[art] = 0, math.Inf(1)
		t.basis[i] = art
		t.status[art] = statusBasic
		t.xB[i] = resid
	}

	phase1 := make([]float64, n)
	for i := 0; i < m; i++ {
		phase1[artIdx+i] = 1
	}
	st, err := t.iterate(phase1)
	if err != nil {
		return nil, err
	}
	if st == Unbounded {
		return nil, fmt.Errorf("lp: phase 1 unbounded (internal error)")
	}
	if t.objective(phase1) > feasTol {
		return &Solution{Status: Infeasible}, nil
	}
	for i := 0; i < m; i++ {
		art := artIdx + i
		t.upper[art] = 0
		if t.status[art] != statusBasic {
			t.status[art] = statusAtLower
			t.nonbas[art] = 0
		}
	}

	phase2 := make([]float64, n)
	copy(phase2, p.cost)
	st, err = t.iterate(phase2)
	if err != nil {
		return nil, err
	}
	if st == Unbounded {
		return &Solution{Status: Unbounded}, nil
	}
	x := make([]float64, nStruct)
	copy(x, t.values()[:nStruct])
	obj := 0.0
	for j := 0; j < nStruct; j++ {
		obj += p.cost[j] * x[j]
	}
	return &Solution{Status: Optimal, Objective: obj, X: x, Pivots: t.pivots}, nil
}

func (t *refTableau) values() []float64 {
	v := make([]float64, t.n)
	for j := 0; j < t.n; j++ {
		if t.status[j] != statusBasic {
			v[j] = t.nonbas[j]
		}
	}
	for i, b := range t.basis {
		v[b] = t.xB[i]
	}
	return v
}

func (t *refTableau) objective(cost []float64) float64 {
	var s float64
	for j, v := range t.values() {
		s += cost[j] * v
	}
	return s
}

func (t *refTableau) reducedCosts(cost []float64) []float64 {
	d := make([]float64, t.n)
	copy(d, cost)
	for i, b := range t.basis {
		cb := cost[b]
		if cb == 0 {
			continue
		}
		row := t.a[i]
		for j := 0; j < t.n; j++ {
			d[j] -= cb * row[j]
		}
	}
	return d
}

func (t *refTableau) iterate(cost []float64) (Status, error) {
	maxIter := maxIterMult * (t.m + t.n)
	for iter := 0; ; iter++ {
		if iter > maxIter {
			return 0, fmt.Errorf("lp: iteration limit exceeded (%d iterations, %d rows, %d cols)", iter, t.m, t.n)
		}
		bland := iter > blandAfter
		d := t.reducedCosts(cost)

		enter, dir := -1, 0.0
		bestScore := costTol
		for j := 0; j < t.n; j++ {
			var improving bool
			var dj float64
			switch t.status[j] {
			case statusAtLower:
				improving = d[j] < -costTol && t.lower[j] < t.upper[j]
				dj = 1
			case statusAtUpper:
				improving = d[j] > costTol && t.lower[j] < t.upper[j]
				dj = -1
			case statusFree:
				improving = math.Abs(d[j]) > costTol
				if d[j] > 0 {
					dj = -1
				} else {
					dj = 1
				}
			default:
				continue
			}
			if !improving {
				continue
			}
			if bland {
				enter, dir = j, dj
				break
			}
			if score := math.Abs(d[j]); score > bestScore {
				bestScore = score
				enter, dir = j, dj
			}
		}
		if enter < 0 {
			return Optimal, nil
		}

		limit := math.Inf(1)
		leaveRow := -1
		leaveToUpper := false
		if !math.IsInf(t.lower[enter], -1) && !math.IsInf(t.upper[enter], 1) {
			limit = t.upper[enter] - t.lower[enter]
		}
		for i := 0; i < t.m; i++ {
			alpha := t.a[i][enter]
			if math.Abs(alpha) <= pivotTol {
				continue
			}
			b := t.basis[i]
			rate := -dir * alpha
			var ti float64
			var toUpper bool
			if rate < 0 {
				if math.IsInf(t.lower[b], -1) {
					continue
				}
				ti = (t.xB[i] - t.lower[b]) / -rate
				toUpper = false
			} else {
				if math.IsInf(t.upper[b], 1) {
					continue
				}
				ti = (t.upper[b] - t.xB[i]) / rate
				toUpper = true
			}
			if ti < 0 {
				ti = 0
			}
			if ti < limit {
				limit = ti
				leaveRow = i
				leaveToUpper = toUpper
			}
		}
		if math.IsInf(limit, 1) {
			return Unbounded, nil
		}

		for i := 0; i < t.m; i++ {
			t.xB[i] -= dir * t.a[i][enter] * limit
		}
		enterVal := t.nonbas[enter] + dir*limit

		if leaveRow < 0 {
			t.nonbas[enter] = enterVal
			if dir > 0 {
				t.status[enter] = statusAtUpper
			} else {
				t.status[enter] = statusAtLower
			}
			continue
		}

		leaving := t.basis[leaveRow]
		if leaveToUpper {
			t.status[leaving] = statusAtUpper
			t.nonbas[leaving] = t.upper[leaving]
			t.xB[leaveRow] = t.upper[leaving]
		} else {
			t.status[leaving] = statusAtLower
			t.nonbas[leaving] = t.lower[leaving]
			t.xB[leaveRow] = t.lower[leaving]
		}
		t.pivot(leaveRow, enter)
		t.pivots++
		t.basis[leaveRow] = enter
		t.status[enter] = statusBasic
		t.xB[leaveRow] = enterVal
	}
}

func (t *refTableau) pivot(row, col int) {
	pr := t.a[row]
	pv := pr[col]
	inv := 1 / pv
	for j := 0; j < t.n; j++ {
		pr[j] *= inv
	}
	pr[col] = 1
	for i := 0; i < t.m; i++ {
		if i == row {
			continue
		}
		f := t.a[i][col]
		if f == 0 {
			continue
		}
		ri := t.a[i]
		for j := 0; j < t.n; j++ {
			ri[j] -= f * pr[j]
		}
		ri[col] = 0
	}
}

// matchReference solves p with the kernel and with the dense reference and
// fails unless status, pivot count, objective and every X[j] agree under ==.
// It returns the kernel's solution.
func matchReference(t *testing.T, name string, p *Problem) *Solution {
	t.Helper()
	got, gotErr := p.Solve()
	want, wantErr := p.refSolve()
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%s: error %v, reference error %v", name, gotErr, wantErr)
	}
	if gotErr != nil {
		return nil
	}
	if got.Status != want.Status || got.Pivots != want.Pivots {
		t.Fatalf("%s: status %v after %d pivots, reference %v after %d", name, got.Status, got.Pivots, want.Status, want.Pivots)
	}
	if got.Objective != want.Objective {
		t.Fatalf("%s: objective %v, reference %v", name, got.Objective, want.Objective)
	}
	if len(got.X) != len(want.X) {
		t.Fatalf("%s: %d values, reference %d", name, len(got.X), len(want.X))
	}
	for j := range got.X {
		if got.X[j] != want.X[j] {
			t.Fatalf("%s: x[%d] = %v, reference %v", name, j, got.X[j], want.X[j])
		}
	}
	return got
}

// byteLP decodes an arbitrary byte string into a small bounded LP: every
// byte picks one shape or value, and a short string pads with zeros. Bounds
// cover free, fixed, lower-only, upper-only and boxed variables; rows mix
// LE, EQ and GE; rhs is zero a third of the time, which makes degenerate
// vertices common. Values are small integers and halves, so the tableau
// stays finite.
func byteLP(data []byte) *Problem {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	val := func() float64 { return float64(next()%17-8) / 2 }
	p := NewProblem()
	nv := 1 + next()%7
	for j := 0; j < nv; j++ {
		lo, hi := val(), val()
		if lo > hi {
			lo, hi = hi, lo
		}
		switch next() % 6 {
		case 0:
			lo, hi = math.Inf(-1), math.Inf(1)
		case 1:
			hi = lo
		case 2:
			hi = math.Inf(1)
		case 3:
			lo = math.Inf(-1)
		}
		p.AddVariable(lo, hi, val(), fmt.Sprintf("x%d", j))
	}
	nc := next() % 8
	for i := 0; i < nc; i++ {
		var terms []Term
		for j := 0; j < nv; j++ {
			if b := next(); b%3 != 0 {
				terms = append(terms, Term{Var: j, Coeff: float64(b%9 - 4)})
			}
		}
		rhs := 0.0
		if next()%3 != 0 {
			rhs = val() * 2
		}
		p.AddConstraint(terms, Sense(1+next()%3), rhs)
	}
	return p
}

// angleLP builds the angle-formulation DC OPF LP of grid g under topology
// top and the given loads: one angle per non-reference bus, one output per
// generator, one flow per mapped line, the flow definitions and nodal
// balance rows.
func angleLP(g *grid.Grid, top grid.Topology, loads []float64) *Problem {
	p := NewProblem()
	theta := make([]int, g.NumBuses()+1)
	for _, bus := range g.Buses {
		theta[bus.ID] = -1
		if bus.ID != g.RefBus {
			theta[bus.ID] = p.AddVariable(math.Inf(-1), math.Inf(1), 0, "")
		}
	}
	gen := make([]int, len(g.Generators))
	for i, gn := range g.Generators {
		gen[i] = p.AddVariable(gn.MinP, gn.MaxP, gn.Beta, "")
	}
	flow := make([]int, g.NumLines()+1)
	for _, ln := range g.Lines {
		flow[ln.ID] = -1
		if !top.Contains(ln.ID) {
			continue
		}
		fv := p.AddVariable(-ln.Capacity, ln.Capacity, 0, "")
		flow[ln.ID] = fv
		terms := []Term{{Var: fv, Coeff: 1}}
		if v := theta[ln.From]; v >= 0 {
			terms = append(terms, Term{Var: v, Coeff: -ln.Admittance})
		}
		if v := theta[ln.To]; v >= 0 {
			terms = append(terms, Term{Var: v, Coeff: ln.Admittance})
		}
		p.AddConstraint(terms, EQ, 0)
	}
	for _, bus := range g.Buses {
		var terms []Term
		for _, ln := range g.Lines {
			if fv := flow[ln.ID]; fv >= 0 && ln.From == bus.ID {
				terms = append(terms, Term{Var: fv, Coeff: 1})
			} else if fv >= 0 && ln.To == bus.ID {
				terms = append(terms, Term{Var: fv, Coeff: -1})
			}
		}
		for i, gn := range g.Generators {
			if gn.Bus == bus.ID {
				terms = append(terms, Term{Var: gen[i], Coeff: -1})
			}
		}
		p.AddConstraint(terms, EQ, -loads[bus.ID-1])
	}
	return p
}

func TestSolveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	statuses := map[Status]int{}
	kinds := map[string]int{}
	buf := make([]byte, 96)
	for k := 0; k < 3000; k++ {
		rng.Read(buf)
		p := byteLP(buf)
		for j := range p.lower {
			lo, hi := p.lower[j], p.upper[j]
			switch {
			case math.IsInf(lo, -1) && math.IsInf(hi, 1):
				kinds["free"]++
			case lo == hi:
				kinds["fixed"]++
			case math.IsInf(lo, -1) || math.IsInf(hi, 1):
				kinds["one-sided"]++
			}
		}
		for _, c := range p.cons {
			kinds[c.sense.String()]++
			if c.rhs == 0 {
				kinds["zero rhs"]++
			}
		}
		if sol := matchReference(t, fmt.Sprintf("random LP %d", k), p); sol != nil {
			statuses[sol.Status]++
		}
	}
	for _, st := range []Status{Optimal, Infeasible, Unbounded} {
		if statuses[st] == 0 {
			t.Errorf("no random LP ended %v; the generator lost coverage (%v)", st, statuses)
		}
	}
	for _, k := range []string{"free", "fixed", "one-sided", "<=", "==", ">=", "zero rhs"} {
		if kinds[k] == 0 {
			t.Errorf("no random LP has a %s variable or row (%v)", k, kinds)
		}
	}

	grids := []string{"ieee14", "synth30", "synth118"}
	perGrid := 6
	if testing.Short() {
		perGrid = 2
	}
	for _, name := range grids {
		c, err := cases.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g := c.Grid
		rng := rand.New(rand.NewSource(int64(len(name))))
		for k := 0; k < perGrid; k++ {
			top := g.TrueTopology()
			// k = 0 is the intact system at its own loads; later instances
			// exclude up to three lines and rescale every load.
			loads := g.LoadVector()
			if k > 0 {
				for x := rng.Intn(4); x > 0; x-- {
					top = top.WithExcluded(1 + rng.Intn(g.NumLines()))
				}
				for i := range loads {
					loads[i] *= 0.8 + 0.4*rng.Float64()
				}
			}
			sol := matchReference(t, fmt.Sprintf("%s #%d", name, k), angleLP(g, top, loads))
			if k == 0 && (sol == nil || sol.Status != Optimal || sol.Pivots == 0) {
				t.Fatalf("%s: the intact OPF did not solve to optimality with pivots: %+v", name, sol)
			}
		}
	}
}

func FuzzSolveMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 8, 12, 5, 1, 2, 9, 4, 7, 3, 6, 1, 0, 2})
	f.Add([]byte{6, 0, 0, 9, 1, 16, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23})
	f.Fuzz(func(t *testing.T, data []byte) {
		matchReference(t, "fuzzed LP", byteLP(data))
	})
}
