package smt

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// ratOracle computes the reference result of an op with big.Rat throughout.
func ratOracle(op byte, x, y *big.Rat) *big.Rat {
	z := new(big.Rat)
	switch op {
	case '+':
		return z.Add(x, y)
	case '-':
		return z.Sub(x, y)
	case '*':
		return z.Mul(x, y)
	case '/':
		return z.Quo(x, y)
	case 'm': // fused x + f*y handled by caller
		panic("unreachable")
	}
	panic("unknown op")
}

// ratOf converts a big.Rat the way the solver does (simplex coefficients,
// atom bounds).
func ratOf(x *big.Rat) rat64 { return r64FromFrac(x.Num(), x.Denom()) }

// mkRat64 builds a rat64 from a raw numerator/denominator pair the way the
// fuzzer supplies them: via big.Rat normalization, so invalid pairs (zero or
// negative denominators) are canonicalized rather than rejected.
func mkRat64(num, den int64) (rat64, *big.Rat, bool) {
	if den == 0 {
		return rat64{}, nil, false
	}
	ref := big.NewRat(num, den)
	return ratOf(ref), ref, true
}

// checkVal asserts a rat64's value matches a big.Rat reference and that its
// representation invariants hold.
func checkVal(t *testing.T, tag string, got rat64, want *big.Rat) {
	t.Helper()
	if got.toBig().Cmp(want) != 0 {
		t.Fatalf("%s: got %s, want %s", tag, got.toBig().RatString(), want.RatString())
	}
	if got.promoted == nil {
		if got.den <= 0 {
			t.Fatalf("%s: non-positive denominator %d", tag, got.den)
		}
		if got.num == math.MinInt64 || got.den == math.MinInt64 {
			t.Fatalf("%s: MinInt64 leaked onto the fast path", tag)
		}
		if g := gcd64(absI64(got.num), got.den); got.num != 0 && g != 1 {
			t.Fatalf("%s: unreduced fraction %d/%d (gcd %d)", tag, got.num, got.den, g)
		}
		if got.num == 0 && got.den != 1 {
			t.Fatalf("%s: zero not canonical: 0/%d", tag, got.den)
		}
		return
	}
	// Promoted values are written without a normalising pass, so check the
	// canonical form directly: reduced, positive denominator, and not a
	// value the fast path could hold (results that fit are demoted).
	n, d := got.promoted.Num(), got.promoted.Denom()
	if d.Sign() <= 0 {
		t.Fatalf("%s: promoted non-positive denominator %s", tag, d)
	}
	if g := new(big.Int).GCD(nil, nil, n, d); n.Sign() != 0 && !isOne(g) {
		t.Fatalf("%s: promoted unreduced fraction %s (gcd %s)", tag, got.promoted.RatString(), g)
	}
	if n.IsInt64() && d.IsInt64() && n.Int64() != math.MinInt64 {
		t.Fatalf("%s: promoted value %s fits the fast path", tag, got.promoted.RatString())
	}
}

// crossCheck runs every arith op on one operand pair against the big.Rat
// oracle, in both hybrid and forced-big modes.
func crossCheck(t *testing.T, xn, xd, yn, yd int64) {
	t.Helper()
	x, xref, ok := mkRat64(xn, xd)
	if !ok {
		return
	}
	y, yref, ok := mkRat64(yn, yd)
	if !ok {
		return
	}
	for _, force := range []bool{false, true} {
		ar := &arith{forceBig: force}
		checkVal(t, "add", ar.add(x, y), ratOracle('+', xref, yref))
		checkVal(t, "sub", ar.sub(x, y), ratOracle('-', xref, yref))
		checkVal(t, "mul", ar.mul(x, y), ratOracle('*', xref, yref))
		checkVal(t, "neg", ar.neg(x), new(big.Rat).Neg(xref))
		checkVal(t, "abs", ar.abs(x), new(big.Rat).Abs(xref))
		if y.Sign() != 0 {
			checkVal(t, "div", ar.div(x, y), ratOracle('/', xref, yref))
			checkVal(t, "inv", ar.inv(y), new(big.Rat).Inv(yref))
		}
		want := new(big.Rat).Mul(xref, yref)
		want.Add(want, xref)
		checkVal(t, "addMul", ar.addMul(x, x, y), want) // x + x*y
		if gotC, wantC := ar.cmp(x, y), xref.Cmp(yref); gotC != wantC {
			t.Fatalf("cmp(%s,%s) = %d, want %d", xref.RatString(), yref.RatString(), gotC, wantC)
		}
		if ar.equal(x, y) != (xref.Cmp(yref) == 0) {
			t.Fatalf("equal(%s,%s) inconsistent with cmp", xref.RatString(), yref.RatString())
		}
		// A hybrid op and its forced-big twin must agree bit-for-bit in value;
		// counters must attribute every op to exactly one path.
		if force && ar.fastOps != 0 {
			t.Fatalf("forceBig run still took %d fast-path ops", ar.fastOps)
		}
		if !force && ar.fastOps+ar.bigOps == 0 {
			t.Fatal("no operations counted")
		}
	}
}

// TestRat64Basics pins easy algebraic identities and the counter wiring.
func TestRat64Basics(t *testing.T) {
	ar := &arith{}
	half := ratOf(big.NewRat(1, 2))
	third := ratOf(big.NewRat(1, 3))
	sum := ar.add(half, third)
	if got := sum.toBig().RatString(); got != "5/6" {
		t.Fatalf("1/2 + 1/3 = %s", got)
	}
	if ar.bigOps != 0 || ar.fastOps == 0 {
		t.Fatalf("small add used the slow path (fast=%d big=%d)", ar.fastOps, ar.bigOps)
	}
	// Force an overflow: (2^62)/1 * (2^62)/1 cannot fit an int64.
	huge := r64FromInt(1 << 62)
	prod := ar.mul(huge, huge)
	if !prod.isBig() {
		t.Fatal("2^62 * 2^62 stayed on the fast path")
	}
	want := new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), 124))
	if prod.toBig().Cmp(want) != 0 {
		t.Fatalf("2^62 * 2^62 = %s", prod.toBig().RatString())
	}
	if ar.bigOps == 0 {
		t.Fatal("overflowing mul not counted as a big op")
	}
	// And back: dividing by one factor demotes the result onto the fast path.
	quot := ar.div(prod, huge)
	if quot.isBig() {
		t.Fatal("result that fits int64 was not demoted")
	}
	if quot.num != 1<<62 || quot.den != 1 {
		t.Fatalf("demoted quotient = %d/%d", quot.num, quot.den)
	}
}

// TestRat64MinInt64 covers the excluded-representation edge: MinInt64 inputs
// must be promoted so negation can never overflow.
func TestRat64MinInt64(t *testing.T) {
	x := r64FromInt(math.MinInt64)
	if !x.isBig() {
		t.Fatal("MinInt64 landed on the fast path")
	}
	ar := &arith{}
	n := ar.neg(x)
	want := new(big.Rat).Neg(new(big.Rat).SetInt64(math.MinInt64))
	if n.toBig().Cmp(want) != 0 {
		t.Fatalf("-MinInt64 = %s", n.toBig().RatString())
	}
	// Via big.Rat normalization the same value must also promote (or reduce).
	y := ratOf(new(big.Rat).SetFrac64(math.MinInt64, 3))
	checkVal(t, "min/3", y, new(big.Rat).SetFrac64(math.MinInt64, 3))
}

// TestRat64CrossCheckGrid sweeps a deterministic grid including every overflow
// boundary class the fuzzer seeds.
func TestRat64CrossCheckGrid(t *testing.T) {
	vals := []int64{0, 1, -1, 2, 3, -3, 7, 1 << 31, -(1 << 31), 1 << 62, -(1 << 62), math.MaxInt64, math.MinInt64 + 1}
	dens := []int64{1, 2, 3, 1 << 31, math.MaxInt64}
	for _, xn := range vals {
		for _, xd := range dens {
			crossCheck(t, xn, xd, 3, 7)
			crossCheck(t, 5, 9, xn, xd)
			crossCheck(t, xn, xd, xn, xd)
		}
	}
}

// FuzzRat64 cross-checks every hybrid-rational operation against the big.Rat
// oracle on arbitrary operand pairs. The seed corpus sits on the int64
// overflow boundaries: ±2^62 and MaxInt64 numerators, and denominator pairs
// whose product overflows (large coprime denominators force the add slow
// path).
func FuzzRat64(f *testing.F) {
	f.Add(int64(1), int64(2), int64(1), int64(3))
	f.Add(int64(1)<<62, int64(1), int64(1)<<62, int64(1))
	f.Add(-(int64(1) << 62), int64(1), int64(1)<<62, int64(1))
	f.Add(int64(math.MaxInt64), int64(1), int64(1), int64(math.MaxInt64))
	f.Add(int64(math.MinInt64), int64(1), int64(math.MinInt64), int64(3))
	// Denominator-product overflow: 2^31+11 and 2^31+1 are coprime, so the
	// common denominator exceeds int64 and the sum must promote.
	f.Add(int64(1), int64(1)<<31+11, int64(1), int64(1)<<31+1)
	f.Add(int64(3), int64(2147483647), int64(5), int64(2147483629))
	f.Add(int64(0), int64(1), int64(0), int64(-1))
	f.Fuzz(func(t *testing.T, xn, xd, yn, yd int64) {
		crossCheck(t, xn, xd, yn, yd)
	})
}

// TestRat64GCD checks the slow path's gcd against big.Int.GCD on operands
// of one to four words, with signs, shared factors and exact multiples, so
// every route (single word, 128-bit binary, Euclid step, Lehmer) is taken.
func TestRat64GCD(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	mk := func(words int) *big.Int {
		z := new(big.Int)
		for w := 0; w < words; w++ {
			z.Lsh(z, 64)
			z.Or(z, new(big.Int).SetUint64(rng.Uint64()>>uint(rng.Intn(64))))
		}
		if rng.Intn(2) == 0 {
			z.Neg(z)
		}
		return z
	}
	ar := &arith{}
	for i := 0; i < 50000; i++ {
		a, b := mk(1+rng.Intn(6)), mk(1+rng.Intn(6))
		switch rng.Intn(3) {
		case 0: // shared factor
			g := mk(1 + rng.Intn(3))
			a.Mul(a, g)
			b.Mul(b, g)
		case 1: // b divides a
			a.Mul(a, b)
		}
		if a.Sign() == 0 || b.Sign() == 0 {
			continue
		}
		want := new(big.Int).GCD(nil, nil, a, b)
		if got := ar.gcd(new(big.Int), a, b); got.Cmp(want) != 0 {
			t.Fatalf("gcd(%s, %s) = %s, want %s", a, b, got, want)
		}
	}
}

// wordOperand builds the operand (a*b)/(c*d) from four int64 words through
// math/big, so two-word numerators and denominators arrive promoted, and
// operands built from common words share factors. ok is false for a zero
// denominator.
func wordOperand(a, b, c, d int64) (rat64, *big.Rat, bool) {
	num := new(big.Int).Mul(big.NewInt(a), big.NewInt(b))
	den := new(big.Int).Mul(big.NewInt(c), big.NewInt(d))
	if den.Sign() == 0 {
		return rat64{}, nil, false
	}
	ref := new(big.Rat).SetFrac(num, den)
	return ratOf(ref), ref, true
}

// addMulBranch names the slow-path branch x + f*y takes, computed with
// math/big alone: "zero-product" when f or y is 0, "zero-sum" when the sum
// cancels, "demoted-product" when f*y fits int64, else "d1=1" when
// gcd(x.den, (f*y).den) == 1 and "d2>1" or "d2=1" by the final gcd.
func addMulBranch(x, f, y *big.Rat) string {
	p := new(big.Rat).Mul(f, y)
	switch {
	case p.Sign() == 0:
		return "zero-product"
	case new(big.Rat).Add(x, p).Sign() == 0:
		return "zero-sum"
	case p.Num().IsInt64() && p.Denom().IsInt64() && p.Num().Int64() != math.MinInt64:
		return "demoted-product"
	}
	d1 := new(big.Int).GCD(nil, nil, x.Denom(), p.Denom())
	if isOne(d1) {
		return "d1=1"
	}
	xd := new(big.Int).Quo(x.Denom(), d1)
	pd := new(big.Int).Quo(p.Denom(), d1)
	t := new(big.Int).Mul(x.Num(), pd)
	t.Add(t, new(big.Int).Mul(p.Num(), xd))
	if d2 := new(big.Int).GCD(nil, nil, t, d1); !isOne(d2) {
		return "d2>1"
	}
	return "d2=1"
}

// checkAddMul compares x + f*y, f*y and x + y against math/big's own Mul and
// Add (not against arith), in hybrid and forced-big mode, and returns the
// slow-path branch the triple exercises.
func checkAddMul(t *testing.T, x, f, y rat64, xr, fr, yr *big.Rat) string {
	t.Helper()
	want := new(big.Rat).Mul(fr, yr)
	want.Add(want, xr)
	for _, force := range []bool{false, true} {
		ar := &arith{forceBig: force}
		checkVal(t, "addMul", ar.addMul(x, f, y), want)
		checkVal(t, "mul", ar.mul(f, y), new(big.Rat).Mul(fr, yr))
		checkVal(t, "add", ar.add(x, y), new(big.Rat).Add(xr, yr))
		if ar.fastOps+ar.bigOps != 3 {
			t.Fatalf("3 ops counted %d fast + %d big", ar.fastOps, ar.bigOps)
		}
		if force && ar.fastOps != 0 {
			t.Fatalf("forceBig run still took %d fast-path ops", ar.fastOps)
		}
	}
	return addMulBranch(xr, fr, yr)
}

// TestRat64AddMulGrid sweeps promoted three-operand triples built from a few
// large primes and small factors, and requires every slow-path branch of the
// fused op to be hit at least once.
func TestRat64AddMulGrid(t *testing.T) {
	const p61, p31 = 1<<61 - 1, 1<<31 - 1 // Mersenne primes
	words := [][4]int64{
		{p61, p31, 1, 1},
		{p61, p61, 3, 1},
		{-p31, 5, p61, 7},
		{3, 7, p61, p31},
		{-p61, p31, 6, 35},
		{2, 5, p61, p31},
		{p61, 11, p31, 15},
		{-5, p31, 3, 7},
		{0, 1, 1, 1},
		{1, 1, 2, p61},
		{p31, p31, 2, p61},
		{-p61, 7, 3, 5},
		{p61, 3, 2, 7},
		{-p61, p31, 3, 7}, // == -(first * next): a zero sum
		{1, 1, 3, 7},
	}
	ops := make([]rat64, len(words))
	refs := make([]*big.Rat, len(words))
	for i, w := range words {
		ops[i], refs[i], _ = wordOperand(w[0], w[1], w[2], w[3])
	}
	hits := make(map[string]int)
	for i := range ops {
		for j := range ops {
			for k := range ops {
				hits[checkAddMul(t, ops[i], ops[j], ops[k], refs[i], refs[j], refs[k])]++
			}
		}
	}
	for _, b := range []string{"zero-product", "zero-sum", "demoted-product", "d1=1", "d2>1", "d2=1"} {
		if hits[b] == 0 {
			t.Errorf("branch %s never exercised (hits %v)", b, hits)
		}
	}
	t.Logf("branch hits: %v", hits)
}

// FuzzRat64AddMul cross-checks the fused x + f*y, f*y and x + y against
// math/big on operands built from four int64 words each. It is the
// reference the slow path answers to: difftest's forced-bigrat lane runs
// the same slow path on both of its sides.
func FuzzRat64AddMul(f *testing.F) {
	const p61, p31 = 1<<61 - 1, 1<<31 - 1
	f.Add(int64(p61), int64(p31), int64(1), int64(1), int64(3), int64(7), int64(p61), int64(p31), int64(-p31), int64(5), int64(p61), int64(7))
	f.Add(int64(-5), int64(p31), int64(3), int64(7), int64(p61), int64(11), int64(p31), int64(15), int64(-p61), int64(p31), int64(6), int64(35))
	f.Add(int64(1), int64(1), int64(2), int64(p61), int64(p61), int64(p61), int64(3), int64(1), int64(2), int64(5), int64(p61), int64(p31))
	f.Add(int64(math.MaxInt64), int64(math.MaxInt64), int64(math.MinInt64), int64(3), int64(math.MinInt64), int64(1), int64(1), int64(math.MaxInt64), int64(0), int64(1), int64(1), int64(1))
	f.Fuzz(func(t *testing.T, xa, xb, xc, xd, fa, fb, fc, fd, ya, yb, yc, yd int64) {
		x, xr, ok1 := wordOperand(xa, xb, xc, xd)
		fv, fr, ok2 := wordOperand(fa, fb, fc, fd)
		y, yr, ok3 := wordOperand(ya, yb, yc, yd)
		if ok1 && ok2 && ok3 {
			checkAddMul(t, x, fv, y, xr, fr, yr)
		}
	})
}
