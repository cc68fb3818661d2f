package smt

import (
	"math"
	"math/big"
	"math/bits"
)

// rat64 is a hybrid exact rational: the fast path is an int64
// numerator/denominator pair (den > 0, fully reduced, and never MinInt64 in
// magnitude), and any operation whose intermediate products would overflow
// transparently promotes the result to a big.Rat — the machine-rational
// representation used by Yices and Z3. Grid coefficients are small
// (RatFromFloat caps denominators at 1e7), so topology-only models stay on
// the int64 path; state-infection models do not: their pivots multiply
// denominators together, and in the Fig. 4(b) synth30 sweep 39% of all ops
// touch big.Rat. The slow path is therefore built like GMP's mpq_mul and
// mpq_add (Knuth, TAOCP 4.5.1): each op reduces by gcds of small operands
// and writes an already-reduced fraction, so no full-size cross product is
// ever normalised. The arith counters report the split at run time
// (Solver.Stats).
//
// Invariants:
//   - promoted == nil: the value is num/den with den > 0, gcd(|num|,den) == 1
//     (num == 0 implies den == 1), and |num|,den < 2^63 (MinInt64 excluded so
//     negation can never overflow);
//   - promoted != nil: the value is *promoted, reduced with a positive
//     denominator, and does not fit the fast path. The big.Rat is IMMUTABLE
//     from the moment it is stored — every operation writes a fresh result
//     rational, so promoted values may be shared freely.
type rat64 struct {
	num, den int64
	promoted *big.Rat
}

// isBig reports whether the value lives on the big.Rat slow path.
func (r rat64) isBig() bool { return r.promoted != nil }

// Sign returns -1, 0, or +1. Allocation-free on both paths.
func (r rat64) Sign() int {
	if r.promoted != nil {
		return r.promoted.Sign()
	}
	switch {
	case r.num > 0:
		return 1
	case r.num < 0:
		return -1
	}
	return 0
}

// IsZero reports whether the value is exactly zero.
func (r rat64) IsZero() bool { return r.Sign() == 0 }

// toBig returns a freshly allocated big.Rat with r's value. The result is
// owned by the caller (promoted storage is never handed out directly, so the
// immutability invariant cannot be broken from outside).
func (r rat64) toBig() *big.Rat {
	if r.promoted != nil {
		return new(big.Rat).Set(r.promoted)
	}
	return r.setBig(new(big.Rat))
}

// bigRef returns a read-only view of r as a big.Rat for use as an operand.
// The caller must not mutate the result; use toBig for an owned copy.
func (r rat64) bigRef(scratch *big.Rat) *big.Rat {
	if r.promoted != nil {
		return r.promoted
	}
	return r.setBig(scratch)
}

// setBig writes a fast-path value into z. The pair is already reduced, so
// numerator and denominator are set directly (SetFrac64 would re-run a gcd).
// SetInt64 comes first: it initialises z's denominator, which makes Denom a
// reference rather than a copy.
func (r rat64) setBig(z *big.Rat) *big.Rat {
	z.SetInt64(r.num)
	z.Denom().SetInt64(r.den)
	return z
}

// r64FromInt returns the rat64 for an integer.
func r64FromInt(n int64) rat64 {
	if n == math.MinInt64 {
		return rat64{promoted: new(big.Rat).SetInt64(n)}
	}
	return rat64{num: n, den: 1}
}

// r64FromFrac returns the rat64 of the reduced fraction num/den (den > 0):
// demoted to the fast path when both fit, otherwise written into fresh
// immutable promoted storage with no second normalisation. The inputs are
// not retained, so they may be scratch or a big.Rat's Num/Denom.
func r64FromFrac(num, den *big.Int) rat64 {
	if num.IsInt64() && den.IsInt64() {
		if n, d := num.Int64(), den.Int64(); n != math.MinInt64 && d != math.MinInt64 {
			return rat64{num: n, den: d}
		}
	}
	z := new(big.Rat).SetInt(num)
	z.Denom().Set(den)
	return rat64{promoted: z}
}

// gcd64 returns the greatest common divisor of two non-negative int64s.
func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// mulChecked multiplies two int64s, reporting ok=false on overflow. Results
// of magnitude 2^63 (MinInt64) are treated as overflow so the fast path
// never holds a value whose negation overflows.
func mulChecked(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	au, bu := absU64(a), absU64(b)
	hi, lo := bits.Mul64(au, bu)
	if hi != 0 || lo > math.MaxInt64 {
		return 0, false
	}
	if (a < 0) != (b < 0) {
		return -int64(lo), true
	}
	return int64(lo), true
}

// addChecked adds two int64s, reporting ok=false on overflow (including a
// MinInt64 result).
func addChecked(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s <= 0) || (a < 0 && b < 0 && s >= 0) || s == math.MinInt64 {
		return 0, false
	}
	return s, true
}

func absU64(a int64) uint64 {
	if a < 0 {
		return uint64(-uint64(a))
	}
	return uint64(a)
}

// arith is the arithmetic context of one simplex instance: it owns the
// fast-path/fallback counters, the forceBig switch the differential
// harness uses to route every operation through big.Rat, and the slow
// path's scratch storage.
type arith struct {
	fastOps  int64 // operations completed entirely on the int64 path
	bigOps   int64 // operations that touched big.Rat (promotion or fallback)
	forceBig bool  // route everything through big.Rat (difftest A/B knob)

	sx, sy, sz big.Rat // slow-path views of fast-path operands; sy also holds inv's result
	// Slow-path intermediates. Results are copied out into fresh storage
	// (r64FromFrac), so these are reused by every op.
	g1, g2, t, u, q big.Int    // gcds, exact quotients and sum terms
	pn, pd          big.Int    // mulFrac's reduced product
	gr              big.Int    // gcd's Euclid remainder
	lr              [3]big.Int // lehmer's rotating remainders
	lp              [4]big.Int // lehmer's cosequence products
	w               big.Int    // throwaway: discarded quotients and remainders, one-word factors
}

// quoExact returns a/g for a divisor g of a: a itself when g is 1, else the
// quotient written into z.
func (ar *arith) quoExact(z, a, g *big.Int) *big.Int {
	if isOne(g) {
		return a
	}
	z.QuoRem(a, g, &ar.w)
	return z
}

// mulFrac sets ar.pn/ar.pd to the product of two nonzero reduced fractions
// an/ad * bn/bd as mpq_mul does: with g1 = gcd(an, bd) and g2 = gcd(bn, ad)
// divided out first, (an/g1)(bn/g2) / ((ad/g2)(bd/g1)) is already reduced.
func (ar *arith) mulFrac(an, ad, bn, bd *big.Int) {
	g1 := ar.gcd(&ar.g1, an, bd)
	g2 := ar.gcd(&ar.g2, bn, ad)
	ar.pn.Mul(ar.quoExact(&ar.t, an, g1), ar.quoExact(&ar.u, bn, g2))
	ar.pd.Mul(ar.quoExact(&ar.t, ad, g2), ar.quoExact(&ar.u, bd, g1))
}

// addFrac returns an/ad + bn/bd for reduced fractions as mpq_add does. With
// d1 = gcd(ad, bd) == 1, (an*bd + bn*ad) / (ad*bd) is already reduced.
// Otherwise t = an*(bd/d1) + bn*(ad/d1) can share only a factor of d1 with
// the denominator, so one gcd d2 = gcd(t, d1) on the small operand d1
// finishes the job. bn/bd may be ar.pn/ar.pd: they are read, never written.
func (ar *arith) addFrac(an, ad, bn, bd *big.Int) rat64 {
	d1 := ar.gcd(&ar.g1, ad, bd)
	if isOne(d1) {
		t := ar.t.Mul(an, bd)
		t.Add(t, ar.u.Mul(bn, ad))
		if t.Sign() == 0 {
			return rat64{num: 0, den: 1}
		}
		return r64FromFrac(t, ar.u.Mul(ad, bd))
	}
	t := ar.t.Mul(an, ar.quoExact(&ar.q, bd, d1))
	ad1 := ar.quoExact(&ar.g2, ad, d1)
	t.Add(t, ar.u.Mul(bn, ad1))
	if t.Sign() == 0 {
		return rat64{num: 0, den: 1}
	}
	d2 := ar.gcd(&ar.q, t, d1)
	num := ar.quoExact(&ar.u, t, d2)
	den := ar.q.Mul(ad1, ar.quoExact(&ar.g1, bd, d2))
	return r64FromFrac(num, den)
}

// addMul returns x + f*y as one fused operation: the hot inner step of row
// merges and assignment updates.
func (ar *arith) addMul(x, f, y rat64) rat64 {
	if x.promoted == nil && f.promoted == nil && y.promoted == nil && !ar.forceBig {
		if f.num == 0 || y.num == 0 {
			ar.fastOps++
			return x
		}
		// Cross-reduce the product, then a gcd-reduced add; any overflow
		// falls through to the slow path.
		g1 := gcd64(absI64(f.num), y.den)
		g2 := gcd64(absI64(y.num), f.den)
		pn, ok1 := mulChecked(f.num/g1, y.num/g2)
		pd, ok2 := mulChecked(f.den/g2, y.den/g1)
		if ok1 && ok2 {
			g := gcd64(x.den, pd)
			db, dd := x.den/g, pd/g
			t1, ok3 := mulChecked(x.num, dd)
			t2, ok4 := mulChecked(pn, db)
			t, ok5 := addChecked(t1, t2)
			if ok3 && ok4 && ok5 {
				g2 := gcd64(absI64(t), g)
				if g2 == 0 {
					g2 = 1
				}
				if den, ok := mulChecked(db, pd/g2); ok {
					ar.fastOps++
					if t == 0 {
						return rat64{num: 0, den: 1}
					}
					return rat64{num: t / g2, den: den}
				}
			}
		}
	}
	// Slow path: the product as mpq_mul, then the sum as mpq_add.
	ar.bigOps++
	if f.Sign() == 0 || y.Sign() == 0 {
		return x
	}
	fv, yv := f.bigRef(&ar.sy), y.bigRef(&ar.sz)
	ar.mulFrac(fv.Num(), fv.Denom(), yv.Num(), yv.Denom())
	if x.Sign() == 0 {
		return r64FromFrac(&ar.pn, &ar.pd)
	}
	xv := x.bigRef(&ar.sx)
	return ar.addFrac(xv.Num(), xv.Denom(), &ar.pn, &ar.pd)
}

// add returns x + y.
func (ar *arith) add(x, y rat64) rat64 {
	if x.promoted == nil && y.promoted == nil && !ar.forceBig {
		// Knuth 4.5.1: reduce by gcd of the denominators first so
		// intermediates stay as small as possible.
		g := gcd64(x.den, y.den)
		db, dd := x.den/g, y.den/g
		t1, ok1 := mulChecked(x.num, dd)
		t2, ok2 := mulChecked(y.num, db)
		t, ok3 := addChecked(t1, t2)
		if ok1 && ok2 && ok3 {
			g2 := gcd64(absI64(t), g)
			if g2 == 0 {
				g2 = 1
			}
			if den, ok := mulChecked(db, y.den/g2); ok {
				ar.fastOps++
				if t == 0 {
					return rat64{num: 0, den: 1}
				}
				return rat64{num: t / g2, den: den}
			}
		}
	}
	ar.bigOps++
	switch {
	case x.Sign() == 0:
		return y
	case y.Sign() == 0:
		return x
	}
	xv, yv := x.bigRef(&ar.sx), y.bigRef(&ar.sy)
	return ar.addFrac(xv.Num(), xv.Denom(), yv.Num(), yv.Denom())
}

// sub returns x - y.
func (ar *arith) sub(x, y rat64) rat64 {
	return ar.add(x, ar.neg(y))
}

// neg returns -x. Fast-path values never hold MinInt64, so this cannot
// overflow; it is not counted as an operation.
func (ar *arith) neg(x rat64) rat64 {
	if x.promoted != nil {
		return rat64{promoted: new(big.Rat).Neg(x.promoted)}
	}
	return rat64{num: -x.num, den: x.den}
}

// abs returns |x|.
func (ar *arith) abs(x rat64) rat64 {
	if x.Sign() < 0 {
		return ar.neg(x)
	}
	return x
}

// mul returns x * y.
func (ar *arith) mul(x, y rat64) rat64 {
	if x.promoted == nil && y.promoted == nil && !ar.forceBig {
		if x.num == 0 || y.num == 0 {
			ar.fastOps++
			return rat64{num: 0, den: 1}
		}
		// Cross-reduce before multiplying (keeps products minimal).
		g1 := gcd64(absI64(x.num), y.den)
		g2 := gcd64(absI64(y.num), x.den)
		n, ok1 := mulChecked(x.num/g1, y.num/g2)
		d, ok2 := mulChecked(x.den/g2, y.den/g1)
		if ok1 && ok2 {
			ar.fastOps++
			return rat64{num: n, den: d}
		}
	}
	ar.bigOps++
	if x.Sign() == 0 || y.Sign() == 0 {
		return rat64{num: 0, den: 1}
	}
	xv, yv := x.bigRef(&ar.sx), y.bigRef(&ar.sy)
	ar.mulFrac(xv.Num(), xv.Denom(), yv.Num(), yv.Denom())
	return r64FromFrac(&ar.pn, &ar.pd)
}

// div returns x / y; y must be nonzero.
func (ar *arith) div(x, y rat64) rat64 {
	return ar.mul(x, ar.inv(y))
}

// inv returns 1/x; x must be nonzero.
func (ar *arith) inv(x rat64) rat64 {
	if x.promoted != nil || ar.forceBig {
		ar.bigOps++
		z := ar.sy.Inv(x.bigRef(&ar.sx))
		return r64FromFrac(z.Num(), z.Denom())
	}
	ar.fastOps++
	if x.num < 0 {
		return rat64{num: -x.den, den: -x.num}
	}
	return rat64{num: x.den, den: x.num}
}

// cmp compares x and y, returning -1, 0, or +1. The fast path is
// allocation-free even when the cross products exceed 64 bits (128-bit
// magnitude comparison via bits.Mul64).
func (ar *arith) cmp(x, y rat64) int {
	if x.promoted == nil && y.promoted == nil && !ar.forceBig {
		ar.fastOps++
		sx, sy := x.Sign(), y.Sign()
		if sx != sy {
			if sx < sy {
				return -1
			}
			return 1
		}
		if sx == 0 {
			return 0
		}
		// Same nonzero sign: compare |x.num|*y.den vs |y.num|*x.den in 128
		// bits, flipping the answer for negatives.
		hi1, lo1 := bits.Mul64(absU64(x.num), uint64(y.den))
		hi2, lo2 := bits.Mul64(absU64(y.num), uint64(x.den))
		c := 0
		switch {
		case hi1 != hi2:
			if hi1 < hi2 {
				c = -1
			} else {
				c = 1
			}
		case lo1 != lo2:
			if lo1 < lo2 {
				c = -1
			} else {
				c = 1
			}
		}
		if sx < 0 {
			return -c
		}
		return c
	}
	ar.bigOps++
	return x.bigRef(&ar.sx).Cmp(y.bigRef(&ar.sy))
}

// equal reports x == y.
func (ar *arith) equal(x, y rat64) bool { return ar.cmp(x, y) == 0 }

func absI64(a int64) int64 {
	if a < 0 {
		return -a
	}
	return a
}

// drat64 is a delta-rational a + b*delta over hybrid rationals — the
// simplex-internal counterpart of the public DRat type. The zero value is 0.
type drat64 struct {
	a, b rat64
}

func d64FromInt(n int64) drat64 { return drat64{a: r64FromInt(n), b: r64FromInt(0)} }

// substitute returns the plain rational value for a concrete positive delta.
func (d drat64) substitute(delta *big.Rat) *big.Rat {
	out := d.b.toBig()
	out.Mul(out, delta)
	return out.Add(out, d.a.toBig())
}

// dcmp compares lexicographically ((a, b) order), matching the order of
// a + b*delta for infinitesimal positive delta.
func (ar *arith) dcmp(x, y drat64) int {
	if c := ar.cmp(x.a, y.a); c != 0 {
		return c
	}
	return ar.cmp(x.b, y.b)
}

// dadd returns x + y.
func (ar *arith) dadd(x, y drat64) drat64 {
	return drat64{a: ar.add(x.a, y.a), b: ar.add(x.b, y.b)}
}

// dsub returns x - y.
func (ar *arith) dsub(x, y drat64) drat64 {
	return drat64{a: ar.sub(x.a, y.a), b: ar.sub(x.b, y.b)}
}

// dscale returns c * x.
func (ar *arith) dscale(x drat64, c rat64) drat64 {
	return drat64{a: ar.mul(x.a, c), b: ar.mul(x.b, c)}
}

// daddScaled returns x + c*y (fused, see addMul).
func (ar *arith) daddScaled(x drat64, c rat64, y drat64) drat64 {
	return drat64{a: ar.addMul(x.a, c, y.a), b: ar.addMul(x.b, c, y.b)}
}
