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
// representation used by Yices and Z3. Grid coefficients are almost always
// small (RatFromFloat caps denominators at 1e7), so in practice the vast
// majority of simplex operations never leave the int64 path; the arith
// counters prove it at run time (Solver.Stats).
//
// Invariants:
//   - promoted == nil: the value is num/den with den > 0, gcd(|num|,den) == 1
//     (num == 0 implies den == 1), and |num|,den < 2^63 (MinInt64 excluded so
//     negation can never overflow);
//   - promoted != nil: the value is *promoted, and the big.Rat is IMMUTABLE
//     from the moment it is stored — every operation allocates a fresh result
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
	return big.NewRat(r.num, r.den)
}

// bigRef returns a read-only view of r as a big.Rat for use as an operand.
// The caller must not mutate the result; use toBig for an owned copy.
func (r rat64) bigRef(scratch *big.Rat) *big.Rat {
	if r.promoted != nil {
		return r.promoted
	}
	scratch.SetFrac64(r.num, r.den)
	return scratch
}

// r64FromInt returns the rat64 for an integer.
func r64FromInt(n int64) rat64 {
	if n == math.MinInt64 {
		return rat64{promoted: new(big.Rat).SetInt64(n)}
	}
	return rat64{num: n, den: 1}
}

// r64FromBig converts a big.Rat, demoting to the fast path when numerator
// and denominator fit. The input is not retained.
func r64FromBig(x *big.Rat) rat64 {
	if n, d := x.Num(), x.Denom(); n.IsInt64() && d.IsInt64() {
		ni, di := n.Int64(), d.Int64()
		if ni != math.MinInt64 && di != math.MinInt64 {
			// big.Rat is already normalized with a positive denominator.
			return rat64{num: ni, den: di}
		}
	}
	return rat64{promoted: new(big.Rat).Set(x)}
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
// fast-path/fallback counters and the forceBig switch the differential
// harness uses to route every operation through big.Rat.
type arith struct {
	fastOps  int64 // operations completed entirely on the int64 path
	bigOps   int64 // operations that touched big.Rat (promotion or fallback)
	forceBig bool  // route everything through big.Rat (difftest A/B knob)

	sx, sy, sz big.Rat // slow-path operand views and result scratch
}

// demoteOrCopy converts a scratch-held result into a rat64: demoted when it
// fits int64, otherwise copied into fresh immutable promoted storage (the
// scratch itself is reused by the next slow-path op).
func (ar *arith) demoteOrCopy(x *big.Rat) rat64 {
	if n, d := x.Num(), x.Denom(); n.IsInt64() && d.IsInt64() {
		ni, di := n.Int64(), d.Int64()
		if ni != math.MinInt64 && di != math.MinInt64 {
			return rat64{num: ni, den: di}
		}
	}
	return rat64{promoted: new(big.Rat).Set(x)}
}

// bigBin runs the big.Rat slow path for a binary operation, computing into
// the context's scratch storage: one allocation at most (the promoted copy),
// none when the result demotes back to int64.
func (ar *arith) bigBin(x, y rat64, op func(z, a, b *big.Rat) *big.Rat) rat64 {
	ar.bigOps++
	z := op(&ar.sz, x.bigRef(&ar.sx), y.bigRef(&ar.sy))
	return ar.demoteOrCopy(z)
}

// addMul returns x + f*y as one fused operation: the hot inner step of row
// merges and assignment updates. On the slow path the product is computed
// into scratch so the whole op allocates at most once.
func (ar *arith) addMul(x, f, y rat64) rat64 {
	if x.promoted == nil && f.promoted == nil && y.promoted == nil && !ar.forceBig {
		if f.num == 0 || y.num == 0 {
			ar.fastOps++
			return x
		}
		// Cross-reduce the product, then a gcd-reduced add; any overflow
		// falls through to the fused big.Rat path.
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
	ar.bigOps++
	z := &ar.sz
	z.Mul(f.bigRef(&ar.sx), y.bigRef(&ar.sy))
	z.Add(z, x.bigRef(&ar.sx))
	return ar.demoteOrCopy(z)
}

// add returns x + y.
func (ar *arith) add(x, y rat64) rat64 {
	if x.promoted != nil || y.promoted != nil || ar.forceBig {
		return ar.bigBin(x, y, (*big.Rat).Add)
	}
	// Knuth 4.5.1: reduce by gcd of the denominators first so intermediates
	// stay as small as possible.
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
	return ar.bigBin(x, y, (*big.Rat).Add)
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
	if x.promoted != nil || y.promoted != nil || ar.forceBig {
		return ar.bigBin(x, y, (*big.Rat).Mul)
	}
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
	return ar.bigBin(x, y, (*big.Rat).Mul)
}

// div returns x / y; y must be nonzero.
func (ar *arith) div(x, y rat64) rat64 {
	return ar.mul(x, ar.inv(y))
}

// inv returns 1/x; x must be nonzero.
func (ar *arith) inv(x rat64) rat64 {
	if x.promoted != nil || ar.forceBig {
		ar.bigOps++
		return ar.demoteOrCopy(ar.sz.Inv(x.bigRef(&ar.sx)))
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
