package smt

import (
	"math/big"
	"math/bits"
)

// The gcds of the rat64 slow path. Its operands are small — mostly one to
// three words — and big.Int.GCD spends more on allocating working copies
// than on arithmetic at that size, so the gcd here runs on registers and on
// the arith context's scratch storage and does not allocate once warm.

// gcd sets z = gcd(|a|, |b|) for nonzero a and b, and returns z. z must not
// alias a or b. A single-word operand — every fast-path value, and most
// cross terms — reduces the other to one word; two operands of at most two
// words take a 128-bit binary gcd, after one Euclid step when the larger is
// longer; longer pairs run Lehmer's algorithm until the smaller fits two
// words.
func (ar *arith) gcd(z, a, b *big.Int) *big.Int {
	if len(a.Bits()) < len(b.Bits()) {
		a, b = b, a
	}
	aw, bw := a.Bits(), b.Bits()
	switch {
	case len(bw) == 1:
		m := uint64(bw[0])
		return z.SetUint64(gcdU64(m, remWord(a, m)))
	case bits.UintSize < 64:
		return z.GCD(nil, nil, a, b)
	case len(bw) > 2:
		return ar.lehmer(z, a, b)
	case len(aw) > 2:
		ar.w.QuoRem(a, b, &ar.gr)
		if ar.gr.Sign() == 0 {
			return z.Abs(b)
		}
		return ar.gcd(z, b, &ar.gr)
	}
	var ah uint64
	if len(aw) == 2 {
		ah = uint64(aw[1])
	}
	hi, lo := gcd128(ah, uint64(aw[0]), uint64(bw[1]), uint64(bw[0]))
	return z.SetBits(append(z.Bits()[:0], big.Word(lo), big.Word(hi)))
}

// lehmer sets z = gcd(|a|, |b|) for operands of at least three words by
// Lehmer's algorithm (Knuth 4.5.2, Algorithm L, with Collins' stopping
// condition, as math/big does it) until the smaller remainder fits two
// words, then finishes in gcd.
func (ar *arith) lehmer(z, a, b *big.Int) *big.Int {
	A, B, T := ar.lr[0].Abs(a), ar.lr[1].Abs(b), &ar.lr[2]
	if A.Cmp(B) < 0 {
		A, B = B, A
	}
	for len(B.Bits()) > 2 {
		u0, u1, v0, v1 := lehmerSimulate(A.Bits(), B.Bits())
		if v0 == 0 {
			// No quotient could be simulated: one Euclid step.
			ar.w.QuoRem(A, B, T)
			A, B, T = B, T, A
			continue
		}
		// The next remainders are |u0*A - v0*B| and |u1*A - v1*B|.
		p := &ar.lp
		p[0].Mul(A, ar.w.SetUint64(u0))
		p[1].Mul(B, ar.w.SetUint64(v0))
		p[2].Mul(A, ar.w.SetUint64(u1))
		p[3].Mul(B, ar.w.SetUint64(v1))
		A.Sub(&p[0], &p[1]).Abs(A)
		B.Sub(&p[2], &p[3]).Abs(B)
	}
	if B.Sign() == 0 {
		return z.Set(A)
	}
	return ar.gcd(z, A, B)
}

// lehmerSimulate runs Euclid on the leading word of A >= B (len(B) >= 2)
// and returns the magnitudes of the cosequences: the remainders after the
// simulated steps are |u0*A - v0*B| and |u1*A - v1*B|. v0 == 0 means no
// step could be simulated.
func lehmerSimulate(A, B []big.Word) (u0, u1, v0, v1 uint64) {
	m, n := len(B), len(A)
	h := uint(bits.LeadingZeros64(uint64(A[n-1])))
	a1 := uint64(A[n-1])<<h | uint64(A[n-2])>>(64-h)
	var a2 uint64 // B's bits at the same position; 0 when B is 2+ words shorter
	switch {
	case n == m:
		a2 = uint64(B[n-1])<<h | uint64(B[n-2])>>(64-h)
	case n == m+1:
		a2 = uint64(B[n-2]) >> (64 - h)
	}
	var u2, v2 uint64
	u0, u1, u2 = 0, 1, 0
	v0, v1, v2 = 0, 0, 1
	for a2 >= v2 && a1-a2 >= v1+v2 {
		q, r := a1/a2, a1%a2
		a1, a2 = a2, r
		u0, u1, u2 = u1, u2, u1+q*u2
		v0, v1, v2 = v1, v2, v1+q*v2
	}
	return
}

// gcdU64 returns the greatest common divisor of two uint64s. It is a binary
// gcd rather than gcd64's division loop: its operands are full words, where
// shifts and subtractions beat dozens of 64-bit divisions.
func gcdU64(a, b uint64) uint64 {
	if a == 0 {
		return b
	}
	if b == 0 {
		return a
	}
	k := bits.TrailingZeros64(a | b)
	a >>= bits.TrailingZeros64(a)
	for b != 0 {
		b >>= bits.TrailingZeros64(b)
		if a > b {
			a, b = b, a
		}
		b -= a
	}
	return a << k
}

// remWord returns |a| mod m for a nonzero single-word m, one word of a at a
// time, without allocating.
func remWord(a *big.Int, m uint64) uint64 {
	var r uint64
	ws := a.Bits()
	for i := len(ws) - 1; i >= 0; i-- {
		if bits.UintSize == 64 {
			r = bits.Rem64(r, uint64(ws[i]), m)
		} else {
			r = (r<<32 | uint64(ws[i])) % m
		}
	}
	return r
}

// gcd128 returns the gcd of two nonzero 128-bit values given as (hi, lo)
// word pairs: a binary gcd that finishes in gcdU64 once both fit one word.
func gcd128(ah, al, bh, bl uint64) (hi, lo uint64) {
	k := min(tz128(ah, al), tz128(bh, bl))
	ah, al = shr128(ah, al, tz128(ah, al))
	for ah != 0 || bh != 0 {
		if bh|bl == 0 {
			return shl128(ah, al, k)
		}
		// a is odd; make b odd, order a <= b, and subtract.
		bh, bl = shr128(bh, bl, tz128(bh, bl))
		if ah > bh || (ah == bh && al > bl) {
			ah, al, bh, bl = bh, bl, ah, al
		}
		var borrow uint64
		bl, borrow = bits.Sub64(bl, al, 0)
		bh, _ = bits.Sub64(bh, ah, borrow)
	}
	return shl128(0, gcdU64(al, bl), k)
}

func tz128(h, l uint64) int {
	if l != 0 {
		return bits.TrailingZeros64(l)
	}
	return 64 + bits.TrailingZeros64(h)
}

// shr128 and shl128 shift a 128-bit value by s < 128 bits (Go defines a
// shift by 64 or more as 0, so s == 0 needs no special case).
func shr128(h, l uint64, s int) (uint64, uint64) {
	if s >= 64 {
		return 0, h >> (s - 64)
	}
	return h >> s, l>>s | h<<(64-s)
}

func shl128(h, l uint64, s int) (uint64, uint64) {
	if s >= 64 {
		return l << (s - 64), 0
	}
	return h<<s | l>>(64-s), l << s
}

// isOne reports whether a non-negative big.Int is 1.
func isOne(x *big.Int) bool {
	ws := x.Bits()
	return len(ws) == 1 && ws[0] == 1
}
