package serve

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
)

// This file is the conversion half of scanner.float: from a decimal
// mantissa of at most 19 digits and a power of ten to the nearest float64,
// by the two exact algorithms strconv.ParseFloat itself runs after its scan —
// Clinger's fast path, then Eisel–Lemire (Lemire, "Number Parsing at a
// Gigabyte per Second", SPE 2021) over 128-bit powers of ten. Each either
// returns the correctly rounded value, which is strconv's bit for bit, or
// declines; a declined literal goes to strconv.ParseFloat.

// pow10Min and pow10Max bound the exponents Eisel–Lemire accepts, as they
// bound strconv's table: every power of ten a 19-digit mantissa needs to
// reach a normal float64, and then some.
const (
	pow10Min = -348
	pow10Max = 347
)

// pow10s[q-pow10Min] is {lo, hi}: the top 128 bits of 10^q, shifted so the
// high bit of hi is set and rounded down: strconv's own table. Built at
// package init (≈ 0.1 ms, BenchmarkBuildPow10s), so that no request — the
// first included — pays for it.
var pow10s = buildPow10s()

// buildPow10s takes the top 128 bits of 5^q, which are 10^q's: the factor
// 2^q only moves the binary point. For q >= 0 that is 5^q itself, one
// multiply by 5 per step; for q < 0 it is floor(2^1024 / 5^-q), one
// division by 5 per step, since floor(floor(a/b)/c) = floor(a/(bc)).
// 2^1024 / 5^348 still has more than 128 bits.
func buildPow10s() (t [pow10Max - pow10Min + 1][2]uint64) {
	five, top := big.NewInt(5), new(big.Int)
	put := func(q int, x *big.Int) {
		if n := x.BitLen() - 128; n >= 0 {
			top.Rsh(x, uint(n))
		} else {
			top.Lsh(x, uint(-n))
		}
		lo := top.Uint64()
		t[q-pow10Min] = [2]uint64{lo, top.Rsh(top, 64).Uint64()}
	}
	p := big.NewInt(1)
	for q := 0; q <= pow10Max; q++ {
		put(q, p)
		p.Mul(p, five)
	}
	p.Lsh(big.NewInt(1), 1024)
	for q := -1; q >= pow10Min; q-- {
		put(q, p.Quo(p, five))
	}
	return t
}

// exactPow10 holds the powers of ten a float64 represents exactly.
var exactPow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// decimalToFloat returns ±man·10^exp10 correctly rounded, or false when
// neither exact path can tell: a subnormal or overflowing result, an
// exponent outside the table, or a product too close to a halfway point.
func decimalToFloat(man uint64, exp10 int, neg bool) (float64, bool) {
	if man == 0 {
		if neg {
			return math.Copysign(0, -1), true
		}
		return 0, true
	}
	// Clinger: an exact mantissa times or over an exact power of ten is one
	// correctly rounded operation.
	if man <= 1<<53 && -22 <= exp10 && exp10 <= 22 {
		f := float64(man)
		if neg {
			f = -f
		}
		if exp10 >= 0 {
			return f * exactPow10[exp10], true
		}
		return f / exactPow10[-exp10], true
	}
	return eiselLemire(man, exp10, neg)
}

// eiselLemire is strconv's eiselLemire64 over this file's table: the
// normalised mantissa times the truncated 128-bit power of ten, widened to
// 192 bits when the top 128 might carry, and a decline wherever the
// truncation leaves the rounding direction in doubt.
func eiselLemire(man uint64, exp10 int, neg bool) (float64, bool) {
	if exp10 < pow10Min || exp10 > pow10Max {
		return 0, false
	}
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const bias = 1023
	retExp2 := uint64(217706*exp10>>16+64+bias) - uint64(clz) // 217706/2^16 ≈ log2(10)

	pow := &pow10s[exp10-pow10Min]
	xHi, xLo := bits.Mul64(man, pow[1])
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, pow[0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	// Down to 54 bits, then round half to even down to 53.
	msb := xHi >> 63
	retMan := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb
	if xLo == 0 && xHi&0x1FF == 0 && retMan&3 == 1 {
		return 0, false // halfway, or just off it by less than the truncation
	}
	retMan += retMan & 1
	retMan >>= 1
	if retMan>>53 > 0 {
		retMan >>= 1
		retExp2++
	}
	if retExp2-1 >= 0x7FF-1 { // subnormal, zero, infinite: strconv's call
		return 0, false
	}
	b := retExp2<<52 | retMan&(1<<52-1)
	if neg {
		b |= 1 << 63
	}
	return math.Float64frombits(b), true
}

// eightDigits reports whether the eight bytes at b[i:] are all decimal
// digits, and if so their value: one load, one range check of every byte
// and three multiplies (SWAR, bytes as lanes of one uint64).
func eightDigits(b []byte, i int) (uint64, bool) {
	if len(b)-i < 8 {
		return 0, false
	}
	v := binary.LittleEndian.Uint64(b[i:])
	// A byte is a digit when its high nibble is 3 and stays 3 plus 6.
	if v&0xF0F0F0F0F0F0F0F0|(v+0x0606060606060606)&0xF0F0F0F0F0F0F0F0>>4 != 0x3333333333333333 {
		return 0, false
	}
	v -= 0x3030303030303030
	v = v*10 + v>>8 // pairs: byte 2k holds digits 2k and 2k+1 as a number
	const mask, mul1, mul2 = 0x000000FF000000FF, 100 + 1000000<<32, 1 + 10000<<32
	return (v&mask*mul1 + v>>16&mask*mul2) >> 32, true
}
