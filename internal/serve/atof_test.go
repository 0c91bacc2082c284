package serve

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// checkParseNumber holds scanner.float to the two passes it replaced —
// number's grammar, then strconv.ParseFloat on the literal — over data: the
// same verdict and, when both accept, the same end offset and the same bits.
func checkParseNumber(t *testing.T, data []byte) {
	t.Helper()
	ref := scanner{b: data}
	lit, _, ok := ref.number()
	var want float64
	if ok {
		var err error
		want, err = strconv.ParseFloat(string(lit), 64)
		ok = err == nil
	}
	s := scanner{b: data}
	got, gok := s.float()
	if gok != ok {
		t.Fatalf("%q: float ok = %v, number+ParseFloat ok = %v", data, gok, ok)
	}
	if !ok {
		return
	}
	if s.i != ref.i {
		t.Fatalf("%q: float ends at %d, number at %d", data, s.i, ref.i)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%q: float = %v (%#016x), strconv.ParseFloat = %v (%#016x)", data, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// numberEdges are the literals where a hand-rolled conversion goes wrong if
// it goes wrong anywhere: signed zeros, under- and overflow, Clinger's
// limits, the subnormal and max-float boundaries, mantissas either side of
// 19 digits, halfway points (strconv's own, from atof_test.go), and the
// grammar's refusals, which must stop or refuse where number does.
var numberEdges = []string{
	"0", "-0", "0.0", "-0.0", "0e0", "-0E-0", "0e-999", "0e999", "-0e999", "1e999", "-1e999", "1e-999", "-1e-400",
	"9007199254740991", "9007199254740992", "9007199254740993", "-9007199254740993", "9007199254740993e-22",
	"1e22", "1e23", "-1e23", "1e-22", "1e-23", "123456789e22", "8.98846567431158e307",
	"2.2250738585072011e-308", "2.2250738585072012e-308", "2.2250738585072014e-308", "2.225073858507201e-308",
	"4.9e-324", "5e-324", "2.4703282292062328e-324", "2.4703282292062327e-324", "2.4703282292062329e-324",
	"1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308", "-1.7976931348623159e308",
	"4.630813248087435e+307", "22.222222222222222",
	"1234567890123456789", "12345678901234567890", "1234567890123456789012345678901234567890",
	"0.1234567890123456789", "0.12345678901234567890", "0.1234567890123456789012345678901234567890",
	"9999999999999999999", "99999999999999999999", "18446744073709551615", "18446744073709551616",
	"0.00000000000000000000001", "0.00000000000000000000000000000000000000001234567890123456789",
	"0.000000000000000000000000000000000000000000000000000000000000", "10000000000000000000000000000000000000001",
	"1.00000000000000011102230246251565404236316680908203125",
	"1.00000000000000011102230246251565404236316680908203124",
	"1.00000000000000011102230246251565404236316680908203126",
	"1.00000000000000011102230246251565404236316680908203125" + strings.Repeat("0", 100) + "1",
	"1.00000000000000033306690738754696212708950042724609375",
	"1090544144181609348671888949248", "1090544144181609348835077142190",
	"2." + strings.Repeat("2", 400) + "e+1",
	"1e10000", "1e-10000", "1e00000000000000000000000001", "1e+99999999999999999999",
	"01", "-01", "00", "1.", "-.5", ".5", "+1", "-", "", "1e", "1e+", "1E-", "1.e5", "1.5e", "0x10", "NaN", "-Inf",
	" \t\n\r0.5", "1,", "1]", "0.5e-3,", "12345678.12345678,",
}

// randomLiteral writes a literal of the JSON number grammar: up to 40
// digits, a point anywhere among them, and an exponent in [-400, 400].
func randomLiteral(rng *rand.Rand) string {
	var b strings.Builder
	if rng.Intn(2) == 0 {
		b.WriteByte('-')
	}
	digits := make([]byte, 1+rng.Intn(40))
	for i := range digits {
		digits[i] = byte('0' + rng.Intn(10))
	}
	if len(digits) > 1 && rng.Intn(4) == 0 { // runs of zeros, as long mantissas have
		z := rng.Intn(len(digits))
		for i := z; i < len(digits) && i < z+rng.Intn(30); i++ {
			digits[i] = '0'
		}
	}
	point := rng.Intn(len(digits) + 1)
	intPart := strings.TrimLeft(string(digits[:point]), "0")
	if intPart == "" {
		intPart = "0"
	}
	b.WriteString(intPart)
	if point < len(digits) {
		b.WriteByte('.')
		b.Write(digits[point:])
	}
	if rng.Intn(3) > 0 {
		b.WriteString([]string{"e", "E", "e+", "e-"}[rng.Intn(4)])
		b.WriteString(strconv.Itoa(rng.Intn(801) - 400))
	}
	return b.String()
}

// TestParseNumberMatchesStrconv checks scanner.float against number +
// strconv.ParseFloat on the edge table, on the shortest, 'e' and 'f' forms
// of random bit patterns (what clients' encoders write) and on random digit
// strings, each followed by the byte a caller takes next: about three million
// literals (a few seconds), sixty thousand under -short.
func TestParseNumberMatchesStrconv(t *testing.T) {
	for _, lit := range numberEdges {
		checkParseNumber(t, []byte(lit))
	}
	// strconv stops reading an exponent at five digits, so only a fraction
	// as long as the exponent is large tells a reader that does not: this
	// is 0 to strconv, 1 to exact arithmetic.
	checkParseNumber(t, []byte("0."+strings.Repeat("0", 100_000)+"1e100001"))
	checkParseNumber(t, []byte("0."+strings.Repeat("0", 10_050)+"1e100500"))
	n := 600_000
	if testing.Short() {
		n = 12_000
	}
	rng := rand.New(rand.NewSource(43))
	check := func(lit string) { checkParseNumber(t, []byte(lit+"]")) }
	for i := 0; i < n; i++ {
		f := math.Float64frombits(rng.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		check(strconv.FormatFloat(f, 'g', -1, 64))
		check(strconv.FormatFloat(f, 'e', rng.Intn(25)-1, 64))
		if i%8 == 0 { // 'f' of a random pattern runs to hundreds of digits
			check(strconv.FormatFloat(f, 'f', -1, 64))
		}
		check(randomLiteral(rng))
	}
	// The values requests carry: coordinates in the unit cube, shortest form.
	for i := 0; i < n; i++ {
		check(strconv.FormatFloat(rng.Float64(), 'g', -1, 64))
	}
}

// FuzzParseNumber: whatever bytes arrive, scanner.float agrees with number
// + strconv.ParseFloat on the verdict, the end and the bits.
func FuzzParseNumber(f *testing.F) {
	for _, lit := range numberEdges {
		f.Add([]byte(lit))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkParseNumber(t, data) })
}

// The table is strconv's: spot checks at both ends and around 10^0 (the
// differential tests above cover the rest).
func TestPow10sMatchStrconvs(t *testing.T) {
	for _, c := range []struct {
		q      int
		lo, hi uint64
	}{
		{-348, 0x1732C869CD60E453, 0xFA8FD5A0081C0288},
		{-3, 0x645A1CAC083126E9, 0x83126E978D4FDF3B},
		{-2, 0x3D70A3D70A3D70A3, 0xA3D70A3D70A3D70A},
		{-1, 0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC},
		{0, 0x0000000000000000, 0x8000000000000000},
		{347, 0x4B7195F2D2D1A9FB, 0xD13EB46469447567},
	} {
		if got := pow10s[c.q-pow10Min]; got != [2]uint64{c.lo, c.hi} {
			t.Errorf("10^%d: {%#016x, %#016x}, strconv's table {%#016x, %#016x}", c.q, got[0], got[1], c.lo, c.hi)
		}
	}
}

// BenchmarkBuildPow10s is the table's package-init cost.
func BenchmarkBuildPow10s(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = buildPow10s()
	}
}

// BenchmarkParseFloat times one 17-digit literal, the request's common case,
// through scanner.float and through strconv.ParseFloat.
func BenchmarkParseFloat(b *testing.B) {
	lit := []byte("0.12345678901234567")
	b.Run("scanner", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := scanner{b: lit}
			if _, ok := s.float(); !ok {
				b.Fatal("refused")
			}
		}
	})
	b.Run("strconv", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := strconv.ParseFloat(string(lit), 64); err != nil {
				b.Fatal(err)
			}
		}
	})
}
