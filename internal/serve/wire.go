package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strconv"

	"nbody"
)

// This file is the particle arrays' way between the wire and the solver's
// layout: a strict scanner that parses a request body straight into one
// []nbody.Vec3 and one []float64, and an append encoder that writes such
// arrays with encoding/json's bytes. Neither defines the protocol: what the
// scanner does not recognise it does not judge — the same bytes go through
// encoding/json (decodeSolveRequest / decodeSimulateRequest), which remains
// the definition of the accepted language and of every error a client sees.
// A float is checked and converted in one pass over its bytes (float, with
// atof.go's exact conversions), to the bits strconv.ParseFloat — and so
// encoding/json — gives it.
// Nothing here is pooled or kept between requests: exactly sized fresh
// buffers measured the same latency as pooled ones, and a smaller heap.

// maxDeclared bounds how much of a declared Content-Length is allocated
// before a byte has arrived; a longer body grows the buffer as it comes.
const maxDeclared = 4 << 20

// ReadBody is io.ReadAll — same bytes, same error — into a buffer sized once
// from the declared Content-Length (the slack is the room ReadFrom wants for
// the read that reports EOF). An absent (<= 0) or wrong length only means
// the buffer grows the way io.ReadAll's does.
func ReadBody(r io.Reader, declared int64) ([]byte, error) {
	var b bytes.Buffer
	b.Grow(int(min(max(declared, 0), maxDeclared)) + bytes.MinRead)
	_, err := b.ReadFrom(r)
	return b.Bytes(), err
}

// errReader ends a replayed body with the error its first reading ended in.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// scanner is a cursor over one buffered body. Each method consumes a token of
// the one shape it accepts and reports false on anything else; false never
// means "bad request", only "not mine".
type scanner struct {
	b []byte
	i int
}

// skip consumes c when it is the next byte.
func (s *scanner) skip(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// word consumes the bare word w when it comes next.
func (s *scanner) word(w string) bool {
	if bytes.HasPrefix(s.b[s.i:], []byte(w)) {
		s.i += len(w)
		return true
	}
	return false
}

// ws skips JSON whitespace: one compare when the next byte is a token's.
func (s *scanner) ws() {
	if s.i < len(s.b) && s.b[s.i] > ' ' {
		return
	}
	for s.skip(' ') || s.skip('\n') || s.skip('\t') || s.skip('\r') {
	}
}

// eat skips whitespace, then consumes c when it comes next.
func (s *scanner) eat(c byte) bool {
	s.ws()
	return s.skip(c)
}

// str consumes a string of plain ASCII — no escapes, no control bytes,
// nothing encoding/json would rewrite — and returns its contents.
func (s *scanner) str() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	for start := s.i; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// digits consumes a run of decimal digits and reports whether there was one.
func (s *scanner) digits() bool {
	b, i := s.b, s.i // in registers: this loop sees most of a body's bytes
	for i < len(b) && b[i]-'0' <= 9 {
		i++
	}
	start := s.i
	s.i = i
	return i > start
}

// number consumes one literal of the JSON number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and reports whether it is
// an integer (neither fraction nor exponent). What follows the literal is the
// caller's to accept: "01", "1." and "+1" end in a byte no caller takes.
func (s *scanner) number() (lit []byte, integer, ok bool) {
	s.ws()
	start := s.i
	s.skip('-')
	if !s.skip('0') && !s.digits() {
		return nil, false, false
	}
	integer = true
	if s.skip('.') {
		if integer = false; !s.digits() {
			return nil, false, false
		}
	}
	if s.skip('e') || s.skip('E') {
		_ = s.skip('+') || s.skip('-')
		if integer = false; !s.digits() {
			return nil, false, false
		}
	}
	return s.b[start:s.i], integer, true
}

// float consumes one literal of number's grammar and converts it in the same
// pass to the float64 strconv.ParseFloat returns for it, which is what
// encoding/json stores. The first 19 significant digits fold into a uint64,
// eight at a time where eight digits follow, and decimalToFloat converts
// them exactly; a literal it declines, or whose digits past the 19th are not
// all zeros, goes to strconv.ParseFloat, whose range error is a refusal.
// What it consumes, and what it refuses, is number's.
func (s *scanner) float() (float64, bool) {
	s.ws()
	b, i := s.b, s.i
	start := i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	var m mantissa
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i]-'1' <= 8:
		i = m.digits(b, i, false)
	default:
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		j := m.digits(b, i+1, true)
		if j == i+1 {
			return 0, false
		}
		i = j
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		eneg := i < len(b) && b[i] == '-'
		if i < len(b) && (eneg || b[i] == '+') {
			i++
		}
		e, j := 0, i
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			if e < 10000 { // strconv's cap, so that both read the same exponent
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == j {
			return 0, false
		}
		if eneg {
			e = -e
		}
		m.exp10 += e
	}
	s.i = i
	if !m.cut {
		if f, ok := decimalToFloat(m.man, m.exp10, neg); ok {
			return f, true
		}
	}
	f, err := strconv.ParseFloat(string(b[start:i]), 64)
	return f, err == nil
}

// mantissa is a decimal literal's value as far as float reads it:
// man·10^exp10, man its first 19 significant digits.
type mantissa struct {
	man   uint64
	nd    int  // digits in man, leading zeros not counted
	exp10 int  // where the decimal point sits relative to man's last digit
	cut   bool // a nonzero digit past the 19th was dropped
}

// digits folds the run of digits at b[i:] into m and returns the index past
// it. The folded digits of a fraction move the point left; the dropped ones
// of an integer part move it right.
func (m *mantissa) digits(b []byte, i int, frac bool) int {
	start := i
	if m.man == 0 { // a fraction's leading zeros, after "0."
		for i < len(b) && b[i] == '0' {
			i++
		}
	}
	for m.nd <= 19-8 {
		v, ok := eightDigits(b, i)
		if !ok {
			break
		}
		m.man = m.man*1e8 + v
		m.nd += 8
		i += 8
	}
	for ; i < len(b) && b[i]-'0' <= 9 && m.nd < 19; i++ {
		m.man = m.man*10 + uint64(b[i]-'0')
		m.nd++
	}
	folded := i - start
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		m.cut = m.cut || b[i] != '0'
	}
	if frac {
		m.exp10 -= folded
	} else {
		m.exp10 += i - start - folded
	}
	return i
}

// integer consumes a number without fraction or exponent that fits an int64.
func (s *scanner) integer() (int64, bool) {
	lit, integer, ok := s.number()
	n, err := strconv.ParseInt(string(lit), 10, 64)
	return n, ok && integer && err == nil
}

// coord consumes one number into dst and the byte that must follow it.
func (s *scanner) coord(dst *float64, then byte) (ok bool) {
	*dst, ok = s.float()
	return ok && s.eat(then)
}

// floats consumes [q,…] into one slice, allocated once at the element count
// the commas before the closing bracket give. More than maxN elements is for
// the fallback to refuse, before anything is allocated for them.
func (s *scanner) floats(maxN int) ([]float64, bool) {
	if !s.eat('[') {
		return nil, false
	}
	n := bytes.Count(s.b[s.i:s.i+max(0, bytes.IndexByte(s.b[s.i:], ']'))], []byte{','}) + 1
	if maxN > 0 && n > maxN {
		return nil, false
	}
	out := make([]float64, 0, n)
	for more := !s.eat(']'); more; more = s.eat(',') {
		f, ok := s.float()
		if !ok {
			return nil, false
		}
		out = append(out, f)
	}
	return out, len(out) == 0 || s.eat(']')
}

// triples consumes [[x,y,z],…] — exactly three numbers each — straight into
// the solver's layout. Every triple opens one bracket, so the brackets left
// in the body size the slice (a charges array after it adds one); more than
// maxN of them is for the fallback to refuse.
func (s *scanner) triples(maxN int) ([]nbody.Vec3, bool) {
	if !s.eat('[') {
		return nil, false
	}
	n := bytes.Count(s.b[s.i:], []byte{'['})
	if maxN > 0 && n > maxN+1 {
		return nil, false
	}
	out := make([]nbody.Vec3, 0, n)
	for more := !s.eat(']'); more; more = s.eat(',') {
		var v nbody.Vec3
		if !s.eat('[') || !s.coord(&v.X, ',') || !s.coord(&v.Y, ',') || !s.coord(&v.Z, ']') {
			return nil, false
		}
		out = append(out, v)
	}
	return out, len(out) == 0 || s.eat(']')
}

// scanRequest parses a whole body into r when it is one object of the keys
// below — one table for both endpoints, the last five /v1/simulate's — each
// exactly so spelled and at most once, with a value of exactly the shape its
// destination's type names. It reports false, leaving r half filled for the
// caller to discard, on anything else: a null, an unknown, repeated, escaped
// or differently cased key, a short or long triple, trailing bytes.
// Validation is not its job.
func scanRequest(buf []byte, r *SimulateRequest, sim bool, maxN int) bool {
	fields := []struct {
		key string
		dst any
	}{
		{"tenant", &r.Tenant}, {"positions", &r.pos}, {"charges", &r.Charges},
		{"compute", &r.Compute}, {"accuracy", &r.Accuracy}, {"depth", &r.Depth},
		{"supernodes", &r.Supernodes}, {"deadline_ms", &r.DeadlineMS}, {"phases", &r.Phases},
		{"steps", &r.Steps}, {"dt", &r.DT}, {"stream_every", &r.StreamEvery},
		{"checkpoint_every", &r.CheckpointEvery}, {"resume_token", &r.ResumeToken},
	}
	if !sim {
		fields = fields[:9]
	}
	s := scanner{b: buf}
	if !s.eat('{') {
		return false
	}
	n := 0
	for more := !s.eat('}'); more; more = s.eat(',') {
		key, ok := s.str()
		var dst any
		for i := range fields {
			if fields[i].key == string(key) {
				dst, fields[i].dst = fields[i].dst, nil // a key is taken once
				break
			}
		}
		if !ok || dst == nil || !s.eat(':') {
			return false
		}
		switch d := dst.(type) {
		case *string:
			var v []byte
			v, ok = s.str()
			*d = string(v)
		case *bool:
			s.ws()
			*d = s.word("true")
			ok = *d || s.word("false")
		case *int64:
			*d, ok = s.integer()
		case *int:
			var v int64
			v, ok = s.integer()
			*d = int(v)
			ok = ok && int64(*d) == v
		case *float64:
			*d, ok = s.float()
		case *[]float64:
			*d, ok = s.floats(maxN)
		case *[]nbody.Vec3:
			*d, ok = s.triples(maxN)
		}
		if !ok {
			return false
		}
		n++
	}
	if n > 0 && !s.eat('}') {
		return false
	}
	s.ws()
	return s.i == len(buf)
}

// floatBytes bounds one float64 in a JSON array: sign, 17 digits, point,
// e-308, comma. Output buffers sized with it never grow.
const floatBytes = 25

// appendFloat appends f exactly as encoding/json writes a float64: the
// shortest digits that round-trip, 'f' form unless |f| < 1e-6 or >= 1e21,
// then 'e' with a two-digit negative exponent's zero dropped; and the same
// error for the values JSON cannot carry.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-09 is written e-9
		dst = dst[:n-1]
	}
	return dst, nil
}

// appendFloats appends xs as encoding/json writes a []float64.
func appendFloats(dst []byte, xs []float64) (_ []byte, err error) {
	if xs == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	for i, x := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		if dst, err = appendFloat(dst, x); err != nil {
			return dst, err
		}
	}
	return append(dst, ']'), nil
}

// appendVec3s appends vs as encoding/json writes the [][3]float64 of the
// same values: the wire form of positions, velocities and accelerations.
func appendVec3s(dst []byte, vs []nbody.Vec3) (_ []byte, err error) {
	dst = append(dst, '[')
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		if dst, err = appendFloats(dst, []float64{v.X, v.Y, v.Z}); err != nil {
			return dst, err
		}
	}
	return append(dst, ']'), nil
}
