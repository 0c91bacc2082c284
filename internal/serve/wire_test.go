package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"nbody"
)

// wireCap is the body cap the decode tests run under: small, so "one byte
// over" is a seed and not a 64 MiB allocation.
const wireCap = 1024

// wireSeed is one request body of the decode corpus: which endpoints' scanner
// takes it (the other bodies go through encoding/json), whatever the verdict
// on the request then is.
type wireSeed struct {
	name                string
	body                string
	onSolve, onSimulate bool // the scanner parses it on /v1/solve, on /v1/simulate
}

// paddedBody is a valid request of exactly total bytes.
func paddedBody(total int) string {
	const head, tail = `{"positions":[[0.5,0.5,0.5]],"charges":[1],"tenant":"`, `"}`
	return head + strings.Repeat("a", total-len(head)-len(tail)) + tail
}

var wireSeeds = []wireSeed{
	// The shapes clients send: what json.Marshal of the public structs writes.
	{"bench body", `{"tenant":"light","positions":[[0.1,0.2,0.3],[0.7,0.8,0.9]],"charges":[1,-1],"compute":"potentials","accuracy":"fast","deadline_ms":250}`, true, true},
	{"every solve key", `{"tenant":"a","positions":[[0.5,0.5,0.5]],"charges":[1],"compute":"accelerations","accuracy":"balanced","depth":3,"supernodes":true,"deadline_ms":9,"phases":false}`, true, true},
	{"simulate body", `{"positions":[[0.5,0.5,0.5]],"charges":[1],"steps":4,"dt":0.001,"stream_every":2,"checkpoint_every":1}`, false, true},
	{"resume body", `{"accuracy":"fast","depth":2,"steps":8,"resume_token":"AAAA"}`, false, true},
	{"whitespace everywhere", " \t\r\n{ \"tenant\" : \"a\" ,\n\"positions\" : [ [ 0.1 , 0.2 ,\t0.3 ] , [0.4,0.5,0.6] ] , \"charges\" : [ 1 , 2 ] } \n", true, true},
	{"keys in another order", `{"charges":[1],"depth":0,"positions":[[0.5,0.5,0.5]]}`, true, true},
	{"empty object", `{}`, true, true},
	{"empty arrays", `{"positions":[],"charges":[]}`, true, true},
	// Numbers: the JSON grammar, then strconv.ParseFloat.
	{"minus zero", `{"positions":[[-0,0.5,-0.0]],"charges":[-0]}`, true, true},
	{"underflow to zero", `{"positions":[[1e-400,0.5,0.5]],"charges":[1E-400]}`, true, true},
	{"exponent forms", `{"positions":[[0.1e1,5E-1,5e-01]],"charges":[1E+2]}`, true, true},
	{"17 digits", `{"positions":[[0.12345678901234567,0.5,0.5]],"charges":[1]}`, true, true},
	{"19 digits", `{"positions":[[0.1234567890123456789,0.5,0.5]],"charges":[1234567890123456789]}`, true, true},
	{"forty digits", `{"positions":[[0.1000000000000000055511151231257827021181,0.5,0.5]],"charges":[1]}`, true, true},
	{"coincident particles", `{"positions":[[0.5,0.5,0.5],[0.5,0.5,0.5]],"charges":[1,1]}`, true, true},
	{"domain boundary", `{"positions":[[1.0,0.0,0.999999]],"charges":[1]}`, true, true},
	{"negative depth", `{"positions":[[0.5,0.5,0.5]],"charges":[1],"depth":-1}`, true, true},
	{"depth one", `{"positions":[[0.5,0.5,0.5]],"charges":[1],"depth":1}`, true, true},
	{"out of domain", `{"positions":[[1.5,0.5,0.5]],"charges":[1]}`, true, true},
	{"mismatched lengths", `{"positions":[[0.5,0.5,0.5]],"charges":[1,2,3]}`, true, true},
	{"unknown selector", `{"positions":[[0.5,0.5,0.5]],"charges":[1],"accuracy":"warp9"}`, true, true},
	{"depth out of range", `{"positions":[[0.5,0.5,0.5]],"charges":[1],"depth":99}`, true, true},
	{"negative steps", `{"positions":[[0.5,0.5,0.5]],"charges":[1],"steps":-4,"dt":0.5,"stream_every":-9}`, false, true},
	{"overflow position", `{"positions":[[1e999,0.5,0.5]],"charges":[1]}`, false, false},
	{"overflow charge", `{"positions":[[0.5,0.5,0.5]],"charges":[1e999]}`, false, false},
	{"overflow dt", `{"positions":[[0.5,0.5,0.5]],"charges":[1],"steps":4,"dt":1e999}`, false, false},
	{"leading zero", `{"positions":[[01,0.5,0.5]],"charges":[1]}`, false, false},
	{"plus sign", `{"positions":[[0.5,0.5,0.5]],"charges":[+1]}`, false, false},
	{"bare fraction", `{"positions":[[.5,0.5,0.5]],"charges":[1]}`, false, false},
	{"trailing point", `{"positions":[[1.,0.5,0.5]],"charges":[1]}`, false, false},
	{"bare exponent", `{"positions":[[1e,0.5,0.5]],"charges":[1]}`, false, false},
	{"hex", `{"positions":[[0x1p-2,0.5,0.5]],"charges":[1]}`, false, false},
	{"NaN token", `{"positions":[[NaN,0.5,0.5]],"charges":[1]}`, false, false},
	{"fractional depth", `{"positions":[[0.5,0.5,0.5]],"charges":[1],"depth":3.0}`, false, false},
	{"exponent depth", `{"positions":[[0.5,0.5,0.5]],"charges":[1],"depth":1e0}`, false, false},
	{"depth past int64", `{"positions":[[0.5,0.5,0.5]],"charges":[1],"depth":9223372036854775808}`, false, false},
	// Leniencies of encoding/json the scanner leaves to encoding/json.
	{"null positions", `{"positions":null,"charges":[1]}`, false, false},
	{"null triple", `{"positions":[null],"charges":[1]}`, false, false},
	{"null coordinate", `{"positions":[[null,0.5,0.5]],"charges":[1]}`, false, false},
	{"null charges", `{"positions":[[0.5,0.5,0.5]],"charges":null}`, false, false},
	{"null charge", `{"positions":[[0.5,0.5,0.5]],"charges":[null]}`, false, false},
	{"null tenant", `{"tenant":null,"positions":[[0.5,0.5,0.5]],"charges":[1]}`, false, false},
	{"short triple", `{"positions":[[0.5,0.5]],"charges":[1]}`, false, false},
	{"long triple", `{"positions":[[0.5,0.5,0.5,0.5]],"charges":[1]}`, false, false},
	{"empty triple", `{"positions":[[]],"charges":[1]}`, false, false},
	{"duplicate key", `{"positions":[[0.5,0.5,0.5]],"charges":[1],"charges":[2]}`, false, false},
	{"duplicate positions", `{"positions":[[0.1,0.1,0.1],[0.2,0.2,0.2]],"positions":[[0.5,0.5,0.5]],"charges":[1]}`, false, false},
	{"case-variant key", `{"Positions":[[0.5,0.5,0.5]],"charges":[1]}`, false, false},
	{"upper-case key", `{"positions":[[0.5,0.5,0.5]],"CHARGES":[1]}`, false, false},
	{"escaped key", `{"po\u0073itions":[[0.5,0.5,0.5]],"charges":[1]}`, false, false},
	{"escaped value", `{"tenant":"a\"b","positions":[[0.5,0.5,0.5]],"charges":[1]}`, false, false},
	{"non-ASCII value", `{"tenant":"é","positions":[[0.5,0.5,0.5]],"charges":[1]}`, false, false},
	{"invalid UTF-8 value", "{\"tenant\":\"\xff\",\"positions\":[[0.5,0.5,0.5]],\"charges\":[1]}", false, false},
	{"control byte in value", "{\"tenant\":\"a\tb\",\"positions\":[[0.5,0.5,0.5]],\"charges\":[1]}", false, false},
	{"unknown key", `{"positions":[[0.5,0.5,0.5]],"charges":[1],"extra":1}`, false, false},
	{"unknown nested key", `{"meta":{"a":[1,{"b":null}],"positions":[[9,9,9]]},"positions":[[0.5,0.5,0.5]],"charges":[1]}`, false, false},
	{"wrong type", `{"positions": 42}`, false, false},
	{"string depth", `{"positions":[[0.5,0.5,0.5]],"charges":[1],"depth":"3"}`, false, false},
	{"number as bool", `{"positions":[[0.5,0.5,0.5]],"charges":[1],"phases":1}`, false, false},
	{"simulate key on solve", `{"positions":[[0.5,0.5,0.5]],"charges":[1],"steps":"x"}`, false, false},
	{"trailing bytes", `{"positions":[[0.5,0.5,0.5]],"charges":[1]} x`, false, false},
	{"second object", `{"positions":[[0.5,0.5,0.5]],"charges":[1]}{}`, false, false},
	{"trailing comma", `{"positions":[[0.5,0.5,0.5]],"charges":[1],}`, false, false},
	{"missing colon", `{"positions" [[0.5,0.5,0.5]],"charges":[1]}`, false, false},
	{"unterminated", `{"positions":[[0.5,0.5,0.5]],"charges":[1]`, false, false},
	{"garbage", `[[[[`, false, false},
	{"top-level array", `[]`, false, false},
	{"empty body", ``, false, false},
	{"one byte over the cap", `{"positions":[[0.5,0.5,0.5]],"charges":[1]}` + strings.Repeat(" ", wireCap), false, false},
	{"object ends at the cap", paddedBody(wireCap), true, true},
	{"object ends past the cap", paddedBody(wireCap + 1), false, false},
}

// The fast path cannot silently stop being taken: every seed is pinned to
// the scanner or to the fallback, per endpoint.
func TestScannerTakesOrFallsBack(t *testing.T) {
	for _, seed := range wireSeeds {
		for _, sim := range []bool{false, true} {
			want := seed.onSolve
			if sim {
				want = seed.onSimulate
			}
			capped := http.MaxBytesReader(nil, io.NopCloser(strings.NewReader(seed.body)), wireCap)
			buf, rerr := ReadBody(capped, int64(len(seed.body)))
			got := rerr == nil && scanRequest(buf, new(SimulateRequest), sim, 4096)
			if got != want {
				t.Errorf("%s (sim=%v): scanner took it = %v, want %v", seed.name, sim, got, want)
			}
		}
	}
}

// decodeVia runs one decoder over data the way Server.decodeBody does: under
// the body cap, an over-cap read named for what it is.
func decodeVia(data []byte, decode func(io.Reader) (*SimulateRequest, *nbody.System, error)) (*SimulateRequest, *nbody.System, error) {
	req, sys, err := decode(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(data)), wireCap))
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		err = fmt.Errorf("%w: body over %d bytes", ErrTooLarge, wireCap)
	}
	return req, sys, err
}

// checkDecodeAgrees is the differential oracle: on data, decodeRequest and
// the encoding/json reference agree on the verdict, on the error and the
// status it maps to, and on success on every selector and every bit of the
// system.
func checkDecodeAgrees(t *testing.T, data []byte, sim bool) {
	t.Helper()
	lim := Limits{MaxN: 64, MaxDepth: 6}
	got, gsys, gerr := decodeVia(data, func(r io.Reader) (*SimulateRequest, *nbody.System, error) {
		return decodeRequest(r, int64(len(data)), lim, sim)
	})
	want, wsys, werr := decodeVia(data, func(r io.Reader) (*SimulateRequest, *nbody.System, error) {
		if sim {
			return decodeSimulateRequest(r, lim)
		}
		req, sys, err := decodeSolveRequest(r, lim)
		if err != nil {
			return nil, nil, err
		}
		return &SimulateRequest{SolveRequest: *req}, sys, nil
	})
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("sim=%v %q: decodeRequest err = %v, reference err = %v", sim, data, gerr, werr)
	}
	if gerr != nil {
		gs, gc := statusFor(gerr)
		ws, wc := statusFor(werr)
		if gs != ws || gc != wc || gerr.Error() != werr.Error() {
			t.Fatalf("sim=%v %q: decodeRequest %d %s %q, reference %d %s %q", sim, data, gs, gc, gerr, ws, wc, werr)
		}
		return
	}
	// The arrays are compared through the systems; everything else must be
	// the same value, the decoded resume state included.
	g, w := *got, *want
	g.pos, g.Positions, g.Charges, w.pos, w.Positions, w.Charges = nil, nil, nil, nil, nil, nil
	if (g.resume == nil) != (w.resume == nil) || (g.resume != nil && g.resume.Step != w.resume.Step) {
		t.Fatalf("sim=%v %q: resume state differs", sim, data)
	}
	g.resume, w.resume = nil, nil
	if gj, wj := fmt.Sprintf("%+v", g), fmt.Sprintf("%+v", w); gj != wj {
		t.Fatalf("sim=%v %q: selectors differ:\n got %s\nwant %s", sim, data, gj, wj)
	}
	if gsys.Len() != wsys.Len() || len(gsys.Charges) != len(wsys.Charges) {
		t.Fatalf("sim=%v %q: N %d/%d, reference %d/%d", sim, data, gsys.Len(), len(gsys.Charges), wsys.Len(), len(wsys.Charges))
	}
	for i := range gsys.Positions {
		gp, wp := gsys.Positions[i], wsys.Positions[i]
		if math.Float64bits(gp.X) != math.Float64bits(wp.X) || math.Float64bits(gp.Y) != math.Float64bits(wp.Y) ||
			math.Float64bits(gp.Z) != math.Float64bits(wp.Z) || math.Float64bits(gsys.Charges[i]) != math.Float64bits(wsys.Charges[i]) {
			t.Fatalf("sim=%v %q: particle %d = %v q %v, reference %v q %v", sim, data, i, gp, gsys.Charges[i], wp, wsys.Charges[i])
		}
	}
}

func TestDecodeAgreesOnSeeds(t *testing.T) {
	for _, seed := range wireSeeds {
		checkDecodeAgrees(t, []byte(seed.body), false)
		checkDecodeAgrees(t, []byte(seed.body), true)
	}
}

// ReadBody is io.ReadAll with a sizing hint: whatever the hint, the bytes and
// the error are io.ReadAll's, and a right hint means one allocation.
func TestReadBody(t *testing.T) {
	data := bytes.Repeat([]byte("0123456789"), 500)
	for _, declared := range []int64{-1, 0, 1, 100, int64(len(data)) - 1, int64(len(data)), int64(len(data)) + 1, 1 << 40} {
		for name, wrap := range map[string]func(io.Reader) io.Reader{
			"whole":    func(r io.Reader) io.Reader { return r },
			"one byte": iotest.OneByteReader,
			"data+EOF": iotest.DataErrReader,
			"cut short": func(r io.Reader) io.Reader {
				return io.MultiReader(io.LimitReader(r, 1234), iotest.ErrReader(io.ErrUnexpectedEOF))
			},
		} {
			got, gerr := ReadBody(wrap(bytes.NewReader(data)), declared)
			want, werr := io.ReadAll(wrap(bytes.NewReader(data)))
			if !bytes.Equal(got, want) || gerr != werr {
				t.Errorf("declared %d, %s: %d bytes, err %v; io.ReadAll: %d bytes, err %v", declared, name, len(got), gerr, len(want), werr)
			}
		}
	}
	if raceEnabled {
		return // the detector's own allocations are counted too
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := ReadBody(bytes.NewReader(data), int64(len(data))); err != nil {
			t.Fatal(err)
		}
	}); allocs > 2 { // the reader and the buffer
		t.Errorf("a body of the declared length costs %.0f allocations, want the buffer alone", allocs)
	}
}

// benchBody is the request the benchmark's serve workloads post: a uniform
// system as json.Marshal writes the public struct, the shape the fast path is
// for.
func benchBody(tb testing.TB, n int) (*nbody.System, []byte) {
	tb.Helper()
	sys := nbody.NewUniformSystem(n, 7)
	return sys, solveBody(tb, "light", sys, func(r *SolveRequest) {
		r.Compute, r.Accuracy, r.DeadlineMS = "potentials", "fast", 60000
	})
}

func benchDecode(b *testing.B, n int) {
	_, body := benchBody(b, n)
	lim := Limits{MaxN: 131072, MaxDepth: 6}
	if !scanRequest(body, new(SimulateRequest), false, lim.MaxN) {
		b.Fatal("the benchmark body does not take the scanner")
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := decodeRequest(bytes.NewReader(body), int64(len(body)), lim, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeSolve512(b *testing.B)   { benchDecode(b, 512) }
func BenchmarkDecodeSolve8192(b *testing.B)  { benchDecode(b, 8192) }
func BenchmarkDecodeSolve32768(b *testing.B) { benchDecode(b, 32768) }

func benchEncode(b *testing.B, n int) {
	sys, _ := benchBody(b, n)
	resp := &SolveResponse{Tenant: "light", N: n, Phi: sys.Charges, Backend: "avx2", CacheHit: true, QueueNS: 12345, SolveNS: 1234567}
	out, err := encodeSolveResponse(resp)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(out)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := encodeSolveResponse(resp); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeSolve512(b *testing.B)   { benchEncode(b, 512) }
func BenchmarkEncodeSolve8192(b *testing.B)  { benchEncode(b, 8192) }
func BenchmarkEncodeSolve32768(b *testing.B) { benchEncode(b, 32768) }

// One warm N = 512 solve through the handler: its allocation count and the
// bytes it allocates are pinned at what they read plus a little (the decode
// alone allocated 43 times and 175 KB before the scanner). Reads 65–66
// allocations and 100 KB on both backends at GOMAXPROCS 1, 2 and 4; 16 KB of
// that is the recorder's buffer below.
func TestSolveHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates too (80 here)")
	}
	srv, err := New(Config{Quiet: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	_, body := benchBody(t, 512)
	post := func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		rec.Body.Grow(16 << 10) // the recorder's own buffer is not the handler's cost
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	for i := 0; i < 5; i++ {
		post() // warm: plan cached, estimate confident, scheduler pool filled
	}
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, post)
	runtime.ReadMemStats(&after)
	perRequest := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
	t.Logf("%.0f allocations, %.1f KB per request", allocs, perRequest/1024)
	if allocs > solveHandlerAllocs {
		t.Errorf("a warm N=512 solve costs %.0f allocations, ceiling %d", allocs, solveHandlerAllocs)
	}
	if perRequest > 120<<10 {
		t.Errorf("a warm N=512 solve allocates %.1f KB, ceiling 120 KB", perRequest/1024)
	}
}

// solveHandlerAllocs is TestSolveHandlerAllocs' reading + 4.
const solveHandlerAllocs = 70

// Every reply and every frame the server writes is, byte for byte, what
// json.Marshal writes for the public struct holding the same values: decode a
// line with encoding/json, marshal it again, get the line back. (The shortest
// round-tripping digits make the floats' trip exact.)
func TestResponseBytesAreEncodingJSONs(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2})
	sys := nbody.NewUniformSystem(300, 19)
	sys.Charges[3], sys.Charges[4], sys.Charges[5] = 1e-9, -3.5e22, 0 // both float forms
	same := func(what string, line []byte, into any) {
		t.Helper()
		if err := json.Unmarshal(line, into); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		again, err := json.Marshal(into)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, line) {
			t.Errorf("%s: the server wrote\n%.300s\njson.Marshal writes\n%.300s", what, line, again)
		}
	}
	for what, mutate := range map[string]func(*SolveRequest){
		"potentials":    nil,
		"accelerations": func(r *SolveRequest) { r.Compute = "accelerations" },
		"phases":        func(r *SolveRequest) { r.Phases = true },
	} {
		resp, data := postSolve(t, hs.URL, solveBody(t, `t "<&>" é`, sys, mutate))
		if resp.StatusCode != http.StatusOK || !bytes.HasSuffix(data, []byte("\n")) {
			t.Fatalf("%s: status %d, body %.100q", what, resp.StatusCode, data)
		}
		var sr SolveResponse
		same(what, bytes.TrimSuffix(data, []byte("\n")), &sr)
		if what == "accelerations" && len(sr.Acc) != sys.Len() {
			t.Errorf("accelerations: %d acc triples, want %d", len(sr.Acc), sys.Len())
		}
	}

	sys = nbody.NewUniformSystem(96, 23) // sane charges: the big one above throws particles out of the domain
	req := SimulateRequest{Steps: 4, DT: 1e-3, StreamEvery: 2, CheckpointEvery: 1}
	req.SolveRequest = SolveRequest{Tenant: "sim", Positions: make([][3]float64, sys.Len()), Charges: sys.Charges}
	for i, p := range sys.Positions {
		req.Positions[i] = [3]float64{p.X, p.Y, p.Z}
	}
	body, _ := json.Marshal(req)
	resp, stream := postJSON(t, hs.URL+"/v1/simulate", body)
	lines := bytes.Split(bytes.TrimSuffix(stream, []byte("\n")), []byte("\n"))
	if resp.StatusCode != http.StatusOK || len(lines) != 2 {
		t.Fatalf("simulate: status %d, %d frames", resp.StatusCode, len(lines))
	}
	for i, line := range lines {
		var f Frame
		same(fmt.Sprintf("frame %d", i), line, &f)
		if final := i == len(lines)-1; f.Final != final || (len(f.Positions) == sys.Len()) != final || (f.ResumeToken != "") == final {
			t.Errorf("frame %d: final=%v positions=%d token=%v", i, f.Final, len(f.Positions), f.ResumeToken != "")
		}
	}
}
