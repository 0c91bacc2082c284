package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var errCorrupt = errors.New("test: corrupt")

var testFormat = Format{
	Magic:   [8]byte{'F', 'R', 'A', 'M', 'E', 'T', 'S', 'T'},
	Version: 3,
	Corrupt: errCorrupt,
}

// checkMultipleOf8 stands in for a caller's structural length rule.
func checkMultipleOf8(plen uint64) error {
	if plen%8 != 0 {
		return fmt.Errorf("implausible payload length %d", plen)
	}
	return nil
}

func encode(t testing.TB, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := testFormat.Write(&buf, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	for _, n := range []int{0, 8, 64, 1 << 21} { // the last spans three read chunks
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i * 7)
		}
		raw := encode(t, payload)
		if want := HeaderLen + n + 4; len(raw) != want {
			t.Fatalf("frame of %d payload bytes is %d bytes, want %d", n, len(raw), want)
		}
		r := bytes.NewReader(append(raw, "tail"...))
		got, err := testFormat.Read(r, checkMultipleOf8)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("Read(%d bytes) = (%d bytes, %v)", n, len(got), err)
		}
		// Read consumes exactly one frame: callers detect trailing garbage.
		if r.Len() != 4 {
			t.Fatalf("Read left %d bytes unread, want the 4 trailing ones", r.Len())
		}
	}
}

// TestGoldenBytes pins the envelope layout byte for byte.
func TestGoldenBytes(t *testing.T) {
	got := encode(t, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	want := []byte{
		'F', 'R', 'A', 'M', 'E', 'T', 'S', 'T', // magic
		3, 0, 0, 0, // version
		8, 0, 0, 0, 0, 0, 0, 0, // payload length
		1, 2, 3, 4, 5, 6, 7, 8, // payload
		0x81, 0x1f, 0x89, 0x46, // CRC32C of the payload (0x46891f81), little-endian
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("frame bytes\n got %x\nwant %x", got, want)
	}
	// CRC32C (Castagnoli), not IEEE: the standard check value of "123456789".
	if c := Checksum([]byte("123456789")); c != 0xe3069283 {
		t.Fatalf("Checksum is not CRC32C: %08x", c)
	}
}

// TestCorruptTable is the frame-level corruption table, held once here for
// every format built on the package: each kind of envelope damage must fail
// with the format's sentinel and return no payload.
func TestCorruptTable(t *testing.T) {
	le := binary.LittleEndian
	valid := encode(t, bytes.Repeat([]byte{0xA5}, 64))
	cases := []struct {
		name   string
		mutate func(b []byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"truncated header", func(b []byte) []byte { return b[:HeaderLen-3] }},
		{"header only", func(b []byte) []byte { return b[:HeaderLen] }},
		{"truncated payload", func(b []byte) []byte { return b[:HeaderLen+30] }},
		{"missing checksum", func(b []byte) []byte { return b[:len(b)-4] }},
		{"truncated checksum", func(b []byte) []byte { return b[:len(b)-2] }},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0x40; return b }},
		{"future version", func(b []byte) []byte { le.PutUint32(b[8:], 4); return b }},
		{"stale version", func(b []byte) []byte { le.PutUint32(b[8:], 2); return b }},
		{"length fails caller check", func(b []byte) []byte { le.PutUint64(b[12:], 13); return b }},
		{"length shorter than payload", func(b []byte) []byte { le.PutUint64(b[12:], 56); return b }},
		{"forged huge length", func(b []byte) []byte { le.PutUint64(b[12:], 1<<43); return b }},
		{"payload bit flip", func(b []byte) []byte { b[HeaderLen+9] ^= 0x10; return b }},
		{"checksum bit flip", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			raw := c.mutate(append([]byte(nil), valid...))
			payload, err := testFormat.Read(bytes.NewReader(raw), checkMultipleOf8)
			if !errors.Is(err, errCorrupt) {
				t.Fatalf("Read = (%d bytes, %v), want the format's sentinel", len(payload), err)
			}
			if payload != nil {
				t.Fatal("corrupt frame returned a payload")
			}
		})
	}
	if _, err := testFormat.Read(bytes.NewReader(valid), checkMultipleOf8); err != nil {
		t.Fatalf("pristine frame rejected: %v", err)
	}
}

// TestLengthCheckedBeforePayloadRead proves a forged length is refused by
// the caller's rule without touching the reader past the header, and that a
// length the rule accepts still cannot force an allocation ahead of data.
func TestLengthCheckedBeforePayloadRead(t *testing.T) {
	raw := encode(t, make([]byte, 16))
	binary.LittleEndian.PutUint64(raw[12:], 1<<60)
	r := bytes.NewReader(raw)
	_, err := testFormat.Read(r, func(plen uint64) error { return errors.New("too long") })
	if !errors.Is(err, errCorrupt) || !strings.Contains(err.Error(), "too long") {
		t.Fatalf("Read = %v, want sentinel carrying the caller's detail", err)
	}
	if r.Len() != len(raw)-HeaderLen {
		t.Fatalf("reader advanced past the header before the length was checked")
	}
	if _, err := testFormat.Read(bytes.NewReader(raw), checkMultipleOf8); !errors.Is(err, errCorrupt) {
		t.Fatalf("forged 2^60 length = %v, want sentinel", err)
	}
}

type failAfter struct{ n int }

func (w *failAfter) Write(p []byte) (int, error) {
	if w.n -= len(p); w.n < 0 {
		return 0, io.ErrShortWrite
	}
	return len(p), nil
}

func TestWriteReportsWriterErrors(t *testing.T) {
	for _, budget := range []int{0, HeaderLen, HeaderLen + 8} { // header, payload, checksum
		if err := testFormat.Write(&failAfter{budget}, make([]byte, 8)); !errors.Is(err, io.ErrShortWrite) {
			t.Errorf("budget %d: Write = %v, want the writer's error", budget, err)
		}
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rec.bin")
	write := func(content string) func(io.Writer) error {
		return func(w io.Writer) error { _, err := io.WriteString(w, content); return err }
	}
	if err := WriteFileAtomic(path, write("first")); err != nil {
		t.Fatal(err)
	}
	// A failing fill leaves the previous file intact, returns its own
	// error unwrapped, and leaves no temporary behind.
	boom := errors.New("boom")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		io.WriteString(w, "torn")
		return boom
	})
	if err != boom {
		t.Fatalf("failing fill returned %v, want its own error", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "first" {
		t.Fatalf("failed write clobbered the file: %q", got)
	}
	if err := WriteFileAtomic(path, write("second")); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "second" {
		t.Fatalf("file holds %q, want the replacement", got)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "rec.bin" {
		t.Fatalf("directory holds %v, want only rec.bin", ents)
	}
	if err := WriteFileAtomic(filepath.Join(dir, "missing", "rec.bin"), write("x")); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}

// FuzzRead feeds arbitrary bytes to the frame reader: it must never panic,
// must fail only with the sentinel, and must accept only frames that
// re-encode to the bytes it consumed.
func FuzzRead(f *testing.F) {
	valid := encode(f, bytes.Repeat([]byte{0x3C}, 24))
	f.Add(valid)
	f.Add(encode(f, nil))
	f.Add([]byte{})
	f.Add(valid[:HeaderLen-3])               // truncated header
	f.Add(valid[:HeaderLen])                 // header only
	f.Add(valid[:HeaderLen+5])               // truncated payload
	f.Add(valid[:len(valid)-2])              // truncated checksum
	f.Add(append([]byte("X"), valid[1:]...)) // bad magic
	mut := func(fn func(b []byte)) []byte {
		b := append([]byte(nil), valid...)
		fn(b)
		return b
	}
	f.Add(mut(func(b []byte) { binary.LittleEndian.PutUint32(b[8:], 99) }))     // unknown version
	f.Add(mut(func(b []byte) { binary.LittleEndian.PutUint64(b[12:], 1<<43) })) // forged huge length
	f.Add(mut(func(b []byte) { b[HeaderLen+3] ^= 0x20 }))                       // payload bit flip
	f.Add(mut(func(b []byte) { b[len(b)-1] ^= 0x01 }))                          // checksum bit flip

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		payload, err := testFormat.Read(r, checkMultipleOf8)
		if err != nil {
			if !errors.Is(err, errCorrupt) {
				t.Fatalf("Read error %v does not wrap the sentinel", err)
			}
			if payload != nil {
				t.Fatal("failed Read returned a payload")
			}
			return
		}
		consumed := data[:len(data)-r.Len()]
		if again := encode(t, payload); !bytes.Equal(again, consumed) {
			t.Fatalf("accepted frame does not re-encode to its own bytes")
		}
	})
}
