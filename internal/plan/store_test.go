package plan

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"nbody/internal/frame"
)

// storeFixture builds a planner with a small tuned table covering every
// field the wire format carries: both flag bits, a non-default dims, all
// three distribution buckets, and two accuracy tiers.
func storeFixture(t *testing.T) *Planner {
	t.Helper()
	p := NewPlanner(6)
	observe := func(shape ShapeKey, depth int, sup, sim bool, d time.Duration) {
		key := Key{Shape: shape, Sim: sim, Plan: Plan{Depth: depth, K: AccuracyK(shape.Accuracy), Supernodes: sup}}
		p.Observe(key, d)
		p.Observe(key, d)
	}
	observe(ShapeKey{N: 1024, Dist: DistUniform, Accuracy: "fast"}, 3, false, false, 4*time.Millisecond)
	observe(ShapeKey{N: 8192, Dist: DistClustered, Accuracy: "accurate"}, 2, true, true, 90*time.Millisecond)
	observe(ShapeKey{N: 4096, Dist: DistPeaked, Accuracy: "balanced", Dims: 2}, 4, false, false, 12*time.Millisecond)
	return p
}

func encodeStore(t *testing.T, p *Planner) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// refreshCRC recomputes the trailing checksum after a test mutated the
// payload, so the mutation reaches field validation instead of being caught
// by the CRC.
func refreshCRC(b []byte) {
	payload := b[frame.HeaderLen : len(b)-4]
	binary.LittleEndian.PutUint32(b[len(b)-4:], frame.Checksum(payload))
}

func TestStoreRoundTrip(t *testing.T) {
	p := storeFixture(t)
	raw := encodeStore(t, p)

	q := NewPlanner(6)
	n, err := q.Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("Decode loaded %d entries, want 3", n)
	}
	for _, c := range []struct {
		shape ShapeKey
		req   Request
		depth int
	}{
		{ShapeKey{N: 1024, Dist: DistUniform, Accuracy: "fast"}, Request{}, 3},
		{ShapeKey{N: 8192, Dist: DistClustered, Accuracy: "accurate"}, Request{Supernodes: true, Sim: true}, 2},
		{ShapeKey{N: 4096, Dist: DistPeaked, Accuracy: "balanced", Dims: 2}, Request{}, 4},
	} {
		got, ok := q.Tuned(c.shape, c.req)
		want, _ := p.Tuned(c.shape, c.req)
		if !ok || got != want || got.Depth != c.depth {
			t.Errorf("%v: loaded %+v ok=%v, want %+v depth %d", c.shape, got, ok, want, c.depth)
		}
	}

	// Deterministic encoding: equal tables produce bitwise-equal stores.
	if again := encodeStore(t, q); !bytes.Equal(raw, again) {
		t.Error("re-encoding a loaded table changed the bytes")
	}
}

// TestStoreGoldenBytes pins the on-disk format: the fixture table must
// encode to exactly the bytes the pre-internal/frame codec (commit e479957)
// wrote, and those bytes must load.
func TestStoreGoldenBytes(t *testing.T) {
	const golden = "4e424f4459504c4e0100000098000000000000000300000000000000" +
		"0004000000000000000000000c00000003000000010000000000000000000000fca9f1d24d62703f0200000000000000" +
		"0010000000000000020000003200000004000000030000000000000000000000fa7e6abc7493883f0200000000000000" +
		"00200000000000000000000062000000020000000200000003000000000000000ad7a3703d0ab73f0200000000000000" +
		"d6c6ef08"
	if got := hex.EncodeToString(encodeStore(t, storeFixture(t))); got != golden {
		t.Fatalf("store bytes changed:\n got %s\nwant %s", got, golden)
	}
	raw, _ := hex.DecodeString(golden)
	if n, err := NewPlanner(6).Decode(bytes.NewReader(raw)); n != 3 || err != nil {
		t.Fatalf("Decode(golden) = (%d, %v), want (3, nil)", n, err)
	}
}

func TestStoreEmptyRoundTrip(t *testing.T) {
	raw := encodeStore(t, NewPlanner(6))
	if want := frame.HeaderLen + 8 + 4; len(raw) != want {
		t.Fatalf("empty store is %d bytes, want %d", len(raw), want)
	}
	if n, err := NewPlanner(6).Decode(bytes.NewReader(raw)); n != 0 || err != nil {
		t.Fatalf("empty Decode = (%d, %v)", n, err)
	}
}

// TestStoreCorruption drives every structural-validation path with a
// mutated copy of a valid store. Every case must fail with ErrCorruptStore
// and leave the planner's tuned table untouched (all-or-nothing loads).
func TestStoreCorruption(t *testing.T) {
	le := binary.LittleEndian
	valid := encodeStore(t, storeFixture(t))
	entry := func(b []byte, i int) []byte { return b[frame.HeaderLen+8+i*storeEntryLen:] }

	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"empty input", func(b []byte) []byte { return nil }},
		{"truncated header", func(b []byte) []byte { return b[:frame.HeaderLen-3] }},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0x40; return b }},
		{"unsupported version", func(b []byte) []byte { le.PutUint32(b[8:], storeVersion+1); return b }},
		{"payload length below minimum", func(b []byte) []byte { le.PutUint64(b[12:], 7); return b }},
		{"payload length misaligned", func(b []byte) []byte { le.PutUint64(b[12:], 8+storeEntryLen-1); return b }},
		{"entry count over limit", func(b []byte) []byte {
			le.PutUint64(b[12:], 8+storeEntryLen*uint64(storeMaxEntries+1))
			return b
		}},
		{"truncated payload", func(b []byte) []byte { return b[:frame.HeaderLen+12] }},
		{"truncated checksum", func(b []byte) []byte { return b[:len(b)-2] }},
		{"payload bitflip", func(b []byte) []byte { b[frame.HeaderLen+9] ^= 0x01; return b }},
		{"checksum bitflip", func(b []byte) []byte { b[len(b)-1] ^= 0x80; return b }},
		{"count inconsistent with length", func(b []byte) []byte {
			le.PutUint64(b[frame.HeaderLen:], 2) // 3 entries on the wire
			refreshCRC(b)
			return b
		}},
		{"zero n", func(b []byte) []byte { le.PutUint64(entry(b, 0), 0); refreshCRC(b); return b }},
		{"oversized n", func(b []byte) []byte { le.PutUint64(entry(b, 0), math.MaxInt32+1); refreshCRC(b); return b }},
		{"implausible dims", func(b []byte) []byte { le.PutUint32(entry(b, 0)[8:], 5); refreshCRC(b); return b }},
		{"zero k", func(b []byte) []byte { le.PutUint32(entry(b, 1)[12:], 0); refreshCRC(b); return b }},
		{"oversized k", func(b []byte) []byte { le.PutUint32(entry(b, 1)[12:], 1<<16+1); refreshCRC(b); return b }},
		{"depth below hierarchy minimum", func(b []byte) []byte { le.PutUint32(entry(b, 0)[16:], 1); refreshCRC(b); return b }},
		{"depth over limit", func(b []byte) []byte { le.PutUint32(entry(b, 0)[16:], 65); refreshCRC(b); return b }},
		{"unknown distribution code", func(b []byte) []byte { le.PutUint32(entry(b, 2)[20:], 9); refreshCRC(b); return b }},
		{"unknown flags", func(b []byte) []byte { le.PutUint32(entry(b, 0)[24:], 0x10); refreshCRC(b); return b }},
		{"negative seconds", func(b []byte) []byte {
			le.PutUint64(entry(b, 0)[32:], math.Float64bits(-1))
			refreshCRC(b)
			return b
		}},
		{"NaN seconds", func(b []byte) []byte {
			le.PutUint64(entry(b, 0)[32:], math.Float64bits(math.NaN()))
			refreshCRC(b)
			return b
		}},
		{"infinite seconds", func(b []byte) []byte {
			le.PutUint64(entry(b, 0)[32:], math.Float64bits(math.Inf(1)))
			refreshCRC(b)
			return b
		}},
		{"zero observations", func(b []byte) []byte { le.PutUint64(entry(b, 1)[40:], 0); refreshCRC(b); return b }},
		{"oversized observations", func(b []byte) []byte {
			le.PutUint64(entry(b, 1)[40:], math.MaxInt64+1)
			refreshCRC(b)
			return b
		}},
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			raw := c.mutate(append([]byte(nil), valid...))
			q := NewPlanner(6)
			n, err := q.Decode(bytes.NewReader(raw))
			if !errors.Is(err, ErrCorruptStore) {
				t.Fatalf("Decode = (%d, %v), want ErrCorruptStore", n, err)
			}
			if _, ok := q.Tuned(ShapeKey{N: 1024, Dist: DistUniform, Accuracy: "fast"}, Request{}); ok {
				t.Fatal("corrupt store partially loaded into the planner")
			}
		})
	}
}

func TestStoreSaveLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "plans.nbp")

	// Missing file: a cold start, not an error.
	q := NewPlanner(6)
	if n, err := q.Load(path); n != 0 || err != nil {
		t.Fatalf("Load(missing) = (%d, %v), want (0, nil)", n, err)
	}
	if c := q.Counters(); c.StoreLoads != 0 {
		t.Fatalf("missing-file load counted as a store load: %+v", c)
	}

	p := storeFixture(t)
	if err := p.Save(path); err != nil {
		t.Fatal(err)
	}
	if c := p.Counters(); c.StoreSaves != 1 {
		t.Fatalf("StoreSaves = %d, want 1", c.StoreSaves)
	}
	// No temp droppings from the atomic write.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "plans.nbp" {
		t.Fatalf("store directory holds %v, want only plans.nbp", ents)
	}

	if n, err := q.Load(path); n != 3 || err != nil {
		t.Fatalf("Load = (%d, %v), want (3, nil)", n, err)
	}
	got, ok := q.Tuned(ShapeKey{N: 1024, Dist: DistUniform, Accuracy: "fast"}, Request{})
	if !ok || got.Depth != 3 {
		t.Fatalf("loaded entry = %+v ok=%v", got, ok)
	}

	// A corrupt file on disk is a loud error naming the path.
	if err := os.WriteFile(path, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewPlanner(6).Load(path); !errors.Is(err, ErrCorruptStore) {
		t.Fatalf("Load(corrupt) = %v, want ErrCorruptStore", err)
	}
}

// FuzzStoreDecode feeds arbitrary bytes into the store reader: it must
// never panic, never partially load, and accept only inputs it could have
// written. Accepted inputs must re-encode successfully.
func FuzzStoreDecode(f *testing.F) {
	var empty, full bytes.Buffer
	if err := NewPlanner(6).Encode(&empty); err != nil {
		f.Fatal(err)
	}
	p := NewPlanner(6)
	key := Key{Shape: ShapeKey{N: 1024, Dist: DistUniform, Accuracy: "fast"}, Plan: Plan{Depth: 3, K: 12}}
	p.Observe(key, 4*time.Millisecond)
	p.Observe(key, 4*time.Millisecond)
	if err := p.Encode(&full); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())
	f.Add(full.Bytes())
	f.Add([]byte{})
	f.Add([]byte("NBODYPLN"))
	flipped := append([]byte(nil), full.Bytes()...)
	flipped[len(flipped)/2] ^= 0x20
	f.Add(flipped)
	truncated := append([]byte(nil), full.Bytes()...)
	f.Add(truncated[:len(truncated)-5])

	f.Fuzz(func(t *testing.T, data []byte) {
		q := NewPlanner(6)
		n, err := q.Decode(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorruptStore) {
				t.Fatalf("Decode error %v does not wrap ErrCorruptStore", err)
			}
			return
		}
		if n < 0 {
			t.Fatalf("Decode reported %d entries", n)
		}
		var buf bytes.Buffer
		if err := q.Encode(&buf); err != nil {
			t.Fatalf("re-encoding an accepted store failed: %v", err)
		}
	})
}
