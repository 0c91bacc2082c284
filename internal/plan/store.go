package plan

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"nbody/internal/frame"
)

// Tuned-plan store format, version 1: one internal/frame record (magic
// "NBODYPLN", version, payload length, payload, CRC32C) — the same envelope
// as the simulation checkpoint — whose payload, for c tuned entries (length
// = 8 + 48c, all integers and float bit patterns little-endian), is:
//
//	0       8          entry count c (uint64)
//	8       48 each    entries:
//	  +0    8          n (uint64)
//	  +8    4          dims (uint32; 0 means 3)
//	  +12   4          k (uint32)
//	  +16   4          depth (uint32)
//	  +20   4          distribution code (uint32: 0 unknown, 1 uniform,
//	                   2 clustered, 3 peaked)
//	  +24   4          flags (uint32: bit 0 supernodes, bit 1 sim)
//	  +28   4          reserved (written zero, ignored on read)
//	  +32   8          measured seconds (float64 bits)
//	  +40   8          observation count (uint64)
//
// Version rules mirror the checkpoint's: the magic never changes, readers
// reject unknown versions with ErrCorruptStore rather than guessing, and
// the payload length is written redundantly with the entry count so torn or
// forged records fail structural validation before any field is trusted.
// The trailing CRC32C catches the bit rot structure cannot.
const (
	storeVersion  = 1
	storeEntryLen = 48
	// storeMaxEntries bounds what a reader will accept: far above any real
	// tuned table, far below anything that could hurt.
	storeMaxEntries = 1 << 20
)

// ErrCorruptStore marks a tuned-plan store that failed structural or
// checksum validation. A corrupt store never panics, never loads partially,
// and never yields a silently wrong plan.
var ErrCorruptStore = errors.New("plan: corrupt tuned-plan store")

var storeFormat = frame.Format{
	Magic:   [8]byte{'N', 'B', 'O', 'D', 'Y', 'P', 'L', 'N'},
	Version: storeVersion,
	Corrupt: ErrCorruptStore,
}

// distCode maps fingerprint buckets onto their wire codes (and back).
var distCodes = map[string]uint32{"": 0, DistUniform: 1, DistClustered: 2, DistPeaked: 3}
var distNames = map[uint32]string{0: "", 1: DistUniform, 2: DistClustered, 3: DistPeaked}

// Encode writes the planner's tuned table to w in the versioned format
// above. Entries are emitted in a deterministic (sorted) order so equal
// tables produce bitwise-equal stores.
func (p *Planner) Encode(w io.Writer) error {
	p.mu.Lock()
	keys := make([]tuneKey, 0, len(p.tuned))
	for k := range p.tuned {
		keys = append(keys, k)
	}
	entries := make(map[tuneKey]TunedPlan, len(keys))
	for _, k := range keys {
		entries[k] = *p.tuned[k]
	}
	p.mu.Unlock()

	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		switch {
		case a.N != b.N:
			return a.N < b.N
		case a.Dist != b.Dist:
			return a.Dist < b.Dist
		case a.K != b.K:
			return a.K < b.K
		case a.Dims != b.Dims:
			return a.Dims < b.Dims
		case a.Supernodes != b.Supernodes:
			return !a.Supernodes
		default:
			return !a.Sim && b.Sim
		}
	})

	le := binary.LittleEndian
	payload := make([]byte, 8+storeEntryLen*len(keys))
	le.PutUint64(payload[0:], uint64(len(keys)))
	off := 8
	for _, k := range keys {
		t := entries[k]
		var flags uint32
		if k.Supernodes {
			flags |= 1
		}
		if k.Sim {
			flags |= 2
		}
		le.PutUint64(payload[off:], uint64(k.N))
		le.PutUint32(payload[off+8:], uint32(k.Dims))
		le.PutUint32(payload[off+12:], uint32(k.K))
		le.PutUint32(payload[off+16:], uint32(t.Depth))
		le.PutUint32(payload[off+20:], distCodes[k.Dist])
		le.PutUint32(payload[off+24:], flags)
		le.PutUint32(payload[off+28:], 0)
		le.PutUint64(payload[off+32:], math.Float64bits(t.Seconds))
		le.PutUint64(payload[off+40:], uint64(t.Obs))
		off += storeEntryLen
	}
	if err := storeFormat.Write(w, payload); err != nil {
		return fmt.Errorf("plan: write store: %w", err)
	}
	return nil
}

// Decode reads a tuned table written by Encode and merges it into the
// planner (loaded entries win over in-memory ones — the store is the
// warmer evidence). Any structural damage — bad magic, unknown version,
// truncation, length/count inconsistency, checksum mismatch, out-of-range
// fields — is reported with ErrCorruptStore and leaves the planner
// untouched. Returns the number of entries loaded.
func (p *Planner) Decode(r io.Reader) (int, error) {
	payload, err := storeFormat.Read(r, func(plen uint64) error {
		if plen < 8 || (plen-8)%storeEntryLen != 0 {
			return fmt.Errorf("implausible payload length %d", plen)
		}
		if (plen-8)/storeEntryLen > storeMaxEntries {
			return fmt.Errorf("entry count %d over limit", (plen-8)/storeEntryLen)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	le, storeCorruptf := binary.LittleEndian, storeFormat.Corruptf
	plen := uint64(len(payload))

	count := le.Uint64(payload[0:])
	if want := uint64(8 + storeEntryLen*count); count > storeMaxEntries || want != plen {
		return 0, storeCorruptf("entry count %d inconsistent with payload length %d", count, plen)
	}
	type loaded struct {
		key tuneKey
		t   TunedPlan
	}
	entries := make([]loaded, 0, count)
	off := 8
	for i := uint64(0); i < count; i++ {
		n := le.Uint64(payload[off:])
		dims := le.Uint32(payload[off+8:])
		k := le.Uint32(payload[off+12:])
		depth := le.Uint32(payload[off+16:])
		dist := le.Uint32(payload[off+20:])
		flags := le.Uint32(payload[off+24:])
		sec := math.Float64frombits(le.Uint64(payload[off+32:]))
		obs := le.Uint64(payload[off+40:])
		off += storeEntryLen

		distName, ok := distNames[dist]
		if !ok {
			return 0, storeCorruptf("entry %d: unknown distribution code %d", i, dist)
		}
		switch {
		case n == 0 || n > math.MaxInt32:
			return 0, storeCorruptf("entry %d: implausible n %d", i, n)
		case dims != 0 && dims != 2 && dims != 3:
			return 0, storeCorruptf("entry %d: implausible dims %d", i, dims)
		case k == 0 || k > 1<<16:
			return 0, storeCorruptf("entry %d: implausible k %d", i, k)
		case depth < 2 || depth > 64:
			return 0, storeCorruptf("entry %d: implausible depth %d", i, depth)
		case flags&^uint32(3) != 0:
			return 0, storeCorruptf("entry %d: unknown flags %#x", i, flags)
		case !(sec > 0) || math.IsInf(sec, 0):
			return 0, storeCorruptf("entry %d: non-positive measured seconds", i)
		case obs == 0 || obs > math.MaxInt64:
			return 0, storeCorruptf("entry %d: implausible observation count %d", i, obs)
		}
		entries = append(entries, loaded{
			key: tuneKey{
				N:          int(n),
				Dist:       distName,
				K:          int(k),
				Dims:       int(dims),
				Supernodes: flags&1 != 0,
				Sim:        flags&2 != 0,
			},
			t: TunedPlan{Depth: int(depth), Seconds: sec, Obs: int64(obs)},
		})
	}

	p.mu.Lock()
	for _, e := range entries {
		t := e.t
		p.tuned[e.key] = &t
	}
	p.mu.Unlock()
	return len(entries), nil
}

// Save writes the tuned table to path atomically: into a temporary file in
// the same directory, fsynced, then renamed over path — a crash leaves
// either the previous store or the new one, never a torn file.
func (p *Planner) Save(path string) error {
	if err := frame.WriteFileAtomic(path, p.Encode); err != nil {
		return fmt.Errorf("plan: save store %s: %w", path, err)
	}
	p.mu.Lock()
	p.counters.StoreSaves++
	p.mu.Unlock()
	return nil
}

// Load merges the tuned table at path into the planner. A missing file is
// not an error — a cold start simply has nothing to warm from — and
// returns (0, nil). Returns the number of entries loaded.
func (p *Planner) Load(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("plan: load store %s: %w", path, err)
	}
	defer f.Close()
	n, err := p.Decode(bufio.NewReader(f))
	if err != nil {
		return 0, fmt.Errorf("load store %s: %w", path, err)
	}
	p.mu.Lock()
	p.counters.StoreLoads++
	p.mu.Unlock()
	return n, nil
}
