// Package frame is the repository's one framed-record codec: the
// self-describing envelope the simulation checkpoint (and the resume tokens
// riding it) and the tuned-plan store both wrap around their payloads, and
// the atomic file write both persist through. A frame is (all integers
// little-endian):
//
//	offset  size       field
//	0       8          magic (per format, never changes)
//	8       4          version (uint32)
//	12      8          payload length in bytes (uint64)
//	20      len        payload (the caller's layout)
//	20+len  4          CRC32C (Castagnoli) of the payload
//
// Readers reject any version they do not know rather than guessing; the
// payload length is checked by the caller's structural rule before a byte
// of payload is read, so torn or forged records fail before any field is
// trusted, and the trailing CRC32C catches the bit rot structure cannot.
// Every decode failure wraps the format's own sentinel — corrupt input
// never panics and never yields a partial payload.
package frame

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// HeaderLen is the size of the magic + version + length prefix.
const HeaderLen = 8 + 4 + 8

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the frame trailer of payload.
func Checksum(payload []byte) uint32 { return crc32.Checksum(payload, crcTable) }

// Format identifies one kind of framed record.
type Format struct {
	Magic   [8]byte
	Version uint32
	// Corrupt is the sentinel every Read failure wraps.
	Corrupt error
}

// Corruptf wraps the format's sentinel with detail; callers use it for
// their payload-field validation so frame and field damage read alike.
func (f Format) Corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", f.Corrupt, fmt.Sprintf(format, args...))
}

// Write emits one frame around payload.
func (f Format) Write(w io.Writer, payload []byte) error {
	le := binary.LittleEndian
	var hdr [HeaderLen]byte
	copy(hdr[:8], f.Magic[:])
	le.PutUint32(hdr[8:], f.Version)
	le.PutUint64(hdr[12:], uint64(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	var crc [4]byte
	le.PutUint32(crc[:], Checksum(payload))
	_, err := w.Write(crc[:])
	return err
}

// Read parses and verifies one frame from r and returns its payload.
// checkLen is the caller's structural rule for the declared payload length
// (minimum size, record alignment, entry cap); it runs before any payload
// byte is read, and its error text becomes the corruption detail.
func (f Format) Read(r io.Reader, checkLen func(plen uint64) error) ([]byte, error) {
	le := binary.LittleEndian
	var hdr [HeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, f.Corruptf("truncated header (%v)", err)
	}
	if [8]byte(hdr[:8]) != f.Magic {
		return nil, f.Corruptf("bad magic %q", hdr[:8])
	}
	if v := le.Uint32(hdr[8:]); v != f.Version {
		return nil, f.Corruptf("unsupported version %d (want %d)", v, f.Version)
	}
	plen := le.Uint64(hdr[12:])
	if err := checkLen(plen); err != nil {
		return nil, f.Corruptf("%v", err)
	}
	payload, err := readFullLimited(r, plen)
	if err != nil {
		return nil, f.Corruptf("truncated payload (%v)", err)
	}
	var crc [4]byte
	if _, err := io.ReadFull(r, crc[:]); err != nil {
		return nil, f.Corruptf("truncated checksum (%v)", err)
	}
	if got, want := Checksum(payload), le.Uint32(crc[:]); got != want {
		return nil, f.Corruptf("checksum mismatch (computed %08x, stored %08x)", got, want)
	}
	return payload, nil
}

// readFullLimited reads exactly want bytes, growing the buffer only as
// data actually arrives, so a forged length field cannot force a huge
// up-front allocation.
func readFullLimited(r io.Reader, want uint64) ([]byte, error) {
	const chunk = 1 << 20
	buf := make([]byte, 0, min(want, chunk))
	for uint64(len(buf)) < want {
		start := len(buf)
		buf = append(buf, make([]byte, min(want-uint64(start), chunk))...)
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// WriteFileAtomic streams fill into a temporary file next to path, fsyncs
// it, renames it over path, and fsyncs the directory so the rename itself
// is durable. A crash at any point leaves either the previous file or the
// new one — never a readable-but-torn file. fill's own error is returned
// unwrapped.
func WriteFileAtomic(path string, fill func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer func() {
		if tmp != "" {
			f.Close()
			os.Remove(tmp)
		}
	}()
	bw := bufio.NewWriter(f)
	if err := fill(bw); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	tmp = "" // committed: disable the cleanup
	if d, derr := os.Open(dir); derr == nil {
		d.Sync()
		d.Close()
	}
	return nil
}
