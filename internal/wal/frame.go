// Package wal is the repository's one durable log: the CRC frame codec,
// the append/fsync/replay/truncate/compact file discipline built on it,
// and the atomic file replace. The checkpoint journal (internal/ckptlog),
// the control-plane store (internal/ctrlplane) and the migration spool
// and wire (internal/failover, internal/core) are record schemas over
// it; none of them touches a frame byte, an fsync, a rename or a
// truncate themselves. DESIGN.md "Durable log" is the reference.
package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"

	"gvrt/internal/api"
)

// Frame is one CRC-framed record. Kind is the schema's record type
// (non-zero, so a zeroed region can never pass for a record), ID an
// opaque owner (the journal's context, the migration's session, 0 for
// the store), Seq the log's monotonic sequence number, and Payload the
// record body, integrity-checked separately from the header.
type Frame struct {
	Kind    uint8
	ID      int64
	Seq     uint64
	Payload []byte
}

// Frame layout (little-endian):
//
//	offset 0  magic   uint32  "GVCK"
//	offset 4  kind    uint8
//	offset 5  id      int64
//	offset 13 seq     uint64
//	offset 21 len     uint32  payload length
//	offset 25 hdrCRC  uint32  CRC-32C of bytes [0,25)
//	offset 29 payload
//	...       payCRC  uint32  CRC-32C of the payload
//
// The split CRC is what powers selective quarantine: an intact header
// with a corrupt payload still gives the record's kind, owner and
// extent, so a schema can drop exactly that owner and the scan can
// continue at the next frame. A corrupt header leaves the extent
// unknowable — the remainder is a torn tail.
const (
	frameMagic = 0x4756434b // "GVCK"
	// HeaderLen is the offset of the payload inside an encoded frame.
	HeaderLen = 29
	tailLen   = 4
	// MaxPayload bounds a frame; a larger length field is corruption,
	// never a multi-gigabyte read.
	MaxPayload = 1 << 28
)

// Castagnoli is the CRC-32C table behind every checksum in the repo:
// frames here and migration chunk refs.
var Castagnoli = crc32.MakeTable(crc32.Castagnoli)

// EncodeFrame appends the framed record to buf and returns it.
func EncodeFrame(buf []byte, f Frame) []byte {
	var hdr [HeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], frameMagic)
	hdr[4] = f.Kind
	binary.LittleEndian.PutUint64(hdr[5:], uint64(f.ID))
	binary.LittleEndian.PutUint64(hdr[13:], f.Seq)
	binary.LittleEndian.PutUint32(hdr[21:], uint32(len(f.Payload)))
	binary.LittleEndian.PutUint32(hdr[25:], crc32.Checksum(hdr[:25], Castagnoli))
	buf = append(buf, hdr[:]...)
	buf = append(buf, f.Payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(f.Payload, Castagnoli))
}

// Class classifies one frame-decode attempt.
type Class int

const (
	// OK: a complete, fully verified frame.
	OK Class = iota
	// Torn: the data ends mid-frame or the header is corrupt; the
	// frame's extent is unknowable, so everything from its start is a
	// torn tail.
	Torn
	// CorruptPayload: the header verified but the payload did not — the
	// frame's Kind, ID and Seq are trustworthy, its Payload is nil, and
	// scanning can continue after it.
	CorruptPayload
)

// DecodeFrame decodes one frame from the head of data. n is the number
// of bytes consumed (0 when Torn). The returned payload aliases data. It
// never panics on arbitrary input.
func DecodeFrame(data []byte) (f Frame, n int, c Class) {
	if len(data) < HeaderLen {
		return Frame{}, 0, Torn
	}
	hdr := data[:HeaderLen]
	if binary.LittleEndian.Uint32(hdr[0:]) != frameMagic ||
		binary.LittleEndian.Uint32(hdr[25:]) != crc32.Checksum(hdr[:25], Castagnoli) {
		return Frame{}, 0, Torn
	}
	plen := binary.LittleEndian.Uint32(hdr[21:])
	if plen > MaxPayload {
		return Frame{}, 0, Torn
	}
	total := HeaderLen + int(plen) + tailLen
	if len(data) < total {
		return Frame{}, 0, Torn
	}
	f = Frame{
		Kind: hdr[4],
		ID:   int64(binary.LittleEndian.Uint64(hdr[5:])),
		Seq:  binary.LittleEndian.Uint64(hdr[13:]),
	}
	payload := data[HeaderLen : HeaderLen+int(plen)]
	if crc32.Checksum(payload, Castagnoli) != binary.LittleEndian.Uint32(data[HeaderLen+int(plen):]) {
		return f, total, CorruptPayload
	}
	f.Payload = payload
	return f, total, OK
}

// EncodeGob gob-encodes v as a self-contained record payload.
func EncodeGob(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("wal: encoding %T: %w", v, err)
	}
	return buf.Bytes(), nil
}

// DecodeGob gob-decodes a record payload into v. Any failure — an
// oversized input, a malformed stream, a panic inside the gob decoder
// on hostile bytes — is an error wrapping api.ErrInvalidValue, never a
// crash: payloads are disk or network bytes that passed a CRC only by
// construction or by fuzzing.
func DecodeGob(data []byte, v any) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("wal: decoding %T panicked: %v: %w", v, r, api.ErrInvalidValue)
		}
	}()
	if len(data) > MaxPayload {
		return fmt.Errorf("wal: decoding %T: %d-byte payload over limit: %w", v, len(data), api.ErrInvalidValue)
	}
	if derr := gob.NewDecoder(bytes.NewReader(data)).Decode(v); derr != nil {
		return fmt.Errorf("wal: decoding %T: %v: %w", v, derr, api.ErrInvalidValue)
	}
	return nil
}
