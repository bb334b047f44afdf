package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"testing"

	"gvrt/internal/api"
)

// TestFrameGoldenBytes pins the on-disk encoding. The hex literals were
// produced by the pre-wal ckptlog.encodeFrame (commit 7fd04ea): journals,
// stores and snapshots written before this package existed must keep
// decoding, and new ones must stay readable by old binaries.
func TestFrameGoldenBytes(t *testing.T) {
	for _, tc := range []struct {
		f    Frame
		want string
	}{
		{Frame{Kind: 7, ID: 0x0102030405060708, Seq: 0x1112131415161718, Payload: []byte("payload")},
			"4b435647070807060504030201181716151413121107000000889c24e37061796c6f61647069e3f4"},
		{Frame{Kind: 8, ID: -2, Seq: 1},
			"4b43564708feffffffffffffff01000000000000000000000018dc584800000000"},
	} {
		got := EncodeFrame(nil, tc.f)
		if hex.EncodeToString(got) != tc.want {
			t.Fatalf("EncodeFrame(%+v) = %x, want %s", tc.f, got, tc.want)
		}
		f, n, c := DecodeFrame(got)
		if c != OK || n != len(got) || f.Kind != tc.f.Kind || f.ID != tc.f.ID || f.Seq != tc.f.Seq || !bytes.Equal(f.Payload, tc.f.Payload) {
			t.Fatalf("DecodeFrame(golden) = %+v, %d, %v", f, n, c)
		}
	}
}

func TestFrameConcatenated(t *testing.T) {
	one := EncodeFrame(nil, Frame{Kind: 3, ID: 42, Seq: 7, Payload: []byte("chunk bytes")})
	two := EncodeFrame(one, Frame{Kind: 4, ID: 42, Seq: 8})
	if _, n, c := DecodeFrame(two); c != OK || n != len(one) {
		t.Fatalf("first of two frames: %v, %d", c, n)
	}
	if f, _, c := DecodeFrame(two[len(one):]); c != OK || f.Kind != 4 || f.Seq != 8 {
		t.Fatalf("second of two frames: %v, %+v", c, f)
	}
}

func TestFrameClassification(t *testing.T) {
	valid := EncodeFrame(nil, Frame{Kind: 1, ID: 1, Payload: []byte("abcdef")})

	// Every strict prefix is torn: nothing consumed, never OK.
	for cut := 0; cut < len(valid); cut++ {
		if _, n, c := DecodeFrame(valid[:cut]); c != Torn || n != 0 {
			t.Fatalf("prefix of %d bytes classified %v (n=%d), want Torn", cut, c, n)
		}
	}
	// A flipped byte anywhere is detected: in the header the extent is
	// unknowable (Torn), in the payload or its CRC the header still
	// names kind, owner and extent (CorruptPayload, payload withheld).
	for i := range valid {
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0xff
		f, n, c := DecodeFrame(mut)
		want := Torn
		if i >= HeaderLen {
			want = CorruptPayload
		}
		if c != want {
			t.Fatalf("flipping byte %d classified %v, want %v", i, c, want)
		}
		if c == CorruptPayload && (n != len(valid) || f.Kind != 1 || f.ID != 1 || f.Payload != nil) {
			t.Fatalf("corrupt payload at byte %d: frame %+v, n=%d", i, f, n)
		}
	}
	// An absurd length under a valid header CRC is torn, not a huge read.
	big := EncodeFrame(nil, Frame{Kind: 1})
	binary.LittleEndian.PutUint32(big[21:], MaxPayload+1)
	binary.LittleEndian.PutUint32(big[25:], crc32.Checksum(big[:25], Castagnoli))
	if _, _, c := DecodeFrame(big); c != Torn {
		t.Fatalf("oversized length classified %v, want Torn", c)
	}
}

type gobShape struct {
	Name  string
	Vals  []uint64
	Inner struct {
		Data []byte
		Keys []string
	}
}

func TestDecodeGobHostileBytes(t *testing.T) {
	for _, junk := range [][]byte{nil, []byte("definitely not gob"), {0x07, 0xff, 0x81, 0x01}} {
		var v gobShape
		err := DecodeGob(junk, &v)
		if err == nil {
			t.Fatalf("DecodeGob(%q) decoded", junk)
		}
		// Typed, so the import path maps it to the right wire code.
		if api.Code(err) != api.ErrInvalidValue {
			t.Fatalf("DecodeGob(%q) = %v, want api.ErrInvalidValue", junk, err)
		}
	}
	in := gobShape{Name: "x", Vals: []uint64{1, 2}}
	p, err := EncodeGob(in)
	if err != nil {
		t.Fatal(err)
	}
	var out gobShape
	if err := DecodeGob(p, &out); err != nil || out.Name != "x" || len(out.Vals) != 2 {
		t.Fatalf("round trip = %+v, %v", out, err)
	}
}

// FuzzDecodeFrame is the one frame-decoder fuzz target (journal and
// store bytes on disk, hostile migration frames on the wire): for any
// input DecodeFrame must not panic, must never consume more than it was
// given, must consume nothing it calls torn, and everything it accepts
// must re-encode to exactly the bytes it consumed — the decoder accepts
// no frame the encoder would not produce.
func FuzzDecodeFrame(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("KCVG"))
	valid := EncodeFrame(nil, Frame{Kind: 3, ID: 3, Seq: 9, Payload: []byte("payload")})
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(EncodeFrame(nil, Frame{Kind: 8, ID: 7, Seq: 42}))
	hdr := append([]byte(nil), valid...)
	hdr[7] ^= 0x10
	f.Add(hdr)
	pay := append([]byte(nil), valid...)
	pay[HeaderLen] ^= 0xff
	f.Add(pay)
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, c := DecodeFrame(data)
		if n < 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		switch c {
		case OK:
			if got := EncodeFrame(nil, fr); !bytes.Equal(got, data[:n]) {
				t.Fatalf("re-encode differs from consumed bytes: %x != %x", got, data[:n])
			}
			// An accepted payload must never panic the gob layer.
			var v gobShape
			_ = DecodeGob(fr.Payload, &v)
		case Torn:
			if n != 0 {
				t.Fatalf("torn frame consumed %d bytes", n)
			}
		case CorruptPayload:
			if n < HeaderLen+tailLen || fr.Payload != nil {
				t.Fatalf("corrupt payload: n=%d payload=%x", n, fr.Payload)
			}
		default:
			t.Fatalf("unknown class %v", c)
		}
	})
}

// FuzzDecodeGob feeds arbitrary bytes to the payload decoder: success
// or an error typed api.ErrInvalidValue, never a panic.
func FuzzDecodeGob(f *testing.F) {
	f.Add([]byte{})
	if p, err := EncodeGob(gobShape{Name: "seed", Vals: []uint64{256}}); err == nil {
		f.Add(p)
	}
	if p, err := EncodeGob(snapHeader{AppliedSeq: 42}); err == nil {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, v := range []any{new(gobShape), new(snapHeader), new([]string)} {
			if err := DecodeGob(data, v); err != nil && !errors.Is(err, api.ErrInvalidValue) {
				t.Fatalf("DecodeGob(%T) = untyped error %v", v, err)
			}
		}
	})
}
