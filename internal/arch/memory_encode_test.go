package arch

import (
	"bytes"
	"testing"
)

// TestMemoryEncodeRoundTrip: a sparse memory image survives
// MarshalBinary/UnmarshalBinary byte-for-byte, including pages far apart in
// the address space, and the encoding itself is deterministic.
func TestMemoryEncodeRoundTrip(t *testing.T) {
	m := NewMemory()
	// Touch several pages, including non-adjacent ones and a page boundary
	// straddle, so the round trip exercises the sparse layout.
	m.Store(0x0000, 8, 0x0123456789abcdef)
	m.Store(0x0ffc, 8, 0xfeedface55aa33cc) // straddles pages 0 and 1
	m.Store(0x8000, 4, 0xdeadbeef)
	m.Store(0xfff000, 2, 0xbeef)

	data, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	again, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Error("MarshalBinary is not deterministic")
	}

	got := NewMemory()
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Error("decoded memory differs from the original")
	}
	for _, addr := range []uint32{0x0000, 0x0ffc, 0x8000, 0xfff000} {
		if got.Load(addr, 8) != m.Load(addr, 8) {
			t.Errorf("addr %#x: decoded %#x, want %#x", addr, got.Load(addr, 8), m.Load(addr, 8))
		}
	}
}

// TestMemoryEncodeEmpty: an untouched memory round-trips to an untouched
// memory.
func TestMemoryEncodeEmpty(t *testing.T) {
	data, err := NewMemory().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got := NewMemory()
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if got.FootprintBytes() != 0 {
		t.Errorf("decoded empty memory has %d footprint bytes", got.FootprintBytes())
	}
}

// TestMemoryDecodeRejectsCorruption: the decoder refuses bad magic,
// truncation, and trailing garbage rather than building a wrong image.
func TestMemoryDecodeRejectsCorruption(t *testing.T) {
	m := NewMemory()
	m.Store(0x1000, 8, 0x1122334455667788)
	data, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	// Page 1<<20 would start at address 1<<32.
	outside := append([]byte{}, data...)
	outside[12], outside[13], outside[14], outside[15] = 0, 0, 0x10, 0
	dup := append(append([]byte{}, data...), data[12:]...)
	dup[8] = 2

	cases := map[string][]byte{
		"bad magic":    append([]byte("XXXXXXXX"), data[8:]...),
		"truncated":    data[:len(data)-10],
		"trailing":     append(append([]byte{}, data...), 0xff),
		"empty blob":   {},
		"page outside": outside,
		"duplicate":    dup,
	}
	for name, blob := range cases {
		if err := NewMemory().UnmarshalBinary(blob); err == nil {
			t.Errorf("%s: UnmarshalBinary accepted corrupt input", name)
		}
	}
}
