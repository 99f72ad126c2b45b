package arch

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
)

// Binary memory-image format: a fixed 8-byte magic, a page count, then per
// page a 4-byte page number followed by the raw 4096-byte page. Pages are
// written in ascending page-number order so the encoding of a given memory
// is deterministic — the fabric's program-bundle content hashes depend on
// that. All integers little-endian; versioned through the magic string.

var memoryMagic = [8]byte{'M', 'P', 'M', 'E', 'M', '0', '1', '\n'}

// MarshalBinary serializes the memory image deterministically.
func (m *Memory) MarshalBinary() ([]byte, error) {
	n := m.FootprintBytes() / pageSize
	var buf bytes.Buffer
	buf.Grow(len(memoryMagic) + 4 + n*(4+pageSize))
	buf.Write(memoryMagic[:])
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(n))
	buf.Write(u32[:])
	m.eachPage(func(pn uint32, pg *[pageSize]byte) {
		binary.LittleEndian.PutUint32(u32[:], pn)
		buf.Write(u32[:])
		buf.Write(pg[:])
	})
	return buf.Bytes(), nil
}

// UnmarshalBinary deserializes an image written by MarshalBinary,
// replacing the memory's contents. The decoded pages are private to the
// memory.
func (m *Memory) UnmarshalBinary(data []byte) error {
	r := bytes.NewReader(data)
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil || magic != memoryMagic {
		return fmt.Errorf("arch: bad memory magic")
	}
	var u32 [4]byte
	if _, err := io.ReadFull(r, u32[:]); err != nil {
		return fmt.Errorf("arch: truncated memory image: %w", err)
	}
	n := binary.LittleEndian.Uint32(u32[:])
	if n > 1<<20 {
		return fmt.Errorf("arch: unreasonable page count %d", n)
	}
	var d Memory
	for i := uint32(0); i < n; i++ {
		if _, err := io.ReadFull(r, u32[:]); err != nil {
			return fmt.Errorf("arch: truncated memory image: %w", err)
		}
		pn := binary.LittleEndian.Uint32(u32[:])
		if pn>>leafShift >= leafSize {
			return fmt.Errorf("arch: page %d outside the 32-bit address space", pn)
		}
		if d.page(pn) != nil {
			return fmt.Errorf("arch: duplicate page %d in memory image", pn)
		}
		if _, err := io.ReadFull(r, d.own(pn)[:]); err != nil {
			return fmt.Errorf("arch: truncated memory image: %w", err)
		}
	}
	if r.Len() != 0 {
		return fmt.Errorf("arch: %d trailing bytes in memory image", r.Len())
	}
	m.top = d.top
	m.gen.Store(d.gen.Load())
	m.lastPG, m.lastGen = nil, 0
	return nil
}
