package arch

import (
	"fmt"
	"sync"
	"testing"

	"multipass/internal/isa"
)

// privateCopy returns a memory with m's contents that shares nothing with
// it, built through the binary encoding.
func privateCopy(t testing.TB, m *Memory) *Memory {
	t.Helper()
	data, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	c := NewMemory()
	if err := c.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	return c
}

// pageOf returns m's page pn, or nil if it is absent.
func pageOf(m *Memory, pn uint32) *[pageSize]byte {
	if l := m.top[pn>>leafShift]; l != nil {
		return l.pages[pn&leafMask]
	}
	return nil
}

// TestCloneChainMatchesPrivateCopy drives a memory through several
// write/clone rounds, cloning the live memory and the previous clone each
// round, and checks every clone equals a private copy taken at the same
// instant. Every clone must then be immune to later writes through the
// source and through every other clone.
func TestCloneChainMatchesPrivateCopy(t *testing.T) {
	m := NewMemory()
	var clones, wants []*Memory
	take := func(c *Memory) {
		wants = append(wants, privateCopy(t, c))
		clones = append(clones, c.Clone())
	}
	write := func(addrs ...uint32) {
		for i, a := range addrs {
			m.Store(a, 4, uint64(0xdead0000+uint32(i)))
		}
		take(m)
		take(clones[len(clones)-1])
	}

	write(0x1000, 0x2000)         // two fresh pages
	write(0x2004)                 // one existing page
	write(0x7ff_f000, 0x10)       // high page + page 0
	write()                       // no stores at all: pure sharing
	write(0x1008, 0x1008, 0x1008) // repeated stores to one page
	write(0x2ffe)                 // store straddling 0x2000/0x3000 pages
	write(0xffff_fffe)            // store wrapping from the top page to page 0

	for i := range clones {
		if !clones[i].Equal(wants[i]) {
			t.Fatalf("clone %d differs from a private copy: %v", i, clones[i].DiffWords(wants[i], 4))
		}
	}

	// Write through the source and through every clone, mirroring each
	// clone's writes into its private copy.
	live := privateCopy(t, m)
	for _, a := range []uint32{0x1000, 0x2004, 0x2ffe, 0x7ff_f000} {
		m.Store(a, 4, 0xffffffff)
		live.Store(a, 4, 0xffffffff)
	}
	for i, c := range clones {
		for _, a := range []uint32{0x10, 0x1008, 0x2ffe, 0x5000} {
			v := uint64(0xc1000000 + i)
			c.Store(a, 4, v)
			wants[i].Store(a, 4, v)
		}
	}
	if !m.Equal(live) {
		t.Fatalf("source differs after writes: %v", m.DiffWords(live, 4))
	}
	for i := range clones {
		if !clones[i].Equal(wants[i]) {
			t.Fatalf("clone %d changed under writes elsewhere: %v", i, clones[i].DiffWords(wants[i], 4))
		}
	}
}

// TestCloneSharesCleanPages checks that pages untouched since a clone are
// shared by pointer between the two memories and that a written page is
// not, whichever side writes it.
func TestCloneSharesCleanPages(t *testing.T) {
	m := NewMemory()
	m.Store(0x1000, 8, 1)
	m.Store(0x2000, 8, 2)
	m.Store(0x3000, 8, 3)
	c := m.Clone()
	for pn := uint32(1); pn <= 3; pn++ {
		if pageOf(m, pn) == nil || pageOf(m, pn) != pageOf(c, pn) {
			t.Fatalf("page %d not shared after Clone", pn)
		}
	}

	m.Store(0x2008, 8, 4)
	c.Store(0x3008, 8, 5)
	if pageOf(m, 1) != pageOf(c, 1) {
		t.Errorf("clean page 1 no longer shared")
	}
	if pageOf(m, 2) == pageOf(c, 2) {
		t.Errorf("page 2, written by the source, still shared")
	}
	if pageOf(m, 3) == pageOf(c, 3) {
		t.Errorf("page 3, written by the clone, still shared")
	}
	if c.Load(0x2008, 8) != 0 || m.Load(0x3008, 8) != 0 {
		t.Errorf("a write leaked across the clone")
	}

	// A second write to an already private page writes in place.
	pg := pageOf(m, 2)
	m.Store(0x2010, 8, 6)
	if pageOf(m, 2) != pg {
		t.Errorf("private page 2 copied again")
	}
}

// TestCloneStraddleCopiesBothPages checks a store crossing a page boundary
// copies both pages it writes.
func TestCloneStraddleCopiesBothPages(t *testing.T) {
	m := NewMemory()
	m.Store(0x1000, 4, 1)
	m.Store(0x2000, 4, 2)
	c := m.Clone()
	want := privateCopy(t, m)

	m.Store(0x1ffe, 4, 0xaabbccdd) // straddles pages 1 and 2
	if pageOf(m, 1) == pageOf(c, 1) || pageOf(m, 2) == pageOf(c, 2) {
		t.Errorf("straddled pages should both be private copies")
	}
	if !c.Equal(want) {
		t.Fatalf("straddling store leaked into the clone: %v", c.DiffWords(want, 4))
	}
	if got := m.Load(0x1ffe, 4); got != 0xaabbccdd {
		t.Fatalf("straddling store read back %#x", got)
	}
}

// TestSuperblockStoresWriteOnlyOwnMemory checks the superblock
// interpreter's inline store path copies shared pages instead of writing
// them: running a kernel on a clone leaves the source image untouched, and
// a clone taken mid-run keeps its contents while the run continues.
func TestSuperblockStoresWriteOnlyOwnMemory(t *testing.T) {
	p := mustAssemble(t, loopSrc)
	sb := NewSBProgram(p)
	image := NewMemory()
	image.Store(4096, 4, 7)
	pristine := privateCopy(t, image)

	mem := image.Clone()
	st := NewState(mem)
	if _, err := sb.Exec(st, 40); err != nil {
		t.Fatal(err)
	}
	mid := mem.Clone()
	wantMid := privateCopy(t, mem)
	if _, err := sb.Exec(st, 1<<20); err != nil {
		t.Fatal(err)
	}
	ref, err := RunStepwise(p, pristine.Clone(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}

	if !image.Equal(pristine) {
		t.Fatalf("run wrote through to the source image: %v", image.DiffWords(pristine, 4))
	}
	if !mid.Equal(wantMid) {
		t.Fatalf("mid-run clone changed as the run continued: %v", mid.DiffWords(wantMid, 4))
	}
	if !mem.Equal(ref.State.Mem) {
		t.Fatalf("final memory differs from the step-wise run: %v", mem.DiffWords(ref.State.Mem, 4))
	}
}

// TestSuperblockStraddleStoreDropsCachedPage: a load caches a shared page
// in the superblock's page cache, then a page-straddling store (the slow
// path, through the memory's own methods) copies that page. The next load
// must read the new bytes from the copy, and the clone source must keep the
// old ones.
func TestSuperblockStraddleStoreDropsCachedPage(t *testing.T) {
	p := mustAssemble(t, `
	movi r1 = 8184
	movi r3 = -1
	ld4 r2 = [r1+0]
	st4 [r1+6] = r3
	ld4 r4 = [r1+4]
	halt
`)
	image := NewMemory()
	image.Store(0x1ff8, 8, 0x1122334455667788)
	image.Store(0x2000, 4, 0x99aabbcc)
	pristine := privateCopy(t, image)

	res, err := NewSBProgram(p).Run(image.Clone(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.State.RF.Read(isa.IntReg(2)).Uint32(), uint32(0x55667788); got != want {
		t.Fatalf("first load = %#x, want %#x", got, want)
	}
	if got, want := res.State.RF.Read(isa.IntReg(4)).Uint32(), uint32(0xffff3344); got != want {
		t.Fatalf("load after the straddling store = %#x, want %#x", got, want)
	}
	if got, want := res.State.Mem.Load(0x2000, 4), uint64(0x99aaffff); got != want {
		t.Fatalf("second straddled page = %#x, want %#x", got, want)
	}
	if !image.Equal(pristine) {
		t.Fatalf("straddling store wrote through to the clone source: %v", image.DiffWords(pristine, 4))
	}
}

// TestCloneConcurrent has eight goroutines clone one image at once, as the
// server's program memo and prepared benchmark binaries do, and write every
// page of their own clone. Each clone must hold exactly its own writes and
// the image none of them. Run it under -race.
func TestCloneConcurrent(t *testing.T) {
	const workers, pages = 8, 64
	// Page k alternates between the first two leaves.
	addr := func(k uint32) uint32 { return (k%2*leafSize + k/2) << pageShift }
	image := NewMemory()
	for k := uint32(0); k < pages; k++ {
		image.Store(addr(k), 4, uint64(k))
	}
	pristine := privateCopy(t, image)

	clones := make([]*Memory, workers)
	var wg sync.WaitGroup
	for w := range clones {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := image.Clone()
			for k := uint32(0); k < pages; k++ {
				c.Store(addr(k)+8, 4, uint64(w))
			}
			clones[w] = c
		}()
	}
	wg.Wait()

	if !image.Equal(pristine) {
		t.Fatalf("image changed: %v", image.DiffWords(pristine, 4))
	}
	for w, c := range clones {
		want := privateCopy(t, pristine)
		for k := uint32(0); k < pages; k++ {
			want.Store(addr(k)+8, 4, uint64(w))
		}
		if !c.Equal(want) {
			t.Fatalf("clone %d: %v", w, c.DiffWords(want, 4))
		}
	}
}

// TestCloneConcurrentSuperblock runs a kernel on eight clones of one image
// at once through the superblock interpreter, checking each final memory
// against a step-wise run. Run it under -race.
func TestCloneConcurrentSuperblock(t *testing.T) {
	p := mustAssemble(t, loopSrc)
	sb := NewSBProgram(p)
	image := NewMemory()
	image.Store(4096, 4, 7)
	ref, err := RunStepwise(p, image.Clone(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]error, 8)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := sb.Run(image.Clone(), 1<<20)
			if err == nil && !res.State.Mem.Equal(ref.State.Mem) {
				err = fmt.Errorf("final memory differs: %v", res.State.Mem.DiffWords(ref.State.Mem, 4))
			}
			errs[w] = err
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", w, err)
		}
	}
}
