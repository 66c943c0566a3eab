package pagetable

import (
	"runtime"
	"testing"
	"testing/quick"

	"hatric/internal/arch"
)

func heapAlloc(t *testing.T) (alloc FrameAlloc, store *Store) {
	t.Helper()
	store = NewStore(256)
	next := arch.SPP(0)
	alloc = func() (arch.SPP, error) {
		f := next
		next++
		return f, nil
	}
	return alloc, store
}

func TestPTEEncoding(t *testing.T) {
	f := func(frame uint64, present bool) bool {
		frame &= (1 << 36) - 1
		e := MakePTE(frame, present)
		return e.Frame() == frame && e.Present() == present && !e.Accessed() && !e.Dirty()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPTEFlags(t *testing.T) {
	e := MakePTE(7, true)
	e = e.withFlag(FlagAccessed, true)
	if !e.Accessed() || e.Frame() != 7 {
		t.Errorf("accessed flag corrupted entry: %#x", uint64(e))
	}
	e = e.withFlag(FlagAccessed, false)
	if e.Accessed() {
		t.Errorf("flag clear failed")
	}
	if PTE(0).Valid() {
		t.Errorf("zero PTE should be invalid")
	}
}

func TestStoreBounds(t *testing.T) {
	s := NewStore(1)
	s.Write8(0, 42)
	if s.Read8(0) != 42 {
		t.Errorf("store roundtrip failed")
	}
	if !s.InHeap(4095) || s.InHeap(4096) {
		t.Errorf("InHeap boundary wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-heap read should panic")
		}
	}()
	s.Read8(4096)
}

// TestStoreGrowsOnFirstWrite checks the lazily materialized heap: a fresh
// store allocates less than one frame, unwritten words read as zero even
// below a written frame, InHeap still spans the whole heap, and accesses
// at or past the limit still panic.
func TestStoreGrowsOnFirstWrite(t *testing.T) {
	const frames = 2048
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := NewStore(frames)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= arch.PageSize {
		t.Errorf("NewStore(%d) allocated %d bytes before any write; want less than one %d-byte frame",
			frames, got, arch.PageSize)
	}

	limit := arch.SPA(frames * arch.PageSize)
	s.Write8(5*arch.PageSize+16, 42)
	for _, spa := range []arch.SPA{0, 3*arch.PageSize + 8, 5 * arch.PageSize, 5*arch.PageSize + 24, 6 * arch.PageSize, limit - 8} {
		if got := s.Read8(spa); got != 0 {
			t.Errorf("unwritten word %#x reads %d, want 0", uint64(spa), got)
		}
	}
	s.Write8(limit-8, 7)
	if s.Read8(5*arch.PageSize+16) != 42 || s.Read8(limit-8) != 7 {
		t.Errorf("written words lost across growth: %d, %d", s.Read8(5*arch.PageSize+16), s.Read8(limit-8))
	}
	if !s.InHeap(0) || !s.InHeap(limit-1) || s.InHeap(limit) {
		t.Errorf("InHeap boundary moved with the materialized prefix")
	}

	for _, c := range []struct {
		name   string
		access func()
	}{
		{"read at limit", func() { s.Read8(limit) }},
		{"write at limit", func() { s.Write8(limit, 1) }},
		{"read past limit", func() { s.Read8(limit + arch.PageSize) }},
		{"write past limit", func() { s.Write8(limit+arch.PageSize, 1) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			c.access()
		}()
	}
}

func TestNestedMapTranslate(t *testing.T) {
	alloc, store := heapAlloc(t)
	n, err := NewNestedPT(store, alloc)
	if err != nil {
		t.Fatal(err)
	}
	spa, err := n.Map(arch.GPP(0x1234), arch.SPP(99), true)
	if err != nil {
		t.Fatal(err)
	}
	if spa == 0 {
		t.Fatal("leaf SPA is zero")
	}
	spp, present, ok := n.Translate(0x1234)
	if !ok || !present || spp != 99 {
		t.Fatalf("translate: spp=%d present=%v ok=%v", spp, present, ok)
	}
	if _, _, ok := n.Translate(0x9999); ok {
		t.Errorf("unmapped GPP translated")
	}
}

func TestNestedWalkSPAs(t *testing.T) {
	alloc, store := heapAlloc(t)
	n, _ := NewNestedPT(store, alloc)
	gpp := arch.GPP(0xABCDE)
	leaf, err := n.Map(gpp, 7, true)
	if err != nil {
		t.Fatal(err)
	}
	spas, ok := n.WalkSPAs(gpp)
	if !ok {
		t.Fatal("walk failed on mapped GPP")
	}
	if len(spas) != arch.PTLevels {
		t.Fatalf("walk length %d", len(spas))
	}
	if spas[arch.PTLevels-1] != leaf {
		t.Errorf("leaf SPA mismatch: %#x vs %#x", uint64(spas[3]), uint64(leaf))
	}
	// Every step must read a valid interior entry.
	for i := 0; i < arch.PTLevels-1; i++ {
		if !store.ReadPTE(spas[i]).Valid() {
			t.Errorf("interior level %d invalid", 4-i)
		}
	}
	if _, ok := n.WalkSPAs(arch.GPP(0xF0000000)); ok {
		t.Errorf("walk of unmapped region succeeded")
	}
}

func TestNestedRemapKeepsLeafSPA(t *testing.T) {
	alloc, store := heapAlloc(t)
	n, _ := NewNestedPT(store, alloc)
	gpp := arch.GPP(500)
	spa1, _ := n.Map(gpp, 10, true)
	spa2, err := n.Remap(gpp, 20, true)
	if err != nil {
		t.Fatal(err)
	}
	if spa1 != spa2 {
		t.Errorf("remap moved the PTE: %#x -> %#x", uint64(spa1), uint64(spa2))
	}
	spp, present, _ := n.Translate(gpp)
	if spp != 20 || !present {
		t.Errorf("remap not visible: %d %v", spp, present)
	}
}

func TestNestedSetPresent(t *testing.T) {
	alloc, store := heapAlloc(t)
	n, _ := NewNestedPT(store, alloc)
	gpp := arch.GPP(77)
	n.Map(gpp, 5, true)
	if _, err := n.SetPresent(gpp, false); err != nil {
		t.Fatal(err)
	}
	spp, present, ok := n.Translate(gpp)
	if !ok || present {
		t.Errorf("SetPresent(false): present=%v ok=%v", present, ok)
	}
	if spp != 5 {
		t.Errorf("frame must survive unmapping (it backs the swapped page): %d", spp)
	}
	if _, err := n.SetPresent(arch.GPP(0xBAD), true); err == nil {
		t.Errorf("SetPresent of unmapped GPP should error")
	}
}

func TestNestedAccessedBits(t *testing.T) {
	alloc, store := heapAlloc(t)
	n, _ := NewNestedPT(store, alloc)
	gpp := arch.GPP(3)
	n.Map(gpp, 9, true)
	if n.Accessed(gpp) {
		t.Errorf("fresh mapping already accessed")
	}
	n.SetAccessed(gpp, true)
	if !n.Accessed(gpp) {
		t.Errorf("accessed bit not set")
	}
	n.SetAccessed(gpp, false)
	if n.Accessed(gpp) {
		t.Errorf("accessed bit not cleared")
	}
}

func TestNestedTranslateAddr(t *testing.T) {
	alloc, store := heapAlloc(t)
	n, _ := NewNestedPT(store, alloc)
	n.Map(arch.GPP(2), arch.SPP(40), true)
	spa, ok := n.TranslateAddr(arch.GPA(2<<arch.PageShift | 0x123))
	if !ok || spa != arch.SPP(40).Addr()+0x123 {
		t.Errorf("TranslateAddr = %#x ok=%v", uint64(spa), ok)
	}
	if _, ok := n.TranslateAddr(arch.GPA(0xdead << arch.PageShift)); ok {
		t.Errorf("unmapped TranslateAddr succeeded")
	}
}

// Property: map a random set of GPPs to distinct frames; every translation
// reads back correctly and leaf SPAs are unique.
func TestNestedMapProperty(t *testing.T) {
	f := func(gpps []uint16) bool {
		alloc, store := heapAlloc(t)
		_ = store
		n, err := NewNestedPT(store, alloc)
		if err != nil {
			return false
		}
		want := map[arch.GPP]arch.SPP{}
		leafs := map[arch.SPA]arch.GPP{}
		for i, g16 := range gpps {
			if i >= 50 {
				break
			}
			gpp := arch.GPP(g16)
			spp := arch.SPP(1000 + i)
			spa, err := n.Map(gpp, spp, true)
			if err != nil {
				return false
			}
			if prev, dup := leafs[spa]; dup && prev != gpp {
				return false
			}
			leafs[spa] = gpp
			want[gpp] = spp
		}
		for gpp, spp := range want {
			got, present, ok := n.Translate(gpp)
			if !ok || !present || got != spp {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func newGuest(t *testing.T) (*GuestPT, *NestedPT, *Store) {
	t.Helper()
	store := NewStore(512)
	next := arch.SPP(0)
	alloc := func() (arch.SPP, error) {
		f := next
		next++
		return f, nil
	}
	n, err := NewNestedPT(store, alloc)
	if err != nil {
		t.Fatal(err)
	}
	gppNext := arch.GPP(1)
	g, err := NewGuestPT(store, func() (arch.GPP, arch.SPP, error) {
		gpp := gppNext
		gppNext++
		spp, err := alloc()
		if err != nil {
			return 0, 0, err
		}
		if _, err := n.Map(gpp, spp, true); err != nil {
			return 0, 0, err
		}
		return gpp, spp, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, n, store
}

func TestGuestMapTranslate(t *testing.T) {
	g, _, _ := newGuest(t)
	if err := g.Map(arch.GVP(0x42), arch.GPP(0x99)); err != nil {
		t.Fatal(err)
	}
	gpp, ok := g.Translate(0x42)
	if !ok || gpp != 0x99 {
		t.Fatalf("translate: %v %v", gpp, ok)
	}
	if _, ok := g.Translate(0x43); ok {
		t.Errorf("unmapped GVP translated")
	}
}

func TestGuestWalkFrom(t *testing.T) {
	g, _, _ := newGuest(t)
	gvp := arch.GVP(0x12345)
	if err := g.Map(gvp, 0x55); err != nil {
		t.Fatal(err)
	}
	steps, ok := g.WalkFrom(gvp, arch.PTLevels, g.Root(), nil)
	if !ok || len(steps) != arch.PTLevels {
		t.Fatalf("full walk: ok=%v len=%d", ok, len(steps))
	}
	if steps[arch.PTLevels-1].NextGPP != 0x55 {
		t.Errorf("leaf step points at %#x", uint64(steps[3].NextGPP))
	}
	for i, st := range steps {
		if st.Level != arch.PTLevels-i {
			t.Errorf("step %d level %d", i, st.Level)
		}
		if _, ok := g.BackingSPP(st.Table); !ok {
			t.Errorf("step %d table %#x has no pinned backing", i, uint64(st.Table))
		}
	}
	// A partial walk from the level-2 table must agree with the full walk.
	tbl, _, ok := g.TablePageAt(gvp, 2)
	if !ok {
		t.Fatal("TablePageAt failed")
	}
	partial, ok := g.WalkFrom(gvp, 2, tbl, nil)
	if !ok || len(partial) != 2 {
		t.Fatalf("partial walk: ok=%v len=%d", ok, len(partial))
	}
	if partial[1].NextGPP != 0x55 {
		t.Errorf("partial walk leaf mismatch")
	}
}

func TestGuestEntrySPAsInsideHeap(t *testing.T) {
	g, _, store := newGuest(t)
	gvp := arch.GVP(0x777)
	g.Map(gvp, 0x12)
	steps, _ := g.WalkFrom(gvp, arch.PTLevels, g.Root(), nil)
	for _, st := range steps {
		if !store.InHeap(st.SPA) {
			t.Errorf("guest PTE at %#x outside PT heap", uint64(st.SPA))
		}
	}
}

func TestGuestSharedInteriorTables(t *testing.T) {
	g, _, _ := newGuest(t)
	g.Map(0x100, 1)
	before := g.NumPTPages()
	g.Map(0x101, 2) // same 2 MB region: no new tables
	if g.NumPTPages() != before {
		t.Errorf("neighbor mapping allocated new PT pages")
	}
	g.Map(arch.GVP(1)<<27, 3) // different level-3 subtree
	if g.NumPTPages() <= before {
		t.Errorf("distant mapping should allocate interior tables")
	}
}

// Property: guest translations are stable and independent.
func TestGuestMapProperty(t *testing.T) {
	f := func(pages []uint16) bool {
		g, _, _ := newGuest(t)
		want := map[arch.GVP]arch.GPP{}
		for i, p := range pages {
			if i >= 40 {
				break
			}
			gvp := arch.GVP(p)
			gpp := arch.GPP(0x1000 + i)
			if err := g.Map(gvp, gpp); err != nil {
				return false
			}
			want[gvp] = gpp
		}
		for gvp, gpp := range want {
			got, ok := g.Translate(gvp)
			if !ok || got != gpp {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
