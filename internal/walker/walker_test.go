package walker

import (
	"testing"

	"hatric/internal/arch"
	"hatric/internal/coherence"
	"hatric/internal/memdev"
	"hatric/internal/pagetable"
	"hatric/internal/stats"
	"hatric/internal/tstruct"
)

type rig struct {
	w      *Walker
	nested *pagetable.NestedPT
	guest  *pagetable.GuestPT
	cnt    *stats.Counters
	mem    *memdev.Memory
}

func newRig(t testing.TB) *rig {
	t.Helper()
	cfg := arch.DefaultConfig()
	cfg.NumCPUs = 1
	cnt := &stats.Counters{}
	mem := memdev.New(cfg.Mem)
	hier := coherence.NewHierarchy(&cfg, mem, []*stats.Counters{cnt})
	store := pagetable.NewStore(cfg.Mem.PTFrames)
	nested, err := pagetable.NewNestedPT(store, mem.AllocPT)
	if err != nil {
		t.Fatal(err)
	}
	gppNext := arch.GPP(1)
	guest, err := pagetable.NewGuestPT(store, func() (arch.GPP, arch.SPP, error) {
		gpp := gppNext
		gppNext++
		spp, err := mem.AllocPT()
		if err != nil {
			return 0, 0, err
		}
		if _, err := nested.Map(gpp, spp, true); err != nil {
			return 0, 0, err
		}
		return gpp, spp, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{
		nested: nested,
		guest:  guest,
		cnt:    cnt,
		mem:    mem,
	}
	r.w = &Walker{
		CPU:    0,
		Cost:   cfg.Cost,
		Hier:   hier,
		TS:     tstruct.NewCPUSet(cfg.TLB),
		Cnt:    cnt,
		Nested: nested,
		Guest:  func(pid int) *pagetable.GuestPT { return guest },
	}
	return r
}

// mapPage wires gvp -> gpp -> a fresh HBM frame, present.
func (r *rig) mapPage(t testing.TB, gvp arch.GVP, gpp arch.GPP, present bool) arch.SPP {
	t.Helper()
	if err := r.guest.Map(gvp, gpp); err != nil {
		t.Fatal(err)
	}
	frame, ok := r.mem.AllocFrame(arch.TierHBM)
	if !ok {
		t.Fatal("out of frames")
	}
	if _, err := r.nested.Map(gpp, frame, present); err != nil {
		t.Fatal(err)
	}
	return frame
}

func TestColdWalkIs24References(t *testing.T) {
	r := newRig(t)
	spp := r.mapPage(t, 0x1234, 0x100, true)
	got, gpp, lat, fault := r.w.Translate(0, 0x1234, 0)
	if fault != nil {
		t.Fatalf("unexpected fault: %+v", fault)
	}
	if got != spp || gpp != 0x100 {
		t.Fatalf("translate: spp=%d gpp=%#x", got, uint64(gpp))
	}
	if lat == 0 {
		t.Errorf("cold walk cost nothing")
	}
	// Fig. 1: a fully cold two-dimensional walk makes 24 references:
	// 4 guest levels x (4 nested + 1 guest) + 4 nested for the data page.
	if r.cnt.WalkRefs != 24 {
		t.Errorf("cold walk made %d references, want 24", r.cnt.WalkRefs)
	}
	if r.cnt.Walks != 1 {
		t.Errorf("walks = %d", r.cnt.Walks)
	}
}

func TestTLBHitAfterWalk(t *testing.T) {
	r := newRig(t)
	spp := r.mapPage(t, 0x42, 0x7, true)
	r.w.Translate(0, 0x42, 0)
	got, gpp, lat, fault := r.w.Translate(0, 0x42, 0)
	if fault != nil || got != spp || gpp != 0x7 {
		t.Fatalf("hit path wrong: %v %v %v", got, gpp, fault)
	}
	if lat != 0 {
		t.Errorf("L1 TLB hit should be free, cost %d", lat)
	}
	if r.cnt.L1TLBHits != 1 {
		t.Errorf("L1 TLB hits = %d", r.cnt.L1TLBHits)
	}
}

func TestWarmStructuresShortenWalk(t *testing.T) {
	r := newRig(t)
	r.mapPage(t, 0x1000, 0x50, true)
	r.mapPage(t, 0x1001, 0x51, true) // same 2 MB region: shares tables
	r.w.Translate(0, 0x1000, 0)
	refsBefore := r.cnt.WalkRefs
	r.w.Translate(0, 0x1001, 0)
	delta := r.cnt.WalkRefs - refsBefore
	// The MMU cache supplies the level-1 guest table and the nTLB covers
	// its nested translation; only the guest leaf read (1) and the data
	// page's nested walk (4) remain.
	if delta != 5 {
		t.Errorf("warm walk made %d references, want 5", delta)
	}
	if r.cnt.MMUCacheHits == 0 {
		t.Errorf("no MMU cache hit on neighbor walk")
	}
}

func TestNTLBShortcutsNestedWalk(t *testing.T) {
	r := newRig(t)
	// After walking one page, the guest-table pages' nested translations
	// sit in the nTLB; a neighbor's walk reuses them instead of running
	// fresh 4-reference nested walks.
	r.mapPage(t, 0x2000, 0x80, true)
	r.mapPage(t, 0x2001, 0x81, true)
	r.w.Translate(0, 0x2000, 0)
	if r.cnt.NTLBHits != 0 {
		t.Fatalf("cold walk should miss the nTLB everywhere, got %d hits", r.cnt.NTLBHits)
	}
	missesBefore := r.cnt.NTLBMisses
	r.w.Translate(0, 0x2001, 0)
	if r.cnt.NTLBHits == 0 {
		t.Errorf("neighbor walk should hit the nTLB for the shared guest table")
	}
	// Only the neighbor's own data page needs a nested walk.
	if got := r.cnt.NTLBMisses - missesBefore; got != 1 {
		t.Errorf("neighbor walk nTLB misses = %d, want 1", got)
	}
}

func TestWalkSetsCoTags(t *testing.T) {
	r := newRig(t)
	gpp := arch.GPP(0x99)
	r.mapPage(t, 0x3000, gpp, true)
	r.w.Translate(0, 0x3000, 0)
	leaf, ok := r.nested.LeafSPA(gpp)
	if !ok {
		t.Fatal("no leaf")
	}
	e, ok := r.w.TS.L2TLB.LookupEntry(0, tstruct.TLBKey(0, 0x3000))
	if !ok {
		t.Fatal("no L2 TLB entry")
	}
	if e.Src != uint64(leaf)>>3 {
		t.Errorf("co-tag source = %#x, want leaf PTE %#x", e.Src, uint64(leaf)>>3)
	}
}

func TestFaultOnNotPresent(t *testing.T) {
	r := newRig(t)
	gpp := arch.GPP(0x55)
	r.mapPage(t, 0x5000, gpp, false)
	_, _, _, fault := r.w.Translate(0, 0x5000, 0)
	if fault == nil {
		t.Fatal("expected nested fault")
	}
	if fault.GPP != gpp || fault.GVP != 0x5000 || fault.PID != 0 {
		t.Errorf("fault fields: %+v", fault)
	}
	// No TLB entry may be installed for a faulting translation.
	if _, ok := r.w.TS.L2TLB.Lookup(0, tstruct.TLBKey(0, 0x5000)); ok {
		t.Errorf("TLB filled despite fault")
	}
	// After the page becomes present, the retry succeeds.
	frame, _ := r.mem.AllocFrame(arch.TierHBM)
	if _, err := r.nested.Remap(gpp, frame, true); err != nil {
		t.Fatal(err)
	}
	spp, _, _, fault := r.w.Translate(0, 0x5000, 0)
	if fault != nil || spp != frame {
		t.Errorf("retry failed: %v %v", spp, fault)
	}
}

func TestL2ToL1RefillKeepsCoTag(t *testing.T) {
	r := newRig(t)
	gpp := arch.GPP(0x31)
	r.mapPage(t, 0x6000, gpp, true)
	r.w.Translate(0, 0x6000, 0)
	// Drop only the L1 TLB entry; the L2 refill must preserve Src.
	r.w.TS.L1TLB.InvalidateKey(0, tstruct.TLBKey(0, 0x6000))
	r.w.Translate(0, 0x6000, 0)
	leaf, _ := r.nested.LeafSPA(gpp)
	e, ok := r.w.TS.L1TLB.LookupEntry(0, tstruct.TLBKey(0, 0x6000))
	if !ok || e.Src != uint64(leaf)>>3 {
		t.Errorf("refill lost co-tag: %+v", e)
	}
	if r.cnt.L2TLBHits != 1 {
		t.Errorf("L2 TLB hits = %d", r.cnt.L2TLBHits)
	}
}

func TestProcessesAreIsolated(t *testing.T) {
	r := newRig(t)
	r.mapPage(t, 0x8000, 0x61, true)
	r.w.Translate(0, 0x8000, 0)
	// A different process (pid 1) with the same GVP must not hit pid 0's
	// TLB entry.
	if _, ok := r.w.TS.L1TLB.Lookup(0, tstruct.TLBKey(1, 0x8000)); ok {
		t.Errorf("TLB leaked translations across processes")
	}
}
