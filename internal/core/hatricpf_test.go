package core

import (
	"testing"

	"hatric/internal/arch"
	"hatric/internal/cache"
	"hatric/internal/tstruct"
)

func TestPFUpdatesExactMatches(t *testing.T) {
	m := newFakeMachine(1)
	pf := NewHATRICPF(m, 2)
	pte := arch.SPA(0x4000)
	exact := uint64(pte) >> 3
	// A TLB entry and an nTLB entry filled from exactly that PTE.
	m.ts[0].L1TLB.Fill(0, 11, tstruct.PackTLBVal(100, 7), exact, uint8(cache.KindNestedPT))
	m.ts[0].NTLB.Fill(0, 7, 100, exact, uint8(cache.KindNestedPT))
	// The remapped PTE now points at frame 222 and is present.
	fakePTEs[pte] = pteVal{frame: 222, present: true}
	defer delete(fakePTEs, pte)

	touched, remains := pf.OnPTInvalidation(0, pte, cache.KindNestedPT)
	if touched != 2 {
		t.Fatalf("touched %d entries, want 2", touched)
	}
	if !remains {
		t.Errorf("updated entries remain; the sharer bit must survive")
	}
	v, ok := m.ts[0].L1TLB.Lookup(0, 11)
	if !ok {
		t.Fatal("TLB entry was invalidated instead of updated")
	}
	spp, gpp := tstruct.UnpackTLBVal(v)
	if spp != 222 || gpp != 7 {
		t.Errorf("TLB update wrong: spp=%d gpp=%d", spp, gpp)
	}
	if v, ok := m.ts[0].NTLB.Lookup(0, 7); !ok || v != 222 {
		t.Errorf("nTLB update wrong: %d %v", v, ok)
	}
	if m.cnt[0].PrefetchUpdates != 2 {
		t.Errorf("PrefetchUpdates = %d", m.cnt[0].PrefetchUpdates)
	}
}

func TestPFInvalidatesFalseSharing(t *testing.T) {
	m := newFakeMachine(1)
	pf := NewHATRICPF(m, 2)
	pte := arch.SPA(0x4000)
	sibling := pte + 8 // same line, different PTE
	m.ts[0].L1TLB.Fill(0, 1, tstruct.PackTLBVal(100, 7), uint64(pte)>>3, uint8(cache.KindNestedPT))
	m.ts[0].L1TLB.Fill(0, 2, tstruct.PackTLBVal(101, 8), uint64(sibling)>>3, uint8(cache.KindNestedPT))
	fakePTEs[pte] = pteVal{frame: 222, present: true}
	defer delete(fakePTEs, pte)

	pf.OnPTInvalidation(0, pte, cache.KindNestedPT)
	if _, ok := m.ts[0].L1TLB.Lookup(0, 1); !ok {
		t.Errorf("exact match should have been updated, not dropped")
	}
	if _, ok := m.ts[0].L1TLB.Lookup(0, 2); ok {
		t.Errorf("false-sharing sibling must still be invalidated (hardware cannot disambiguate)")
	}
}

func TestPFInvalidatesOnUnmap(t *testing.T) {
	m := newFakeMachine(1)
	pf := NewHATRICPF(m, 2)
	pte := arch.SPA(0x4000)
	m.ts[0].L1TLB.Fill(0, 1, tstruct.PackTLBVal(100, 7), uint64(pte)>>3, uint8(cache.KindNestedPT))
	// Not present (an eviction unmap): nothing to prefetch; invalidate.
	fakePTEs[pte] = pteVal{frame: 50, present: false}
	defer delete(fakePTEs, pte)

	touched, _ := pf.OnPTInvalidation(0, pte, cache.KindNestedPT)
	if touched != 1 {
		t.Fatalf("touched %d", touched)
	}
	if _, ok := m.ts[0].L1TLB.Lookup(0, 1); ok {
		t.Errorf("unmapped translation must not survive")
	}
	if m.cnt[0].PrefetchUpdates != 0 {
		t.Errorf("nothing should have been prefetched on an unmap")
	}
}

func TestPFName(t *testing.T) {
	m := newFakeMachine(1)
	if mustNew(t, "hatric-pf", m).Name() != "hatric-pf" {
		t.Errorf("registry name wrong")
	}
}
