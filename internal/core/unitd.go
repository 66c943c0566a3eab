package core

import (
	"hatric/internal/arch"
	"hatric/internal/coherence"
)

// UNITDPP is UNITD (Romanescu et al., HPCA 2010) upgraded the way Sec. 6
// describes: the reverse-lookup CAM stores the system physical address of
// the nested page-table entry backing each TLB entry, so TLBs stay
// coherent in hardware even under virtualization, and the design works
// with coherence directories. Two gaps remain relative to HATRIC:
//
//   - MMU caches and nTLBs are not covered; a nested-PTE write triggers a
//     hardware broadcast flush of those structures on every CPU of the VM
//     (no VM exits, but wholesale loss of walk-acceleration state).
//   - The full-width CAM compares 8-byte addresses on every relay, which
//     the energy model charges far more heavily than 2-byte co-tags.
type UNITDPP struct {
	m Machine
}

var _ Protocol = (*UNITDPP)(nil)
var _ coherence.TranslationHook = (*UNITDPP)(nil)

// NewUNITDPP builds the upgraded UNITD comparator.
func NewUNITDPP(m Machine) *UNITDPP { return &UNITDPP{m: m} }

// Name implements Protocol.
func (u *UNITDPP) Name() string { return "unitd" }

// OnRemap implements Protocol: the hardware broadcast flush of the
// uncovered structures (MMU caches and nTLBs). The broadcast carries the
// owning VM's tag, so only that VM's CPUs flush — and on a CPU
// time-sharing several VMs, only that VM's entries (the flush is
// VPID-scoped). Being a hardware broadcast it needs no vCPU to execute:
// descheduled vCPUs cost it nothing.
//
//hatric:hotpath
func (u *UNITDPP) OnRemap(initiator, vm int) arch.Cycles {
	cost := u.m.Cost()
	for _, t := range u.m.VMCPUs(vm) {
		tc := u.m.Counters(t)
		mmu := u.m.TS(t).MMU.FlushVM(vm)
		ntlb := u.m.TS(t).NTLB.FlushVM(vm)
		tc.MMUCacheFlushes++
		tc.NTLBFlushes++
		tc.MMUEntriesLost += uint64(mmu)
		tc.NTLBEntriesLost += uint64(ntlb)
		if t != initiator {
			u.m.Charge(t, cost.FlushOp/2)
		}
	}
	// One broadcast message on the interconnect.
	return 2 * cost.DirHop
}

// OnPTInvalidation implements coherence.TranslationHook: the reverse CAM
// compares the full line address (no co-tag truncation, so no aliasing)
// against TLB entries only. MMU-cache and nTLB entries from the line are
// not covered and survive, so the CPU must stay on the sharer list. The
// CAM is VM-qualified: relays for another VM's page tables are ignored.
//
//hatric:hotpath
func (u *UNITDPP) OnPTInvalidation(cpu int, spa arch.SPA) (int, bool) {
	owner := u.m.OwnerVM(spa)
	if relayFiltered(u.m, cpu, owner) {
		return 0, false
	}
	tag := ownerTag(owner)
	ts := u.m.TS(cpu)
	src := uint64(spa) >> 3
	n := ts.L1TLB.InvalidateMasked(tag, src, 3, ^uint64(0))
	n += ts.L2TLB.InvalidateMasked(tag, src, 3, ^uint64(0))
	c := u.m.Counters(cpu)
	// The CAM compares every entry at full width.
	c.CAMCompares += uint64(ts.L1TLB.Capacity() + ts.L2TLB.Capacity())
	c.CAMInvalidations += uint64(n)
	remains := ts.MMU.CachesMasked(tag, src, 3, ^uint64(0)) || ts.NTLB.CachesMasked(tag, src, 3, ^uint64(0))
	return n, remains
}

// OnPTBackInvalidation implements coherence.TranslationHook: the CAM drops
// the line's TLB entries. MMU-cache and nTLB entries are not coherence
// participants under UNITD; they stay correct because every remap flushes
// them wholesale in OnRemap.
func (u *UNITDPP) OnPTBackInvalidation(cpu int, spa arch.SPA) int {
	n, _ := u.OnPTInvalidation(cpu, spa)
	return n
}

// CachesPTLine implements coherence.TranslationHook.
func (u *UNITDPP) CachesPTLine(cpu int, spa arch.SPA) bool {
	owner := u.m.OwnerVM(spa)
	if queryFiltered(u.m, cpu, owner) {
		return false
	}
	tag := ownerTag(owner)
	ts := u.m.TS(cpu)
	src := uint64(spa) >> 3
	c := u.m.Counters(cpu)
	c.CAMCompares += uint64(ts.L1TLB.Capacity() + ts.L2TLB.Capacity())
	return ts.L1TLB.CachesMasked(tag, src, 3, ^uint64(0)) || ts.L2TLB.CachesMasked(tag, src, 3, ^uint64(0))
}
