package core

import (
	"hatric/internal/arch"
	"hatric/internal/coherence"
	"hatric/internal/faults"
	"hatric/internal/tstruct"
)

// HATRIC is the paper's hardware translation-coherence mechanism. All the
// work happens in the cache-coherence relay (OnPTInvalidation): when the
// hypervisor's store to a nested PTE invalidates the line's sharers, each
// target compares the line against the co-tags of its TLB, MMU cache, and
// nTLB entries and drops the matches. The relay compare works at cache-line
// granularity above bit 6 and keeps only the co-tag's width of address
// bits, so both the 8-PTE false sharing and co-tag aliasing are modeled.
type HATRIC struct {
	m    Machine
	mask uint64
	// inj is the machine's fault injector (nil when fault-free). A lost
	// relay acknowledgment costs the target one reissue round trip —
	// bounded per relay, which is why hatric stays near ideal under the
	// same loss rates that send sw into retry storms.
	inj *faults.Injector
	// reissue is the per-lost-ack recovery charge, precomputed so the
	// relay hot path stays arithmetic-only: the directory's ack timeout
	// plus the reissued relay's round trip through the fabric.
	reissue arch.Cycles
}

var _ Protocol = (*HATRIC)(nil)
var _ coherence.TranslationHook = (*HATRIC)(nil)

// NewHATRIC builds the protocol with the given co-tag width in bytes
// (2 is the paper's design point).
func NewHATRIC(m Machine, cotagBytes int) *HATRIC {
	if cotagBytes <= 0 {
		cotagBytes = 2
	}
	inj := m.FaultInjector()
	return &HATRIC{
		m: m, mask: tstruct.CoTagMask(cotagBytes),
		inj:     inj,
		reissue: inj.AckTimeout() + 2*m.Cost().DirHop,
	}
}

// Name implements Protocol.
func (h *HATRIC) Name() string { return "hatric" }

// OnRemap implements Protocol. HATRIC needs no hypervisor-side action: the
// PTE store already did everything. (Precise target identification and
// lightweight target-side handling are both inherited from the cache
// coherence protocol.)
//
//hatric:hotpath
func (h *HATRIC) OnRemap(initiator, vm int) arch.Cycles {
	return 0
}

// OnPTInvalidation implements coherence.TranslationHook: the co-tag
// compare-and-invalidate at one target CPU. Shift 3 converts PTE word
// indices to line indices (coherence is line-granular). Because a co-tag
// is a pure function of the source line, every entry of the owning VM
// from the written line matches — nothing of its from the line ever
// survives, so remains is false. Co-tags are VM-qualified (the VPID is
// part of the compare): a relay for a PTE owned by a VM none of whose
// vCPUs runs here is filtered outright, and at a CPU time-sharing several
// VMs the per-entry VM tags confine the drop to the owner's entries, so
// co-tag aliasing can never leak invalidations across VM boundaries.
//
//hatric:hotpath
func (h *HATRIC) OnPTInvalidation(cpu int, spa arch.SPA) (int, bool) {
	owner := h.m.OwnerVM(spa)
	if relayFiltered(h.m, cpu, owner) {
		return 0, false
	}
	ts := h.m.TS(cpu)
	n := ts.InvalidateMaskedAll(ownerTag(owner), uint64(spa)>>3, 3, h.mask)
	c := h.m.Counters(cpu)
	c.CoTagInvalidations += uint64(n)
	// Fault injection: the relay's acknowledgment may be lost. The
	// directory reissues after its ack timeout; the target absorbs the
	// timeout plus the reissued round trip. The compare already ran and
	// invalidated, so the reissue is pure recovery cost — bounded per
	// relay, never a storm. Nil-injector runs never enter this branch.
	if h.inj.DropAck() {
		c.AcksLost++
		c.RelayReissues++
		h.m.Charge(cpu, h.reissue)
	}
	return n, false
}

// OnPTBackInvalidation implements coherence.TranslationHook: a directory
// eviction is the same co-tag compare as a write invalidation.
func (h *HATRIC) OnPTBackInvalidation(cpu int, spa arch.SPA) int {
	n, _ := h.OnPTInvalidation(cpu, spa)
	return n
}

// CachesPTLine implements coherence.TranslationHook.
func (h *HATRIC) CachesPTLine(cpu int, spa arch.SPA) bool {
	owner := h.m.OwnerVM(spa)
	if queryFiltered(h.m, cpu, owner) {
		return false
	}
	return h.m.TS(cpu).CachesMaskedAny(ownerTag(owner), uint64(spa)>>3, 3, h.mask)
}
