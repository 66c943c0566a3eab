package core

import (
	"hatric/internal/arch"
	"hatric/internal/coherence"
)

// Ideal is the unachievable zero-overhead translation coherence the paper
// uses as its upper bound ("achievable"/"ideal" bars): stale translations
// disappear exactly — only entries derived from the single modified PTE are
// dropped, neighbors in the same cache line survive, and nobody pays a
// cycle for it.
type Ideal struct {
	m Machine
}

var _ Protocol = (*Ideal)(nil)
var _ coherence.TranslationHook = (*Ideal)(nil)

// NewIdeal builds the ideal protocol.
func NewIdeal(m Machine) *Ideal { return &Ideal{m: m} }

// Name implements Protocol.
func (i *Ideal) Name() string { return "ideal" }

// OnRemap implements Protocol: free. Exact invalidations ride the relay
// for correctness, at zero modeled cost.
func (i *Ideal) OnRemap(initiator, vm int) arch.Cycles { return 0 }

// OnPTInvalidation implements coherence.TranslationHook with exact-PTE
// granularity (shift 0, full mask): no false sharing, no aliasing. The
// compare-energy counters the structures keep are ignored for the ideal
// protocol by the energy model (it is a modeling fiction, not hardware).
// Entries from sibling PTEs in the same line survive, so the CPU stays on
// the sharer list whenever any remain.
func (i *Ideal) OnPTInvalidation(cpu int, spa arch.SPA) (int, bool) {
	owner := i.m.OwnerVM(spa)
	if relayFiltered(i.m, cpu, owner) {
		return 0, false
	}
	tag := ownerTag(owner)
	ts := i.m.TS(cpu)
	n := ts.InvalidateMaskedAll(tag, uint64(spa)>>3, 0, ^uint64(0))
	remains := ts.CachesMaskedAny(tag, uint64(spa)>>3, 3, ^uint64(0))
	return n, remains
}

// OnPTBackInvalidation implements coherence.TranslationHook: when a line
// loses its directory entry, everything derived from it must go — even the
// ideal protocol cannot keep exact tracking without a directory entry.
func (i *Ideal) OnPTBackInvalidation(cpu int, spa arch.SPA) int {
	owner := i.m.OwnerVM(spa)
	if relayFiltered(i.m, cpu, owner) {
		return 0
	}
	return i.m.TS(cpu).InvalidateMaskedAll(ownerTag(owner), uint64(spa)>>3, 3, ^uint64(0))
}

// CachesPTLine implements coherence.TranslationHook (line-granular: does
// anything sourced from this line remain?).
func (i *Ideal) CachesPTLine(cpu int, spa arch.SPA) bool {
	owner := i.m.OwnerVM(spa)
	if queryFiltered(i.m, cpu, owner) {
		return false
	}
	return i.m.TS(cpu).CachesMaskedAny(ownerTag(owner), uint64(spa)>>3, 3, ^uint64(0))
}
