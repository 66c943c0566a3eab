package core

import (
	"hatric/internal/arch"
	"hatric/internal/coherence"
	"hatric/internal/tstruct"
)

// HATRICPF is the paper's Sec. 4.4 prefetching extension ("Beyond simply
// invalidating stale translation structure entries, HATRIC could
// potentially directly update (or prefetch) the updated mappings into the
// translation structures"), which the paper leaves as future work.
//
// On a nested-PTE write, entries whose co-tag identifies the *exact*
// written PTE are rewritten in place with the new frame (when the new
// mapping is present) instead of being invalidated — the subsequent access
// hits the TLB and skips the two-dimensional walk entirely. Entries that
// match only because of line false-sharing or co-tag aliasing cannot be
// disambiguated by hardware and are invalidated as in baseline HATRIC.
// Only TLB and nTLB entries hold frame numbers a remap changes; MMU-cache
// entries hold guest-table pointers and follow the baseline path.
type HATRICPF struct {
	HATRIC
}

var _ Protocol = (*HATRICPF)(nil)
var _ coherence.TranslationHook = (*HATRICPF)(nil)

// NewHATRICPF builds the prefetching variant with the given co-tag width.
func NewHATRICPF(m Machine, cotagBytes int) *HATRICPF {
	return &HATRICPF{HATRIC: *NewHATRIC(m, cotagBytes)}
}

// Name implements Protocol.
func (h *HATRICPF) Name() string { return "hatric-pf" }

// OnPTInvalidation implements coherence.TranslationHook: update exact
// matches in place, invalidate the rest of the co-tag match set. As in
// baseline HATRIC, the compare is VM-qualified.
//
//hatric:hotpath
func (h *HATRICPF) OnPTInvalidation(cpu int, spa arch.SPA) (int, bool) {
	owner := h.m.OwnerVM(spa)
	if relayFiltered(h.m, cpu, owner) {
		return 0, false
	}
	tag := ownerTag(owner)
	frame, present := h.m.ReadPTE(spa)
	ts := h.m.TS(cpu)
	c := h.m.Counters(cpu)
	exact := uint64(spa) >> 3

	updated := 0
	if present {
		// TLB entries: swap the SPP half of the packed value.
		//hatric:alloc-ok non-escaping closure (UpdateMatching only calls it); remap path, not per-reference
		upd := func(e tstruct.Entry) (uint64, bool) {
			_, gpp := tstruct.UnpackTLBVal(e.Val)
			return tstruct.PackTLBVal(frame, gpp), true
		}
		updated += ts.L1TLB.UpdateMatching(tag, exact, upd)
		updated += ts.L2TLB.UpdateMatching(tag, exact, upd)
		// nTLB entries hold the bare frame.
		//hatric:alloc-ok non-escaping closure (UpdateMatching only calls it); remap path, not per-reference
		updated += ts.NTLB.UpdateMatching(tag, exact, func(tstruct.Entry) (uint64, bool) {
			return frame, true
		})
		c.PrefetchUpdates += uint64(updated)
	}

	// Everything else matching the co-tag (false sharing, aliasing, or a
	// now-not-present mapping) is invalidated as in baseline HATRIC. When
	// the exact entries were just updated, they are excluded from the
	// drop; MMU-cache entries never update and always follow the baseline
	// path (their exact source is a guest PTE, not this nested PTE).
	dropped := 0
	for _, s := range [...]*tstruct.Struct{ts.L1TLB, ts.L2TLB, ts.NTLB} {
		if present {
			dropped += s.InvalidateMaskedExcept(tag, uint64(spa)>>3, 3, h.mask, exact)
		} else {
			dropped += s.InvalidateMasked(tag, uint64(spa)>>3, 3, h.mask)
		}
	}
	dropped += ts.MMU.InvalidateMasked(tag, uint64(spa)>>3, 3, h.mask)
	c.CoTagInvalidations += uint64(dropped)
	// Ack-loss fault site, as in baseline HATRIC: a lost acknowledgment
	// makes the directory reissue the invalidation after its ack timeout.
	if h.inj.DropAck() {
		c.AcksLost++
		c.RelayReissues++
		h.m.Charge(cpu, h.reissue)
	}
	return updated + dropped, updated > 0
}
