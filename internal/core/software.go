package core

import (
	"hatric/internal/arch"
	"hatric/internal/faults"
)

// Software models today's translation coherence (Sec. 3.2, Fig. 3):
//
//  1. The hypervisor sets the TLB-flush-request bit of every vCPU of the
//     VM owning the remapped page (imprecise target identification: CPUs
//     of that VM that never cached the translation are still targeted;
//     CPUs of other VMs never are).
//  2. It sends an IPI per target and waits for acknowledgments.
//  3. Every target suffers a VM exit, flushes its TLBs, MMU cache, and
//     nTLB completely (hypervisors do not know the guest virtual page, so
//     selective invalidation is impossible), acknowledges, and re-enters.
//
// The flush costs keep paying later: every flushed entry is a future
// two-dimensional page-table walk.
type Software struct {
	m Machine
	// inj is the machine's fault injector (nil when fault-free). Lost
	// IPIs surface here as timeout + re-IPI with exponential backoff —
	// the retry storm the fault study measures.
	inj *faults.Injector
}

var _ Protocol = (*Software)(nil)

// NewSoftware builds the software baseline.
func NewSoftware(m Machine) *Software {
	return &Software{m: m, inj: m.FaultInjector()}
}

// Name implements Protocol.
func (s *Software) Name() string { return "sw" }

// OnRemap implements Protocol: the IPI broadcast and flush sequence,
// scoped to the owning VM's CPUs. The flush is VPID-scoped (FlushVMAll):
// on a pinned machine the targets hold nothing but the VM's entries, so
// this is the classic wholesale flush; on a time-sliced machine other
// VMs' resident entries survive, as invept single-context leaves them.
//
//hatric:hotpath
func (s *Software) OnRemap(initiator, vm int) arch.Cycles {
	cost := s.m.Cost()
	ic := s.m.Counters(initiator)
	var init, maxWait arch.Cycles

	targets := s.m.VMCPUs(vm)
	first := true
	ipis := 0
	for _, t := range targets {
		tc := s.m.Counters(t)
		tlb, mmu, ntlb := s.m.TS(t).FlushVMAll(vm)
		tc.TLBFlushes++
		tc.MMUCacheFlushes++
		tc.NTLBFlushes++
		tc.TLBEntriesLost += uint64(tlb)
		tc.MMUEntriesLost += uint64(mmu)
		tc.NTLBEntriesLost += uint64(ntlb)
		if t == initiator {
			// Already in hypervisor context: flush locally, no IPI.
			init += cost.FlushOp
			continue
		}
		// KVM converts the broadcast into a loop of individual IPIs (or a
		// loop across processor clusters): one expensive setup, then a
		// smaller per-target increment.
		ic.IPIs++
		ipis++
		if first {
			init += cost.IPISend
			first = false
		} else {
			init += cost.IPISendPerTarget
		}
		// Fault injection: the IPI may be lost in delivery. The initiator
		// detects the missing acknowledgment by timeout and re-sends with
		// exponential backoff — each retry costs a full timeout wait plus
		// the re-send, which is what amplifies shootdown cost under loss.
		// With no injector configured DropIPI is a single nil check and
		// this loop never runs.
		for retry := 0; s.inj.DropIPI() && retry < s.inj.MaxRetries(); retry++ {
			ic.IPIsLost++
			ic.ShootdownRetries++
			ic.IPIs++
			init += s.inj.IPIBackoff(retry+1) + cost.IPISendPerTarget
		}
		// A target whose vCPU is not scheduled cannot take the VM exit
		// until the hypervisor runs it again (Sec. 3.2: "the initiating
		// vCPU waits for all other vCPUs to acknowledge"); on an
		// overcommitted host this wait is quanta, not microseconds.
		if w := s.m.DeschedWait(t, vm); w > maxWait {
			maxWait = w
		}
		tc.VMExits++
		s.m.Charge(t, cost.IPIDeliver+cost.VMExit+cost.FlushOp+cost.VMEntry)
	}
	// The initiator pauses until every target acknowledges; the critical
	// path is one delivery plus the slowest target's exit-and-flush — plus,
	// under vCPU overcommit, the wait for the most-descheduled target to be
	// scheduled at all. (The initiator may belong to a different VM than
	// the remapped page — a fault in one VM evicting another VM's frame —
	// in which case every target needs an IPI.)
	if ipis > 0 {
		init += cost.IPIDeliver + cost.VMExit + cost.FlushOp
	}
	if maxWait > 0 {
		init += maxWait
		ic.DescheduledStallCycles += uint64(maxWait)
	}
	return init
}
