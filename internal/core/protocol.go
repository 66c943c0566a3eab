// Package core implements the paper's contribution: translation-coherence
// protocols. Four protocols are provided:
//
//   - Software: today's mechanism (Fig. 3) — the hypervisor sets the flush
//     request bit of every vCPU of the VM, sends IPIs, every target suffers
//     a VM exit and flushes its TLBs, MMU cache, and nTLB wholesale.
//   - HATRIC: the paper's design — co-tags on translation structures expose
//     them to the cache-coherence protocol, so the hypervisor's nested-PTE
//     store itself precisely invalidates stale entries; no IPIs, no VM
//     exits, no flushes.
//   - UNITDPP: UNITD upgraded for virtualization (Sec. 6, "UNITD++") — a
//     reverse-lookup CAM keeps TLBs coherent in hardware, but MMU caches
//     and nTLBs are not covered and must be flushed (by a hardware
//     broadcast, sparing the VM exits).
//   - Ideal: zero-overhead translation coherence — stale entries vanish
//     exactly and for free. The paper's "achievable"/"ideal" bars.
package core

import (
	"fmt"

	"hatric/internal/arch"
	"hatric/internal/faults"
	"hatric/internal/stats"
	"hatric/internal/tstruct"
)

// Machine is the view of the simulated system the protocols need. The
// simulator's System implements it. The machine runs virtual machines
// (identified by dense IDs from 0) against the shared memory system;
// translation coherence is always scoped to the VM owning the modified
// page-table entry — a remap in one VM must never invalidate or flush
// another VM's translation structures.
type Machine interface {
	// VMCPUs returns the physical CPUs that run any vCPU of VM vm.
	// Software coherence targets all of them on a remap of that VM's
	// pages (imprecise target identification, Sec. 3.2). On a pinned
	// machine different VMs' CPU sets are disjoint; on a time-sliced
	// machine they overlap (several VMs' vCPUs share a physical CPU), so
	// target-side actions must qualify by VM — the per-entry VM tags and
	// VPID-scoped flushes, not CPU-set disjointness, are what keep a
	// remap from touching another VM's translations.
	VMCPUs(vm int) []int
	// VMMayCache reports whether cpu's translation structures may hold
	// entries of VM vm — i.e. whether any of vm's vCPUs runs on cpu. A
	// pinned machine answers whether vm is the VM the CPU runs; a
	// time-sliced machine answers from its vCPU assignment. Hardware
	// protocols use it to filter relays before any compare; software
	// coherence implicitly encodes it in VMCPUs.
	VMMayCache(cpu, vm int) bool
	// DeschedWait returns how long a software-shootdown initiator must
	// wait for cpu to next run a vCPU of vm and acknowledge the IPI: zero
	// when one runs now (or the machine is pinned), otherwise the cycles
	// until the scheduler's round-robin next gives vm a quantum on cpu.
	// Hardware translation coherence has no equivalent — its
	// invalidations need no vCPU to execute (the paper's headline
	// consolidation argument).
	DeschedWait(cpu, vm int) arch.Cycles
	// OwnerVM returns the VM whose page tables (nested or guest) contain
	// the page-table page at spa, or -1 when no VM owns it. Hardware
	// protocols use it to VM-qualify co-tag and CAM compares.
	OwnerVM(spa arch.SPA) int
	// TS returns a CPU's translation structures.
	TS(cpu int) *tstruct.CPUSet
	// Charge stalls a CPU for the given number of cycles (target-side
	// costs: IPI delivery, VM exits, flush instructions).
	Charge(cpu int, c arch.Cycles)
	// Counters returns a CPU's statistics.
	Counters(cpu int) *stats.Counters
	// Cost returns the platform cost model.
	Cost() arch.CostModel
	// ReadPTE reads the page-table entry at spa (frame and present bit).
	// The prefetch extension uses it to install updated mappings instead
	// of invalidating.
	ReadPTE(spa arch.SPA) (frame uint64, present bool)
	// FaultInjector returns the machine's fault injector, or nil when no
	// fault site is enabled (the default). Protocols cache it at
	// construction; every injector method is nil-receiver safe, so a
	// fault-free machine pays one nil check per site and nothing else.
	FaultInjector() *faults.Injector
}

// Protocol is a translation-coherence mechanism. A hardware protocol also
// implements coherence.TranslationHook: the simulator installs it in the
// cache hierarchy, which then relays every page-table-line invalidation to
// it. A protocol that does not (the software baseline) leaves translation
// structures out of cache coherence and flushes them in OnRemap instead.
type Protocol interface {
	// Name identifies the protocol in reports ("sw", "hatric", ...).
	Name() string
	// OnRemap runs after the hypervisor's coherent store to a nested PTE,
	// on the initiating CPU, and returns the extra cycles charged to the
	// initiator (IPI loops, acknowledgment waits). vm is the VM owning
	// the remapped page; software-visible costs (IPIs, VM exits, flushes)
	// land only on that VM's CPUs.
	OnRemap(initiator, vm int) arch.Cycles
}

// ownerTag converts an OwnerVM result into the VM tag the structures
// qualify compares on: a line no VM owns (-1) matches every entry
// (tstruct.AnyVM), preserving the pre-VM-tag behavior for unowned lines.
func ownerTag(owner int) int {
	if owner < 0 {
		return tstruct.AnyVM
	}
	return owner
}

// queryFiltered reports whether a relay or sharer query for a page-table
// line owned by VM owner is dropped at cpu before any compare: the CPU
// cannot hold any of owner's entries because none of owner's vCPUs runs
// there. On a pinned machine this is the classic VPID check (owner is not
// the VM the CPU runs); on a time-sliced machine a CPU legitimately caches
// entries of every VM scheduled onto it, so the filter consults the vCPU
// assignment instead — and the per-entry VM tags do the precise
// qualification inside the structures.
func queryFiltered(m Machine, cpu, owner int) bool {
	return owner >= 0 && !m.VMMayCache(cpu, owner)
}

// relayFiltered is the counting variant used on invalidation relays (not
// on sharer-status queries such as CachesPTLine): filtered relays advance
// the CrossVMFiltered diagnostic so cross-VM isolation stays observable
// without eviction-time queries inflating it.
func relayFiltered(m Machine, cpu, owner int) bool {
	if !queryFiltered(m, cpu, owner) {
		return false
	}
	m.Counters(cpu).CrossVMFiltered++
	return true
}

// New builds a protocol by name: "sw", "hatric", "hatric-pf", "unitd", or
// "ideal". cotagBytes configures HATRIC's co-tag width. Any other name,
// including the empty one, is an error listing the valid names.
func New(name string, m Machine, cotagBytes int) (Protocol, error) {
	switch name {
	case "sw":
		return NewSoftware(m), nil
	case "hatric":
		return NewHATRIC(m, cotagBytes), nil
	case "hatric-pf":
		return NewHATRICPF(m, cotagBytes), nil
	case "unitd":
		return NewUNITDPP(m), nil
	case "ideal":
		return NewIdeal(m), nil
	}
	return nil, fmt.Errorf("core: unknown protocol %q: valid protocols are sw, hatric, hatric-pf, unitd and ideal", name)
}
