package arch

// CostModel collects the fixed latency parameters of the simulator. The
// values follow the paper's measurements where it reports them (VM exits
// cost about 1300 cycles on Haswell, lightweight interrupts about 640,
// IPIs "thousands of cycles", Sec. 3.2-3.3) and conventional Haswell-class
// figures elsewhere.
type CostModel struct {
	// Cache hierarchy hit latencies.
	L1Hit  Cycles
	L2Hit  Cycles
	LLCHit Cycles

	// DirHop is the cost of one coherence message hop (request, forward,
	// invalidation, or acknowledgment).
	DirHop Cycles

	// TLBLookup is charged on every memory reference (L1 TLB access is
	// pipelined; this is the adder for an L1 TLB miss that hits in L2 TLB).
	L2TLBHit Cycles

	// VMExit is the cost of one VM exit (world switch to hypervisor).
	VMExit Cycles
	// VMEntry is the cost of resuming the guest.
	VMEntry Cycles
	// IPISend is the initiator-side cost of launching the first IPI of a
	// shootdown (APIC programming, fencing).
	IPISend Cycles
	// IPISendPerTarget is the incremental initiator cost per additional
	// target (KVM loops individual IPIs or walks processor clusters).
	IPISendPerTarget Cycles
	// IPIDeliver is the fabric latency until the target observes the IPI.
	IPIDeliver Cycles
	// Interrupt is the cost of a lightweight (non-exit) interrupt, the
	// software alternative discussed in Sec. 3.3.
	Interrupt Cycles
	// FlushOp is the target-side cost of issuing the full translation
	// structure flush itself (the refills are modeled separately).
	FlushOp Cycles

	// HypervisorFault is the software path length of the page-fault
	// handler, excluding the data copy and translation coherence.
	HypervisorFault Cycles
	// PTEWrite is the bare cost of the hypervisor's store to a PTE
	// (beyond the cache access itself).
	PTEWrite Cycles

	// BaseCPI is the non-memory work per instruction gap unit.
	BaseCPI float64
}

// KVMCostModel returns the KVM/Haswell cost profile from the paper.
func KVMCostModel() CostModel {
	return CostModel{
		L1Hit:            4,
		L2Hit:            12,
		LLCHit:           35,
		DirHop:           20,
		L2TLBHit:         7,
		VMExit:           1300,
		VMEntry:          400,
		IPISend:          1000,
		IPISendPerTarget: 150,
		IPIDeliver:       500,
		Interrupt:        640,
		FlushOp:          200,
		HypervisorFault:  1800,
		PTEWrite:         12,
		BaseCPI:          0.5,
	}
}

// XenCostModel returns a Xen-flavoured cost profile: Xen's exit and
// coherence paths are somewhat heavier than KVM's (Sec. 6, Xen results).
func XenCostModel() CostModel {
	m := KVMCostModel()
	m.VMExit = 1550
	m.VMEntry = 480
	m.IPISend = 1200
	m.IPISendPerTarget = 180
	m.HypervisorFault = 2100
	return m
}
