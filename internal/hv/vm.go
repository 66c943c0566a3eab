// Package hv implements the hypervisor of the simulated machine: virtual
// machines with vCPUs, nested page-table management, demand paging between
// die-stacked and off-chip DRAM (the paper's KVM modifications, Sec. 5.2),
// paging policies (FIFO, LRU/CLOCK, migration daemon, prefetching), the
// defragmentation remapper that keeps translation coherence relevant even
// for workloads that fit in die-stacked DRAM (Sec. 6, Fig. 11), the
// live-migration engine (migration.go) that turns a whole VM's resident
// set into a pre-copy remap burst — the heaviest translation-coherence
// storm the machine can produce — and the memory-management storm
// daemons: a KSM-style scanner (ksm.go) that merges identical pages
// across VMs into refcounted shared copy-on-write frames and breaks the
// sharing on guest writes, balloon inflate bursts (balloon.go) that
// reclaim frames through the quota-aware eviction path, and a THP-style
// compaction daemon (compaction.go) that defragments die-stacked frames
// in sliding windows. Every merge, break, reclaim, and move is a
// coherent remap of a present translation, so they reproduce the OS
// memory-management remap storms the paper motivates with.
package hv

import (
	"fmt"

	"hatric/internal/arch"
	"hatric/internal/memdev"
	"hatric/internal/pagetable"
)

// PlacementMode selects the initial placement of guest data pages.
type PlacementMode int

const (
	// ModePaged places all data in off-chip DRAM, not-present, so first
	// touch faults and the hypervisor migrates the page into die-stacked
	// DRAM (the paper's paging configuration).
	ModePaged PlacementMode = iota
	// ModeNoHBM places all data in off-chip DRAM, present (the no-hbm
	// baseline of Fig. 2).
	ModeNoHBM
	// ModeInfHBM places all data in die-stacked DRAM, present (the
	// unachievable inf-hbm bound of Fig. 2; the configuration must
	// provision enough HBM frames).
	ModeInfHBM
)

// String names the mode as the paper does.
func (m PlacementMode) String() string {
	switch m {
	case ModePaged:
		return "paged"
	case ModeNoHBM:
		return "no-hbm"
	case ModeInfHBM:
		return "inf-hbm"
	}
	return "unknown-mode"
}

// MarshalText encodes the mode by its String name. An out-of-range mode
// is an error, so no encoding names a mode the hypervisor does not know.
func (m PlacementMode) MarshalText() ([]byte, error) {
	if m < ModePaged || m > ModeInfHBM {
		return nil, fmt.Errorf("hv: unknown placement mode %d", int(m))
	}
	return []byte(m.String()), nil
}

// UnmarshalText decodes a mode from its String name.
func (m *PlacementMode) UnmarshalText(text []byte) error {
	for c := ModePaged; c <= ModeInfHBM; c++ {
		if c.String() == string(text) {
			*m = c
			return nil
		}
	}
	return fmt.Errorf("hv: unknown placement mode %q (want paged, no-hbm or inf-hbm)", text)
}

// VM is one virtual machine: a dense machine-wide ID (the hardware VPID
// that VM-qualifies translation coherence), a nested page table, one guest
// page table per process, and the set of physical CPUs its vCPUs run on.
// Many VMs share one machine; each owns a disjoint set of page-table heap
// frames, which is how the machine attributes a page-table line to its VM.
type VM struct {
	ID     int
	Nested *pagetable.NestedPT
	Guests []*pagetable.GuestPT
	CPUs   []int

	mem     *memdev.Memory
	store   *pagetable.Store
	gppNext uint64
	// ptFrames records every page-table-heap frame backing this VM's
	// nested tables and guest PT pages: the ownership set behind
	// OwnsPTPage and the machine's OwnerVM query.
	ptFrames map[arch.SPP]struct{}
}

// NewVM builds VM id with numProcs processes (each with an empty guest
// page table) runnable on the given physical CPUs.
func NewVM(id int, store *pagetable.Store, mem *memdev.Memory, numProcs int, cpus []int) (*VM, error) {
	vm := &VM{
		ID: id, mem: mem, store: store,
		CPUs: append([]int(nil), cpus...), gppNext: 1,
		ptFrames: make(map[arch.SPP]struct{}),
	}
	nested, err := pagetable.NewNestedPT(store, vm.allocNestedFrame)
	if err != nil {
		return nil, err
	}
	vm.Nested = nested
	for p := 0; p < numProcs; p++ {
		g, err := pagetable.NewGuestPT(store, vm.allocPTPage)
		if err != nil {
			return nil, fmt.Errorf("hv: building guest PT for process %d: %w", p, err)
		}
		vm.Guests = append(vm.Guests, g)
	}
	return vm, nil
}

// allocNestedFrame backs one nested page-table page, recording ownership.
func (vm *VM) allocNestedFrame() (arch.SPP, error) {
	spp, err := vm.mem.AllocPT()
	if err != nil {
		return 0, err
	}
	vm.ptFrames[spp] = struct{}{}
	return spp, nil
}

// OwnsPTPage reports whether the page-table-heap frame spp backs one of
// this VM's page-table pages (nested tables or guest PT pages).
func (vm *VM) OwnsPTPage(spp arch.SPP) bool {
	_, ok := vm.ptFrames[spp]
	return ok
}

// allocGPP hands out the next guest physical page.
func (vm *VM) allocGPP() arch.GPP {
	g := arch.GPP(vm.gppNext)
	vm.gppNext++
	return g
}

// allocPTPage backs a new guest page-table page with a pinned frame from
// the page-table heap and maps it in the nested page table.
func (vm *VM) allocPTPage() (arch.GPP, arch.SPP, error) {
	gpp := vm.allocGPP()
	spp, err := vm.mem.AllocPT()
	if err != nil {
		return 0, 0, err
	}
	vm.ptFrames[spp] = struct{}{}
	if _, err := vm.Nested.Map(gpp, spp, true); err != nil {
		return 0, 0, err
	}
	return gpp, spp, nil
}

// MapProcess maps pages guest virtual pages [base, base+pages) of process
// pid according to the placement mode and returns the guest physical pages
// assigned (in GVP order).
func (vm *VM) MapProcess(pid int, base arch.GVP, pages int, mode PlacementMode) ([]arch.GPP, error) {
	if pid < 0 || pid >= len(vm.Guests) {
		return nil, fmt.Errorf("hv: no process %d", pid)
	}
	gpps := make([]arch.GPP, 0, pages)
	for i := 0; i < pages; i++ {
		gvp := base + arch.GVP(i)
		gpp := vm.allocGPP()
		if err := vm.Guests[pid].Map(gvp, gpp); err != nil {
			return nil, err
		}
		tier := arch.TierDRAM
		present := true
		switch mode {
		case ModePaged:
			present = false
		case ModeInfHBM:
			tier = arch.TierHBM
		}
		frame, ok := vm.mem.AllocFrame(tier)
		if !ok {
			return nil, fmt.Errorf("hv: out of %v frames mapping process %d page %d", tier, pid, i)
		}
		if _, err := vm.Nested.Map(gpp, frame, present); err != nil {
			return nil, err
		}
		gpps = append(gpps, gpp)
	}
	return gpps, nil
}

// Translate functionally resolves (pid, gvp) through both page tables.
// Used by the simulator's stale-translation checker.
//
//hatric:hotpath
func (vm *VM) Translate(pid int, gvp arch.GVP) (arch.SPP, bool) {
	gpp, ok := vm.Guests[pid].Translate(gvp)
	if !ok {
		return 0, false
	}
	spp, present, ok := vm.Nested.Translate(gpp)
	if !ok || !present {
		return 0, false
	}
	return spp, true
}
