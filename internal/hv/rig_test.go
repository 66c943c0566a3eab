package hv

import (
	"testing"

	"hatric/internal/arch"
	"hatric/internal/cache"
	"hatric/internal/coherence"
	"hatric/internal/core"
	"hatric/internal/memdev"
	"hatric/internal/pagetable"
	"hatric/internal/stats"
	"hatric/internal/tstruct"
)

// multiVMStub extends the single-VM machineStub to a partitioned N-VM
// machine: VM v runs on CPUs {2v, 2v+1}, and page-table-line ownership is
// answered from the VMs' pinned PT-heap frames, exactly as the simulator's
// OwnerVM does.
type multiVMStub struct {
	*machineStub
	cpuVM []int
	vms   []*VM
}

func (m *multiVMStub) NumVMs() int                 { return len(m.vms) }
func (m *multiVMStub) VMCPUs(vm int) []int         { return m.vms[vm].CPUs }
func (m *multiVMStub) VMOf(cpu int) int            { return m.cpuVM[cpu] }
func (m *multiVMStub) VMMayCache(cpu, vm int) bool { return vm == m.cpuVM[cpu] }
func (m *multiVMStub) OwnerVM(spa arch.SPA) int {
	spp := spa.Page()
	for _, vm := range m.vms {
		if vm.OwnsPTPage(spp) {
			return vm.ID
		}
	}
	return -1
}

// multiRig is an N-VM hypervisor under direct (simulator-free) drive — the
// shared harness behind the migration, QoS, and KSM test suites. Each VM
// runs one process on two CPUs, with pages[v] data pages placed per
// modes[v], and a protocol wired through the cache hierarchy's translation
// relay, as in the full simulator.
type multiRig struct {
	mem     *memdev.Memory
	hier    *coherence.Hierarchy
	machine *multiVMStub
	hyp     *Hypervisor
	vms     []*VM
	proto   core.Protocol
	gpps    [][]arch.GPP // per VM: its data pages, in GVP order
}

func newMultiRig(t *testing.T, protocol string, paging PagingConfig, cfgs []VMConfig,
	pages []int, modes []PlacementMode, hbmFrames, dramFrames int) *multiRig {
	t.Helper()
	n := len(pages)
	cfg := arch.DefaultConfig()
	cfg.NumCPUs = 2 * n
	cfg.Mem = smallMem()
	cfg.Mem.HBMFrames = hbmFrames
	cfg.Mem.DRAMFrames = dramFrames
	mem := memdev.New(cfg.Mem)
	store := pagetable.NewStore(cfg.Mem.PTFrames)
	base := newMachineStub(cfg.NumCPUs)
	machine := &multiVMStub{machineStub: base}
	cnts := make([]*stats.Counters, cfg.NumCPUs)
	for i := range cnts {
		cnts[i] = base.cnt[i]
		machine.cpuVM = append(machine.cpuVM, i/2)
	}
	hier := coherence.NewHierarchy(&cfg, mem, cnts)

	r := &multiRig{mem: mem, hier: hier, machine: machine}
	for v := 0; v < n; v++ {
		vm, err := NewVM(v, store, mem, 1, []int{2 * v, 2*v + 1})
		if err != nil {
			t.Fatal(err)
		}
		gpps, err := vm.MapProcess(0, 0, pages[v], modes[v])
		if err != nil {
			t.Fatal(err)
		}
		machine.vms = append(machine.vms, vm)
		r.vms = append(r.vms, vm)
		r.gpps = append(r.gpps, gpps)
	}
	proto, err := core.New(protocol, machine, 2)
	if err != nil {
		t.Fatal(err)
	}
	hook, relay := proto.Hook()
	hier.SetTranslationHook(hook, relay)
	hyp, err := New(paging, cfgs, cfg.Cost, mem, hier, machine, proto, machine.vms, 1)
	if err != nil {
		t.Fatal(err)
	}
	r.hyp = hyp
	r.proto = proto
	return r
}

// migRig and qosRig are the suite-specific views of the shared rig; their
// constructors just bake in each suite's machine shape.
type migRig = multiRig

type qosRig = multiRig

// newMigRig builds two VMs with pagesA/pagesB data pages resident in the
// chosen tiers and headroom for a whole-VM evacuation in either direction.
func newMigRig(t *testing.T, protocol string, pagesA, pagesB int, modeA, modeB PlacementMode) *migRig {
	t.Helper()
	hbm := pagesA + pagesB + 16
	return newMultiRig(t, protocol, PagingConfig{Policy: "fifo"}, nil,
		[]int{pagesA, pagesB}, []PlacementMode{modeA, modeB}, hbm, 2*hbm)
}

// newQoSRig builds an N-VM rig with per-VM QoS configs and a constrained
// die-stacked pool, so quota and share arithmetic is observable.
func newQoSRig(t *testing.T, protocol string, cfgs []VMConfig, pages []int,
	modes []PlacementMode, hbmFrames int) *qosRig {
	t.Helper()
	return newMultiRig(t, protocol, PagingConfig{Policy: "fifo"}, cfgs,
		pages, modes, hbmFrames, 4*(sum(pages)+64))
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// cacheTranslations makes every CPU of vm a coherence sharer of each data
// page's nested leaf line and fills its nTLB with the current translation —
// the state a hardware walker leaves behind, so relays have real targets.
func (r *multiRig) cacheTranslations(t *testing.T, vm, pages int) {
	t.Helper()
	for gvp := arch.GVP(0); gvp < arch.GVP(pages); gvp++ {
		gpp, ok := r.vms[vm].Guests[0].Translate(gvp)
		if !ok {
			t.Fatalf("VM %d gvp %d unmapped", vm, gvp)
		}
		spp, _, ok := r.vms[vm].Nested.Translate(gpp)
		if !ok {
			t.Fatalf("VM %d gpp unmapped", vm)
		}
		leaf, ok := r.vms[vm].Nested.LeafSPA(gpp)
		if !ok {
			t.Fatalf("VM %d gpp %#x has no leaf", vm, uint64(gpp))
		}
		for _, cpu := range r.vms[vm].CPUs {
			r.hier.Read(cpu, leaf, cache.KindNestedPT, 0)
			r.hier.NoteTranslationFill(cpu, leaf, cache.KindNestedPT)
			r.machine.ts[cpu].NTLB.Fill(vm, tstruct.NTLBKey(gpp), uint64(spp), uint64(leaf)>>3, uint8(cache.KindNestedPT))
		}
	}
}

// fault demand-faults one page of a VM through the hypervisor.
func (r *multiRig) fault(t *testing.T, vm, page int) {
	t.Helper()
	if _, err := r.hyp.HandleFault(2*vm, vm, r.gpps[vm][page], 0); err != nil {
		t.Fatalf("VM %d fault on page %d: %v", vm, page, err)
	}
}

// residentSum checks the pool identity: per-VM resident frames plus KSM
// shared frames must sum to exactly the die-stacked frames in use, and
// never exceed capacity. (Shared frames belong to the dedup table, not to
// any one VM's residency.)
func (r *multiRig) residentSum(t *testing.T) int {
	t.Helper()
	total := 0
	for v := range r.vms {
		total += r.hyp.ResidentFrames(v)
	}
	total += r.hyp.KSMReport().SharedFrames
	cap := r.mem.Layout.HBMFrames
	used := cap - r.mem.FreeFrames(arch.TierHBM)
	if total != used {
		t.Fatalf("resident accounting drifted: per-VM sum %d, pool in use %d", total, used)
	}
	if total > cap {
		t.Fatalf("resident frames %d exceed pool capacity %d", total, cap)
	}
	return total
}
