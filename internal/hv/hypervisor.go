package hv

import (
	"fmt"

	"hatric/internal/arch"
	"hatric/internal/cache"
	"hatric/internal/coherence"
	"hatric/internal/core"
	"hatric/internal/faults"
	"hatric/internal/memdev"
	"hatric/internal/xrand"
)

// PagingConfig selects the paging policy combination (Sec. 5.2 / Fig. 8).
type PagingConfig struct {
	// Policy is "fifo" or "lru".
	Policy string
	// Daemon enables the migration daemon: evictions happen pre-emptively
	// in the background so a pool of free frames always exists and the
	// eviction (and its translation coherence initiation) moves off the
	// faulting vCPU's critical path. Target-side costs remain.
	Daemon bool
	// DaemonLow and DaemonHigh are the free-frame watermarks, as fractions
	// of die-stacked capacity. Zero values default to 2% and 6%.
	DaemonLow, DaemonHigh float64
	// Prefetch migrates this many adjacent pages on every demand fault.
	Prefetch int
	// DefragEvery injects one defragmentation remap (a live page moved
	// between frames to build contiguity for superpages) per this many
	// memory references on a CPU. Zero disables. These remaps hit
	// present translations and therefore always trigger full translation
	// coherence.
	DefragEvery uint64
}

// BestPolicy returns the best-performing paging configuration found in the
// study (LRU + migration daemon + prefetching), the paper's "curr-best".
func BestPolicy() PagingConfig {
	return PagingConfig{Policy: "lru", Daemon: true, Prefetch: 4}
}

// Hypervisor manages the inter-tier paging of every VM on the machine and
// initiates translation coherence through the configured protocol. All VMs
// compete for the same pool of die-stacked frames; each VM has its own
// eviction policy instance (its victim candidates are per-VM guest
// physical pages) and its own effective paging configuration, and
// capacity pressure is spread across VMs by the quota-aware victim
// selector in qos.go: VMs over their fair share are preferred victims,
// VMs at-or-under their reserved share are never stolen from, and with no
// quotas configured the selector degenerates to the legacy round-robin
// hand. The translation coherence each eviction triggers is always scoped
// to the VM owning the evicted page.
type Hypervisor struct {
	cost     arch.CostModel
	mem      *memdev.Memory
	hier     *coherence.Hierarchy
	machine  core.Machine
	protocol core.Protocol
	vms      []*VM
	policies []Policy
	rng      *xrand.RNG
	seed     uint64

	// inj is the machine's fault injector (nil when fault-free); the
	// migration engine draws link-outage decisions from it.
	inj *faults.Injector

	// qos is the per-VM paging configuration and die-stacked share
	// accounting (see qos.go).
	qos qosState

	// hand is the eviction cursor the victim scans rotate over VMs.
	hand int

	// migrations holds every scheduled live migration (see migration.go);
	// unfinishedMigrations counts those not yet completed, letting the
	// simulator's hot path stop pumping the moment all are done.
	migrations           []*Migration
	unfinishedMigrations int

	// Memory-management storm sources (all nil/empty by default): the KSM
	// dedup scanner (ksm.go), balloon inflations (balloon.go), and the
	// compaction daemon (compaction.go).
	ksm                *ksmState
	balloons           []*Balloon
	unfinishedBalloons int
	compact            *compactState
}

// New builds the hypervisor for the given VMs. cfg is the machine-wide
// paging configuration; vmcfgs optionally overrides it per VM and adds
// die-stacked reservations and share weights (nil, or all zero values,
// reproduces the pre-QoS machine exactly).
func New(cfg PagingConfig, vmcfgs []VMConfig, cost arch.CostModel, mem *memdev.Memory,
	hier *coherence.Hierarchy, machine core.Machine, protocol core.Protocol,
	vms []*VM, seed uint64) (*Hypervisor, error) {
	if len(vms) == 0 {
		return nil, fmt.Errorf("hv: no VMs")
	}
	h := &Hypervisor{
		cost: cost, mem: mem, hier: hier,
		machine: machine, protocol: protocol,
		vms:  append([]*VM(nil), vms...),
		rng:  xrand.New(seed ^ 0x9a7c15),
		seed: seed,
		inj:  machine.FaultInjector(),
	}
	if err := h.initQoS(cfg, vmcfgs); err != nil {
		return nil, err
	}
	for v, vm := range h.vms {
		switch h.qos.pcfgs[v].Policy {
		case "", "lru":
			h.policies = append(h.policies, NewClock(vm.Nested))
		case "fifo":
			h.policies = append(h.policies, NewFIFO())
		default:
			return nil, fmt.Errorf("hv: unknown paging policy %q (VM %d)", h.qos.pcfgs[v].Policy, v)
		}
	}
	return h, nil
}

// VMs returns the managed virtual machines.
func (h *Hypervisor) VMs() []*VM { return h.vms }

// Policy returns VM vm's active eviction policy.
func (h *Hypervisor) Policy(vm int) Policy { return h.policies[vm] }

// HandleFault services a nested page fault on (cpu, gpp) of VM vm: the VM
// exit, the page-fault handler, frame reclamation if needed, the page
// copy, and the nested page-table update. It returns the cycles the
// faulting vCPU is stalled.
//
//hatric:hotpath
func (h *Hypervisor) HandleFault(cpu, vm int, gpp arch.GPP, now arch.Cycles) (arch.Cycles, error) {
	if vm < 0 || vm >= len(h.vms) {
		//hatric:alloc-ok cold error exit; malformed-config faults abort the run
		return 0, fmt.Errorf("hv: fault on unknown VM %d", vm)
	}
	c := h.machine.Counters(cpu)
	c.PageFaults++
	c.VMExits++
	lat := h.cost.VMExit + h.cost.HypervisorFault
	pc := h.pcfg(vm)

	// Reclaim frames on the critical path only when the pool is dry. The
	// victim may belong to any VM (shared frame pool), subject to the
	// quota-aware selection of qos.go.
	for h.mem.FreeFrames(arch.TierHBM) == 0 {
		evLat, err := h.evictOne(cpu, vm, now+lat, true)
		if err != nil {
			return lat, err
		}
		lat += evLat
	}

	mLat, err := h.migrateIn(cpu, vm, gpp, now+lat, true)
	if err != nil {
		return lat, err
	}
	lat += mLat

	// Prefetch adjacent pages (charged to the devices, not the vCPU).
	for i := 1; i <= pc.Prefetch; i++ {
		if h.mem.FreeFrames(arch.TierHBM) <= h.qos.lowOf[vm] {
			break
		}
		next := gpp + arch.GPP(i)
		if _, present, ok := h.vms[vm].Nested.Translate(next); !ok || present {
			continue
		}
		if _, err := h.migrateIn(cpu, vm, next, now+lat, false); err != nil {
			break
		}
		c.PagePrefetches++
	}

	// Migration daemon: refill the free pool in the background.
	if pc.Daemon && h.mem.FreeFrames(arch.TierHBM) < h.qos.lowOf[vm] {
		for h.mem.FreeFrames(arch.TierHBM) < h.qos.highOf[vm] {
			if _, err := h.evictOne(cpu, vm, now+lat, false); err != nil {
				break
			}
		}
	}

	lat += h.cost.VMEntry
	return lat, nil
}

// migrateIn moves gpp's page of VM vm from off-chip DRAM into a
// die-stacked frame and maps it present. A not-present-to-present
// transition leaves no stale translation entries, so no translation
// coherence is initiated — only the ordinary coherent PTE store.
func (h *Hypervisor) migrateIn(cpu, vm int, gpp arch.GPP, now arch.Cycles, critical bool) (arch.Cycles, error) {
	oldSPP, present, ok := h.vms[vm].Nested.Translate(gpp)
	if !ok {
		//hatric:alloc-ok cold error exit; an unmapped fault aborts the run
		return 0, fmt.Errorf("hv: fault on unmapped gpp %#x (VM %d)", uint64(gpp), vm)
	}
	if present {
		return 0, nil // raced with a prefetch of the same page
	}
	frame, got := h.mem.AllocFrame(arch.TierHBM)
	if !got {
		return 0, fmt.Errorf("hv: no free die-stacked frame")
	}
	copyLat := h.mem.CopyPage(now, oldSPP, frame)
	h.mem.FreeFrame(oldSPP)
	pteSPA, err := h.vms[vm].Nested.Remap(gpp, frame, true)
	if err != nil {
		return 0, err
	}
	h.machine.Counters(cpu).PageMigrations++
	wLat := h.storePTE(cpu, pteSPA, now)
	h.policies[vm].NoteResident(gpp)
	h.qos.resident[vm]++
	// A page faulted in during a live migration of this VM became resident
	// after the pre-copy snapshot; enroll it so it still gets transferred.
	// Faults land in the die-stacked tier, so a promotion to HBM needs no
	// enrollment — the page is already at the destination.
	for _, m := range h.migrations {
		if m.spec.VM == vm && m.phase == migrationPreCopy && m.spec.Dest != arch.TierHBM {
			m.addPage(gpp)
		}
	}
	if !critical {
		return 0, nil
	}
	return copyLat + wLat, nil
}

// storePTE makes the hypervisor's coherent store to the nested PTE at
// pteSPA on cpu and returns its cycles. The store is an ordinary cache
// coherence write: under a hardware protocol its invalidations reach the
// co-tagged translation structures, which is the whole of HATRIC's
// translation coherence. A not-present-to-present fault-in needs nothing
// more; every other remap goes through remap.
func (h *Hypervisor) storePTE(cpu int, pteSPA arch.SPA, now arch.Cycles) arch.Cycles {
	h.machine.Counters(cpu).PTEWrites++
	return h.cost.PTEWrite + h.hier.Write(cpu, pteSPA, cache.KindNestedPT, now)
}

// remap stores the nested PTE at pteSPA of a page of VM vm whose old
// mapping was present, then initiates translation coherence for it:
// stale translations may be cached anywhere, so the protocol runs against
// vm's CPUs. It returns the initiator's cycles, the store's plus the
// shootdown's. Every eviction (balloons included), defrag, KSM merge and
// break, compaction move and live-migration copy remaps through here.
func (h *Hypervisor) remap(cpu, vm int, pteSPA arch.SPA, now arch.Cycles) arch.Cycles {
	lat := h.storePTE(cpu, pteSPA, now)
	tcLat := h.protocol.OnRemap(cpu, vm)
	c := h.machine.Counters(cpu)
	c.RemapsInitiated++
	c.ShootdownCycles += uint64(tcLat)
	return lat + tcLat
}

// evictOne unmaps one die-stacked-resident page and migrates it back to
// off-chip DRAM. This is the present-to-not-present transition of Fig. 3:
// stale translations may be cached anywhere, so translation coherence runs
// — against the CPUs of the VM owning the victim page, which need not be
// the faulting CPU's VM (inter-VM capacity pressure). reqVM is the VM the
// frame is reclaimed for; the quota-aware selector (qos.go) spares VMs
// at-or-under their reserved share and prefers VMs over their fair share.
// Falling back to a frozen (mid-migration) VM is benign — eviction moves
// the page off-die and marks it not-present, and the migration engine
// treats queued pages that disappeared as already handled — but it is
// counted (FrozenVMSteals) rather than silent. When critical is false
// (migration daemon), the initiator-side costs stay off the faulting
// vCPU; target-side costs (VM exits, flushes) are charged to the targets
// either way.
func (h *Hypervisor) evictOne(cpu, reqVM int, now arch.Cycles, critical bool) (arch.Cycles, error) {
	vmIdx, ok := h.pickVictimVM(reqVM)
	if !ok {
		return 0, fmt.Errorf("hv: nothing to evict")
	}
	_, lat, err := h.evictFrom(cpu, vmIdx, reqVM, now, critical)
	return lat, err
}

// evictFrom evicts one die-stacked page of VM vmIdx specifically,
// bypassing the victim-VM selector: the balloon driver returns its own
// VM's frames this way (and remembers the returned victim GPP so a later
// deflation can hand the same pages back). Accounting and the coherence
// storm are identical to evictOne — reqVM only attributes the
// cross-VM/frozen charges.
func (h *Hypervisor) evictFrom(cpu, vmIdx, reqVM int, now arch.Cycles, critical bool) (arch.GPP, arch.Cycles, error) {
	vm := h.vms[vmIdx]
	victim, ok := h.policies[vmIdx].PickVictim()
	if !ok {
		//hatric:alloc-ok cold error exit; eviction from an empty pool aborts the run
		return 0, 0, fmt.Errorf("hv: nothing to evict in VM %d", vmIdx)
	}
	oldSPP, _, ok := vm.Nested.Translate(victim)
	if !ok {
		//hatric:alloc-ok cold error exit; an unmapped victim aborts the run
		return 0, 0, fmt.Errorf("hv: victim gpp %#x unmapped (VM %d)", uint64(victim), vmIdx)
	}
	dramFrame, got := h.mem.AllocFrame(arch.TierDRAM)
	if !got {
		return 0, 0, fmt.Errorf("hv: off-chip DRAM full")
	}
	copyLat := h.mem.CopyPage(now, oldSPP, dramFrame)
	pteSPA, err := vm.Nested.Remap(victim, dramFrame, false)
	if err != nil {
		return 0, 0, err
	}
	h.mem.FreeFrame(oldSPP)
	c := h.machine.Counters(cpu)
	c.PageEvictions++
	var charge evictCharge
	h.noteEvicted(vmIdx, reqVM, &charge)
	if charge.crossVM {
		c.CrossVMEvictions++
	}
	if charge.frozen {
		c.FrozenVMSteals++
	}
	rLat := h.remap(cpu, vm.ID, pteSPA, now)
	if !critical {
		return victim, 0, nil
	}
	return victim, copyLat + rLat, nil
}

// Defrag relocates one live die-stacked page of VM vm to another
// die-stacked frame (contiguity building for superpages). The mapping
// stays present, so cached translations go stale and translation coherence
// runs, exactly as for an eviction. Returns initiator cycles.
//
//hatric:hotpath
func (h *Hypervisor) Defrag(cpu, vm int, now arch.Cycles) arch.Cycles {
	if vm < 0 || vm >= len(h.vms) {
		return 0
	}
	pages := h.policies[vm].ResidentPages()
	if len(pages) == 0 {
		return 0
	}
	gpp := pages[h.rng.Intn(len(pages))]
	oldSPP, present, ok := h.vms[vm].Nested.Translate(gpp)
	if !ok || !present {
		return 0
	}
	frame, got := h.mem.AllocFrame(arch.TierHBM)
	if !got {
		return 0
	}
	copyLat := h.mem.CopyPage(now, oldSPP, frame)
	pteSPA, err := h.vms[vm].Nested.Remap(gpp, frame, true)
	if err != nil {
		h.mem.FreeFrame(frame)
		return 0
	}
	h.mem.FreeFrame(oldSPP)
	h.machine.Counters(cpu).DefragRemaps++
	return copyLat + h.remap(cpu, h.vms[vm].ID, pteSPA, now)
}

// DefragEvery exposes VM vm's configured defragmentation period.
func (h *Hypervisor) DefragEvery(vm int) uint64 {
	if vm < 0 || vm >= len(h.vms) {
		return 0
	}
	return h.qos.pcfgs[vm].DefragEvery
}
