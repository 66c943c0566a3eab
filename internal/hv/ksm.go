package hv

import (
	"fmt"

	"hatric/internal/arch"
	"hatric/internal/xrand"
)

// KSMConfig tunes the kernel-samepage-merging scanner: a hypervisor daemon
// that walks resident pages, merges content-identical pages across VMs
// into shared copy-on-write frames (one coherent remap per merge), and
// breaks sharing when a guest writes a shared page (one remap plus a frame
// allocation per break). Page contents are modeled as deterministic
// content classes assigned once from the seeded stream, so every merge and
// break is a pure function of the run's seed — the golden-fingerprint and
// determinism machinery extends to dedup runs unchanged.
type KSMConfig struct {
	// ScanEvery triggers one scan step per this many memory references on
	// a CPU (the daemon steals cycles from whichever vCPU crossed the
	// threshold, like the defrag daemon). Zero disables KSM entirely.
	ScanEvery uint64
	// PagesPerScan is how many pages one scan step examines. Zero
	// defaults to 32.
	PagesPerScan int
	// SharingFactor is the fraction of data pages whose content is
	// duplicated somewhere (i.e. assigned a content class); the rest are
	// unique and never merge.
	SharingFactor float64
	// BreakRate is the probability a guest write to a shared page carries
	// new content and breaks the sharing (copy-on-write). Writes that
	// leave the content identical keep the sharing.
	BreakRate float64
	// ClassCount is the number of distinct duplicated contents. Fewer
	// classes mean more sharers per shared frame. Zero defaults to 32.
	ClassCount int
}

func (c *KSMConfig) pagesPerScan() int {
	if c.PagesPerScan > 0 {
		return c.PagesPerScan
	}
	return 32
}

func (c *KSMConfig) classCount() int {
	if c.ClassCount > 0 {
		return c.ClassCount
	}
	return 32
}

// KSMReport summarizes the dedup activity of a run.
type KSMReport struct {
	// Merges and Breaks total the copy-on-write merges and breaks.
	Merges, Breaks uint64
	// SharedFrames is the number of die-stacked frames currently backing
	// a shared content class.
	SharedFrames int
	// SharedMappings is the number of (VM, page) mappings currently
	// pointing at a shared frame.
	SharedMappings int
	// Classes is the configured content-class count.
	Classes int
}

// ksmClass is one entry of the shared-frame table: the frame holding the
// canonical copy of a content class and how many (VM, page) mappings
// share it.
type ksmClass struct {
	spp   arch.SPP
	refs  int
	valid bool
}

// pageCursor walks every VM's dense guest-physical page space in a
// deterministic round-robin order, wrapping at the end. Both the KSM
// scanner and the compaction daemon advance one; neither allocates.
type pageCursor struct {
	vm  int
	gpp uint64
}

// next returns the cursor's current (vm, gpp) and advances it. ok is
// false when no VM has any data pages at all.
func (p *pageCursor) next(vms []*VM) (int, arch.GPP, bool) {
	for i := 0; i <= len(vms); i++ {
		if p.gpp == 0 {
			p.gpp = 1
		}
		if p.gpp < vms[p.vm].gppNext {
			vm, g := p.vm, arch.GPP(p.gpp)
			p.gpp++
			return vm, g, true
		}
		p.vm = (p.vm + 1) % len(vms)
		p.gpp = 1
	}
	return 0, 0, false
}

// ksmState is the scanner's preallocated working set: per-VM content
// classes, per-VM shared-page bitmaps, the shared-frame table, and the
// scan cursor. Nothing on the scan or break path allocates.
type ksmState struct {
	cfg KSMConfig
	rng *xrand.RNG

	// classOf[vm][gpp] is the page's content class, or -1 for unique
	// content. Assigned once at enable time from the seeded stream.
	classOf [][]int32
	// shared[vm] marks pages currently mapped onto a shared frame.
	shared []gppSet
	// classes is the shared-frame table, indexed by content class.
	classes []ksmClass

	cursor       pageCursor
	merges       uint64
	breaks       uint64
	sharedFrames int
}

// EnableKSM turns the dedup scanner on. It must be called after every VM's
// processes are mapped (content classes cover the page space as it exists
// now) and before the run starts. Content-class assignment and break draws
// use dedicated splitmix streams derived from the hypervisor seed, so
// enabling KSM perturbs no other seeded stream.
func (h *Hypervisor) EnableKSM(cfg KSMConfig) error {
	if h.ksm != nil {
		return fmt.Errorf("hv: KSM already enabled")
	}
	if cfg.ScanEvery == 0 {
		return fmt.Errorf("hv: KSM needs ScanEvery > 0")
	}
	if cfg.SharingFactor < 0 || cfg.SharingFactor > 1 {
		return fmt.Errorf("hv: KSM sharing factor %v outside [0,1]", cfg.SharingFactor)
	}
	if cfg.BreakRate < 0 || cfg.BreakRate > 1 {
		return fmt.Errorf("hv: KSM break rate %v outside [0,1]", cfg.BreakRate)
	}
	k := &ksmState{
		cfg:     cfg,
		rng:     xrand.New(h.seed ^ 0x6b5f3d21),
		classes: make([]ksmClass, cfg.classCount()),
		classOf: make([][]int32, len(h.vms)),
		shared:  make([]gppSet, len(h.vms)),
	}
	assign := xrand.New(h.seed ^ 0x2f8a91c7)
	for v, vm := range h.vms {
		co := make([]int32, vm.gppNext)
		for i := range co {
			co[i] = -1
		}
		for g := uint64(1); g < vm.gppNext; g++ {
			spp, _, ok := vm.Nested.Translate(arch.GPP(g))
			if !ok || vm.OwnsPTPage(spp) {
				continue // guest page-table pages never merge
			}
			if assign.Float64() < cfg.SharingFactor {
				co[g] = int32(assign.Intn(cfg.classCount()))
			}
		}
		k.classOf[v] = co
		// Pre-grow the shared-page bitmap to the VM's whole page space so
		// merges on the hot path never allocate.
		if vm.gppNext > 1 {
			k.shared[v].add(arch.GPP(vm.gppNext - 1))
			k.shared[v].remove(arch.GPP(vm.gppNext - 1))
		}
	}
	h.ksm = k
	return nil
}

// KSMEnabled reports whether the dedup scanner is on.
func (h *Hypervisor) KSMEnabled() bool { return h.ksm != nil }

// KSMReport returns the scanner's activity summary.
func (h *Hypervisor) KSMReport() KSMReport {
	k := h.ksm
	if k == nil {
		return KSMReport{}
	}
	r := KSMReport{
		Merges: k.merges, Breaks: k.breaks,
		SharedFrames: k.sharedFrames, Classes: len(k.classes),
	}
	for i := range k.classes {
		if k.classes[i].valid {
			r.SharedMappings += k.classes[i].refs
		}
	}
	return r
}

// ksmShared reports whether (vm, gpp) is currently mapped onto a shared
// frame.
func (h *Hypervisor) ksmShared(vm int, gpp arch.GPP) bool {
	return h.ksm != nil && h.ksm.shared[vm].has(gpp)
}

// KSMShared is the read-only sharing probe: whether a guest write to
// (vm, gpp) would hit a KSM-shared frame and break the sharing. The
// parallel simulator calls it inline during an epoch — the sharing bitmaps
// are frozen between barriers — and defers the copy-on-write break itself
// (KSMWriteBreak, a coherent remap) to the epoch barrier.
//
//hatric:hotpath
func (h *Hypervisor) KSMShared(vm int, gpp arch.GPP) bool {
	return h.ksmShared(vm, gpp)
}

// KSMScan runs one scan step of the dedup daemon on cpu: it examines up to
// PagesPerScan pages in deterministic cursor order and merges duplicates
// onto shared frames. The first resident page of a content class donates
// its frame as the shared copy (no remap — the mapping is untouched);
// every later duplicate is remapped onto it, which hits a present
// translation and therefore runs full translation coherence against the
// owning VM. Returns the daemon cycles charged to cpu.
//
//hatric:hotpath
func (h *Hypervisor) KSMScan(cpu int, now arch.Cycles) arch.Cycles {
	k := h.ksm
	if k == nil {
		return 0
	}
	c := h.machine.Counters(cpu)
	var lat arch.Cycles
	for scanned := 0; scanned < k.cfg.pagesPerScan(); scanned++ {
		vmIdx, gpp, ok := k.cursor.next(h.vms)
		if !ok {
			return lat
		}
		cls := k.classOf[vmIdx][gpp]
		if cls < 0 || k.shared[vmIdx].has(gpp) {
			continue
		}
		// A migrating VM's resident set is frozen, and a VM at-or-under
		// its reserved share never loses frames to a merge.
		if h.Migrating(vmIdx) || h.qos.resident[vmIdx] <= h.qos.reserved[vmIdx] {
			continue
		}
		vm := h.vms[vmIdx]
		spp, present, ok := vm.Nested.Translate(gpp)
		if !ok || !present || h.mem.Layout.TierOf(spp) != arch.TierHBM {
			continue
		}
		cl := &k.classes[cls]
		if !cl.valid {
			// First resident copy: its frame becomes the shared copy. The
			// frame leaves the VM's private accounting (it now belongs to
			// the shared-frame table) but the mapping is untouched, so no
			// coherence runs.
			cl.spp, cl.refs, cl.valid = spp, 1, true
			k.shared[vmIdx].add(gpp)
			h.policies[vmIdx].Forget(gpp)
			h.qos.resident[vmIdx]--
			k.sharedFrames++
			continue
		}
		// Merge: remap the duplicate onto the shared frame and free it.
		// The translation was present, so stale copies may be cached
		// anywhere — translation coherence runs against the owning VM.
		pteSPA, err := vm.Nested.Remap(gpp, cl.spp, true)
		if err != nil {
			continue
		}
		h.mem.FreeFrame(spp)
		cl.refs++
		k.shared[vmIdx].add(gpp)
		h.policies[vmIdx].Forget(gpp)
		h.qos.resident[vmIdx]--
		k.merges++
		c.KSMMerges++
		lat += h.remap(cpu, vm.ID, pteSPA, now+lat)
	}
	return lat
}

// KSMWriteBreak handles a guest write by cpu to (vm, gpp). If the page is
// shared and the write changes its content (probability BreakRate), the
// copy-on-write protection trips: a VM exit, a fresh die-stacked frame
// (reclaimed through the quota-aware eviction path if the pool is dry), a
// page copy, and a coherent remap back to a private frame. The caller must
// re-translate afterwards — exactly the post-shootdown re-walk real
// hardware performs. Returns the cycles the writing vCPU stalls and
// whether a break happened.
//
//hatric:hotpath
func (h *Hypervisor) KSMWriteBreak(cpu, vmIdx int, gpp arch.GPP, now arch.Cycles) (arch.Cycles, bool) {
	k := h.ksm
	if k == nil || !k.shared[vmIdx].has(gpp) {
		return 0, false
	}
	if !k.rng.Bool(k.cfg.BreakRate) {
		return 0, false
	}
	vm := h.vms[vmIdx]
	cl := &k.classes[k.classOf[vmIdx][gpp]]
	c := h.machine.Counters(cpu)
	c.VMExits++
	lat := h.cost.VMExit + h.cost.HypervisorFault
	for h.mem.FreeFrames(arch.TierHBM) == 0 {
		evLat, err := h.evictOne(cpu, vmIdx, now+lat, true)
		if err != nil {
			return lat, false // nothing evictable; the sharing survives
		}
		lat += evLat
	}
	frame, got := h.mem.AllocFrame(arch.TierHBM)
	if !got {
		return lat, false
	}
	lat += h.mem.CopyPage(now+lat, cl.spp, frame)
	pteSPA, err := vm.Nested.Remap(gpp, frame, true)
	if err != nil {
		h.mem.FreeFrame(frame)
		return lat, false
	}
	c.KSMBreaks++
	lat += h.remap(cpu, vm.ID, pteSPA, now+lat)
	k.shared[vmIdx].remove(gpp)
	h.policies[vmIdx].NoteResident(gpp)
	h.qos.resident[vmIdx]++
	k.breaks++
	cl.refs--
	if cl.refs == 0 {
		// Last sharer gone: the shared frame is freed exactly now. The
		// class stays assigned, so later scans can re-merge the content.
		h.mem.FreeFrame(cl.spp)
		cl.valid = false
		k.sharedFrames--
	}
	lat += h.cost.VMEntry
	return lat, true
}

// ksmUnshare drops vm's sharer reference on gpp when another remap source
// (the migration engine) moves the page to a private frame. It returns
// whether the page was shared; when it was, the old frame belongs to the
// shared-frame table and the caller must not free it — the last sharer's
// departure frees it here.
func (h *Hypervisor) ksmUnshare(vmIdx int, gpp arch.GPP) bool {
	k := h.ksm
	if k == nil || !k.shared[vmIdx].has(gpp) {
		return false
	}
	cl := &k.classes[k.classOf[vmIdx][gpp]]
	k.shared[vmIdx].remove(gpp)
	cl.refs--
	if cl.refs == 0 {
		h.mem.FreeFrame(cl.spp)
		cl.valid = false
		k.sharedFrames--
	}
	return true
}
