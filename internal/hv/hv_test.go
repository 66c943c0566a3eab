package hv

import (
	"testing"

	"hatric/internal/arch"
	"hatric/internal/coherence"
	"hatric/internal/core"
	"hatric/internal/faults"
	"hatric/internal/memdev"
	"hatric/internal/pagetable"
	"hatric/internal/stats"
	"hatric/internal/tstruct"
)

// machineStub satisfies core.Machine for hypervisor tests.
type machineStub struct {
	ts      []*tstruct.CPUSet
	cnt     []*stats.Counters
	charged []arch.Cycles
	cost    arch.CostModel
	cpus    []int
	inj     *faults.Injector
}

func newMachineStub(cpus int) *machineStub {
	m := &machineStub{cost: arch.KVMCostModel()}
	for i := 0; i < cpus; i++ {
		m.ts = append(m.ts, tstruct.NewCPUSet(arch.DefaultTLBConfig()))
		m.cnt = append(m.cnt, &stats.Counters{})
		m.charged = append(m.charged, 0)
		m.cpus = append(m.cpus, i)
	}
	return m
}

func (m *machineStub) VMCPUs(vm int) []int                 { return m.cpus }
func (m *machineStub) VMMayCache(cpu, vm int) bool         { return vm == 0 }
func (m *machineStub) DeschedWait(cpu, vm int) arch.Cycles { return 0 }
func (m *machineStub) OwnerVM(arch.SPA) int                { return 0 }
func (m *machineStub) TS(cpu int) *tstruct.CPUSet          { return m.ts[cpu] }
func (m *machineStub) Charge(cpu int, c arch.Cycles)       { m.charged[cpu] += c }
func (m *machineStub) Counters(cpu int) *stats.Counters    { return m.cnt[cpu] }
func (m *machineStub) Cost() arch.CostModel                { return m.cost }
func (m *machineStub) ReadPTE(arch.SPA) (uint64, bool)     { return 0, false }
func (m *machineStub) FaultInjector() *faults.Injector     { return m.inj }

type hvRig struct {
	mem     *memdev.Memory
	vm      *VM
	hyp     *Hypervisor
	machine *machineStub
}

func smallMem() arch.MemConfig {
	return arch.MemConfig{
		HBMFrames:         32,
		DRAMFrames:        256,
		HBMLatency:        100,
		DRAMLatency:       200,
		HBMBytesPerCycle:  64,
		DRAMBytesPerCycle: 16,
		PTFrames:          128,
	}
}

func newHVRig(t *testing.T, pcfg PagingConfig, pages int, mode PlacementMode) *hvRig {
	t.Helper()
	cfg := arch.DefaultConfig()
	cfg.NumCPUs = 2
	cfg.Mem = smallMem()
	mem := memdev.New(cfg.Mem)
	store := pagetable.NewStore(cfg.Mem.PTFrames)
	machine := newMachineStub(2)
	cnts := []*stats.Counters{machine.cnt[0], machine.cnt[1]}
	hier := coherence.NewHierarchy(&cfg, mem, cnts)
	vm, err := NewVM(0, store, mem, 1, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vm.MapProcess(0, 0, pages, mode); err != nil {
		t.Fatal(err)
	}
	proto := core.NewSoftware(machine)
	hyp, err := New(pcfg, nil, cfg.Cost, mem, hier, machine, proto, []*VM{vm}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return &hvRig{mem: mem, vm: vm, hyp: hyp, machine: machine}
}

func TestFIFOPolicy(t *testing.T) {
	p := NewFIFO()
	if _, ok := p.PickVictim(); ok {
		t.Fatal("empty policy picked a victim")
	}
	p.NoteResident(1)
	p.NoteResident(2)
	p.NoteResident(3)
	if p.Resident() != 3 {
		t.Errorf("resident = %d", p.Resident())
	}
	for want := arch.GPP(1); want <= 3; want++ {
		v, ok := p.PickVictim()
		if !ok || v != want {
			t.Errorf("FIFO order broken: got %d want %d", v, want)
		}
	}
}

type fakeBits map[arch.GPP]bool

func (f fakeBits) Accessed(g arch.GPP) bool       { return f[g] }
func (f fakeBits) SetAccessed(g arch.GPP, b bool) { f[g] = b }

func TestClockSkipsAccessed(t *testing.T) {
	bits := fakeBits{}
	p := NewClock(bits)
	p.NoteResident(1)
	p.NoteResident(2)
	p.NoteResident(3)
	bits[1] = true
	bits[2] = true
	v, ok := p.PickVictim()
	if !ok || v != 3 {
		t.Errorf("CLOCK should evict the un-accessed page 3, got %d", v)
	}
	// The sweep cleared the accessed bits it skipped.
	if bits[1] || bits[2] {
		t.Errorf("CLOCK must clear accessed bits as it sweeps")
	}
	// Now all bits clear: next victim comes in ring order.
	if v, _ := p.PickVictim(); v != 1 && v != 2 {
		t.Errorf("second victim = %d", v)
	}
}

func TestClockAllHot(t *testing.T) {
	bits := fakeBits{}
	p := NewClock(bits)
	for g := arch.GPP(1); g <= 4; g++ {
		p.NoteResident(g)
		bits[g] = true
	}
	if _, ok := p.PickVictim(); !ok {
		t.Errorf("CLOCK must evict even when everything is hot")
	}
	if p.Resident() != 3 {
		t.Errorf("resident = %d after eviction", p.Resident())
	}
}

func TestVMMapProcessModes(t *testing.T) {
	for _, mode := range []PlacementMode{ModePaged, ModeNoHBM, ModeInfHBM} {
		r := newHVRig(t, PagingConfig{Policy: "fifo"}, 8, mode)
		for gvp := arch.GVP(0); gvp < 8; gvp++ {
			gpp, ok := r.vm.Guests[0].Translate(gvp)
			if !ok {
				t.Fatalf("%v: gvp %d unmapped in guest PT", mode, gvp)
			}
			spp, present, ok := r.vm.Nested.Translate(gpp)
			if !ok {
				t.Fatalf("%v: gpp unmapped in nested PT", mode)
			}
			wantPresent := mode != ModePaged
			if present != wantPresent {
				t.Errorf("%v: present = %v", mode, present)
			}
			wantTier := arch.TierDRAM
			if mode == ModeInfHBM {
				wantTier = arch.TierHBM
			}
			if r.mem.Layout.TierOf(spp) != wantTier {
				t.Errorf("%v: page in %v", mode, r.mem.Layout.TierOf(spp))
			}
		}
	}
}

func TestVMTranslate(t *testing.T) {
	r := newHVRig(t, PagingConfig{}, 4, ModeNoHBM)
	spp, ok := r.vm.Translate(0, 2)
	if !ok || spp == 0 {
		t.Errorf("Translate failed: %v %v", spp, ok)
	}
	if _, ok := r.vm.Translate(0, 100); ok {
		t.Errorf("unmapped GVP translated")
	}
}

func TestHandleFaultMigratesIn(t *testing.T) {
	r := newHVRig(t, PagingConfig{Policy: "lru"}, 8, ModePaged)
	gpp, _ := r.vm.Guests[0].Translate(0)
	lat, err := r.hyp.HandleFault(0, 0, gpp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lat < r.machine.cost.VMExit {
		t.Errorf("fault latency %d below a VM exit", lat)
	}
	spp, present, _ := r.vm.Nested.Translate(gpp)
	if !present || r.mem.Layout.TierOf(spp) != arch.TierHBM {
		t.Errorf("page not migrated into die-stacked DRAM: present=%v tier=%v",
			present, r.mem.Layout.TierOf(spp))
	}
	c := r.machine.cnt[0]
	if c.PageFaults != 1 || c.PageMigrations != 1 || c.VMExits != 1 {
		t.Errorf("counters: faults=%d migrations=%d exits=%d",
			c.PageFaults, c.PageMigrations, c.VMExits)
	}
}

func TestEvictionWhenFull(t *testing.T) {
	r := newHVRig(t, PagingConfig{Policy: "fifo"}, 64, ModePaged)
	// Fault in more pages than the 32-frame die-stack holds.
	for gvp := arch.GVP(0); gvp < 40; gvp++ {
		gpp, _ := r.vm.Guests[0].Translate(gvp)
		if _, err := r.hyp.HandleFault(0, 0, gpp, 0); err != nil {
			t.Fatalf("fault %d: %v", gvp, err)
		}
	}
	c := r.machine.cnt[0]
	if c.PageEvictions == 0 {
		t.Fatalf("no evictions despite exceeding capacity")
	}
	// Evicted pages are back in off-chip DRAM, not-present, with frames.
	evicted := 0
	for gvp := arch.GVP(0); gvp < 40; gvp++ {
		gpp, _ := r.vm.Guests[0].Translate(gvp)
		spp, present, _ := r.vm.Nested.Translate(gpp)
		if !present {
			evicted++
			if r.mem.Layout.TierOf(spp) != arch.TierDRAM {
				t.Errorf("evicted page not in DRAM")
			}
		}
	}
	if evicted == 0 {
		t.Errorf("no page ended up evicted")
	}
	// Software coherence ran for each eviction: targets flushed and IPIed.
	if c.IPIs == 0 {
		t.Errorf("evictions must trigger the shootdown sequence")
	}
}

func TestMigrationDaemonKeepsPool(t *testing.T) {
	r := newHVRig(t, PagingConfig{Policy: "fifo", Daemon: true, DaemonLow: 0.1, DaemonHigh: 0.25}, 64, ModePaged)
	for gvp := arch.GVP(0); gvp < 48; gvp++ {
		gpp, _ := r.vm.Guests[0].Translate(gvp)
		if _, err := r.hyp.HandleFault(0, 0, gpp, 0); err != nil {
			t.Fatalf("fault %d: %v", gvp, err)
		}
	}
	free := r.mem.FreeFrames(arch.TierHBM)
	if free < 3 { // low watermark of 32 frames = 3.2
		t.Errorf("daemon failed to maintain the pool: %d free", free)
	}
}

func TestPrefetchMigratesNeighbors(t *testing.T) {
	r := newHVRig(t, PagingConfig{Policy: "fifo", Prefetch: 3}, 16, ModePaged)
	// Fault a page in the middle of the footprint: its guest-physical
	// neighbors are data pages (the very first page neighbors the guest
	// page-table pages, which are pinned and skipped).
	gpp, _ := r.vm.Guests[0].Translate(5)
	if _, err := r.hyp.HandleFault(0, 0, gpp, 0); err != nil {
		t.Fatal(err)
	}
	c := r.machine.cnt[0]
	if c.PagePrefetches != 3 {
		t.Errorf("prefetches = %d, want 3", c.PagePrefetches)
	}
	// The neighbors are now present; touching them does not fault.
	for gvp := arch.GVP(6); gvp <= 8; gvp++ {
		g, _ := r.vm.Guests[0].Translate(gvp)
		if _, present, _ := r.vm.Nested.Translate(g); !present {
			t.Errorf("neighbor gvp %d not prefetched", gvp)
		}
	}
	// Pinned page-table pages must never be prefetch victims: the first
	// page's neighbors are PT pages and get skipped.
	r2 := newHVRig(t, PagingConfig{Policy: "fifo", Prefetch: 3}, 16, ModePaged)
	g0, _ := r2.vm.Guests[0].Translate(0)
	if _, err := r2.hyp.HandleFault(0, 0, g0, 0); err != nil {
		t.Fatal(err)
	}
	if r2.machine.cnt[0].PagePrefetches != 0 {
		t.Errorf("prefetched past pinned PT pages")
	}
}

func TestDefragRemapsLivePage(t *testing.T) {
	r := newHVRig(t, PagingConfig{Policy: "fifo", DefragEvery: 1}, 8, ModePaged)
	gpp, _ := r.vm.Guests[0].Translate(0)
	r.hyp.HandleFault(0, 0, gpp, 0)
	before, _, _ := r.vm.Nested.Translate(gpp)
	lat := r.hyp.Defrag(0, 0, 0)
	if lat == 0 {
		t.Fatalf("defrag did nothing")
	}
	after, present, _ := r.vm.Nested.Translate(gpp)
	if !present {
		t.Errorf("defragged page lost presence")
	}
	if before == after {
		t.Errorf("defrag did not move the page")
	}
	if r.machine.cnt[0].DefragRemaps != 1 {
		t.Errorf("defrag counter = %d", r.machine.cnt[0].DefragRemaps)
	}
	// A defrag remap of a live page triggers full translation coherence.
	if r.machine.cnt[0].IPIs == 0 {
		t.Errorf("defrag remap must run translation coherence")
	}
}

func TestBestPolicy(t *testing.T) {
	p := BestPolicy()
	if p.Policy != "lru" || !p.Daemon || p.Prefetch == 0 {
		t.Errorf("BestPolicy should be lru+daemon+prefetch: %+v", p)
	}
}

func TestUnknownPolicyRejected(t *testing.T) {
	cfg := arch.DefaultConfig()
	cfg.Mem = smallMem()
	mem := memdev.New(cfg.Mem)
	store := pagetable.NewStore(cfg.Mem.PTFrames)
	machine := newMachineStub(1)
	hier := coherence.NewHierarchy(&cfg, mem, []*stats.Counters{machine.cnt[0]})
	vm, _ := NewVM(0, store, mem, 1, []int{0})
	if _, err := New(PagingConfig{Policy: "mru"}, nil, cfg.Cost, mem, hier, machine, core.NewSoftware(machine), []*VM{vm}, 1); err == nil {
		t.Errorf("bogus policy accepted")
	}
}

func TestPlacementModeString(t *testing.T) {
	if ModePaged.String() != "paged" || ModeNoHBM.String() != "no-hbm" || ModeInfHBM.String() != "inf-hbm" {
		t.Errorf("mode names wrong")
	}
	if PlacementMode(9).String() != "unknown-mode" {
		t.Errorf("unknown mode name")
	}
	// The text encoding is the String name, both ways, and only for a
	// valid mode.
	for _, mode := range []PlacementMode{ModePaged, ModeNoHBM, ModeInfHBM} {
		text, err := mode.MarshalText()
		if err != nil || string(text) != mode.String() {
			t.Errorf("%v marshals to %q, %v", mode, text, err)
		}
		var back PlacementMode
		if err := back.UnmarshalText(text); err != nil || back != mode {
			t.Errorf("%q unmarshals to %v, %v; want %v", text, back, err, mode)
		}
	}
	for _, bad := range []PlacementMode{-1, 3, 9} {
		if _, err := bad.MarshalText(); err == nil {
			t.Errorf("out-of-range mode %d marshaled", int(bad))
		}
	}
	var back PlacementMode
	if err := back.UnmarshalText([]byte("inf_hbm")); err == nil {
		t.Errorf("misspelled mode name unmarshaled")
	}
}
