package core

import (
	"strings"
	"testing"

	"hatric/internal/arch"
	"hatric/internal/cache"
	"hatric/internal/faults"
	"hatric/internal/stats"
	"hatric/internal/tstruct"
)

// fakeMachine implements Machine over in-memory translation structures.
// By default every CPU belongs to one VM (id 0) that owns every PT line;
// tests for VM isolation repartition cpuVM and install an ownerOf func,
// and scheduler tests install deschedOf / mayCacheOf hooks.
type fakeMachine struct {
	ts         []*tstruct.CPUSet
	cnt        []*stats.Counters
	charged    []arch.Cycles
	cost       arch.CostModel
	cpuVM      []int
	numVMs     int
	ownerOf    func(arch.SPA) int
	deschedOf  func(cpu, vm int) arch.Cycles
	mayCacheOf func(cpu, vm int) bool
	inj        *faults.Injector
}

func newFakeMachine(cpus int) *fakeMachine {
	m := &fakeMachine{cost: arch.KVMCostModel(), numVMs: 1}
	for i := 0; i < cpus; i++ {
		m.ts = append(m.ts, tstruct.NewCPUSet(arch.DefaultTLBConfig()))
		m.cnt = append(m.cnt, &stats.Counters{})
		m.charged = append(m.charged, 0)
		m.cpuVM = append(m.cpuVM, 0)
	}
	return m
}

func (m *fakeMachine) NumCPUs() int { return len(m.ts) }
func (m *fakeMachine) NumVMs() int  { return m.numVMs }
func (m *fakeMachine) VMCPUs(vm int) []int {
	var out []int
	for i, v := range m.cpuVM {
		if v == vm {
			out = append(out, i)
		}
	}
	return out
}
func (m *fakeMachine) VMOf(cpu int) int { return m.cpuVM[cpu] }
func (m *fakeMachine) VMMayCache(cpu, vm int) bool {
	if m.mayCacheOf != nil {
		return m.mayCacheOf(cpu, vm)
	}
	return vm == m.cpuVM[cpu]
}
func (m *fakeMachine) DeschedWait(cpu, vm int) arch.Cycles {
	if m.deschedOf != nil {
		return m.deschedOf(cpu, vm)
	}
	return 0
}
func (m *fakeMachine) OwnerVM(spa arch.SPA) int {
	if m.ownerOf != nil {
		return m.ownerOf(spa)
	}
	return 0
}
func (m *fakeMachine) TS(cpu int) *tstruct.CPUSet       { return m.ts[cpu] }
func (m *fakeMachine) Charge(cpu int, c arch.Cycles)    { m.charged[cpu] += c }
func (m *fakeMachine) Counters(cpu int) *stats.Counters { return m.cnt[cpu] }
func (m *fakeMachine) Cost() arch.CostModel             { return m.cost }

// ptes lets tests control what ReadPTE returns per address.
type pteVal struct {
	frame   uint64
	present bool
}

var fakePTEs = map[arch.SPA]pteVal{}

func (m *fakeMachine) ReadPTE(spa arch.SPA) (uint64, bool) {
	v := fakePTEs[spa]
	return v.frame, v.present
}

func (m *fakeMachine) FaultInjector() *faults.Injector { return m.inj }

// fillAll fills every structure of cpu with entries tagged with the CPU's
// own VM (what its hardware walker would leave behind).
func fillAll(m *fakeMachine, cpu int, src uint64) {
	vm := m.cpuVM[cpu]
	m.ts[cpu].L1TLB.Fill(vm, 1, 1, src, uint8(cache.KindNestedPT))
	m.ts[cpu].L2TLB.Fill(vm, 1, 1, src, uint8(cache.KindNestedPT))
	m.ts[cpu].NTLB.Fill(vm, 2, 2, src, uint8(cache.KindNestedPT))
	m.ts[cpu].MMU.Fill(vm, 3, 3, src, uint8(cache.KindNestedPT))
}

// mustNew builds a protocol with 2-byte co-tags by a name it must know.
func mustNew(t *testing.T, name string, m Machine) Protocol {
	t.Helper()
	p, err := New(name, m, 2)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewByName(t *testing.T) {
	m := newFakeMachine(2)
	for _, name := range []string{"sw", "hatric", "hatric-pf", "unitd", "ideal"} {
		p, err := New(name, m, 2)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, p.Name())
		}
	}
	for _, name := range []string{"", "HATRIC", "bogus"} {
		p, err := New(name, m, 2)
		if err == nil || p != nil {
			t.Errorf("New(%q) = %v, %v; want an error", name, p, err)
		} else if !strings.Contains(err.Error(), "sw, hatric, hatric-pf, unitd and ideal") {
			t.Errorf("New(%q) error %q does not list the valid names", name, err)
		}
	}
}

func TestHooks(t *testing.T) {
	m := newFakeMachine(1)
	if h, relay := NewSoftware(m).Hook(); h != nil || relay {
		t.Errorf("software must not install a relay hook")
	}
	for _, p := range []Protocol{NewHATRIC(m, 2), NewUNITDPP(m), NewIdeal(m)} {
		if h, relay := p.Hook(); h == nil || !relay {
			t.Errorf("%s must install a relay hook", p.Name())
		}
	}
}

func TestSoftwareRemapFlushesEveryone(t *testing.T) {
	m := newFakeMachine(4)
	sw := NewSoftware(m)
	for cpu := 0; cpu < 4; cpu++ {
		fillAll(m, cpu, 0x100)
	}
	init := sw.OnRemap(0, 0, arch.SPA(0x800), 0)
	if init == 0 {
		t.Errorf("initiator paid nothing")
	}
	for cpu := 0; cpu < 4; cpu++ {
		if m.ts[cpu].ValidTotal() != 0 {
			t.Errorf("CPU %d structures not flushed", cpu)
		}
		if cpu != 0 {
			if m.cnt[cpu].VMExits != 1 {
				t.Errorf("CPU %d VM exits = %d", cpu, m.cnt[cpu].VMExits)
			}
			if m.charged[cpu] == 0 {
				t.Errorf("target CPU %d not stalled", cpu)
			}
		}
	}
	if m.cnt[0].VMExits != 0 {
		t.Errorf("initiator should not VM exit (already in hypervisor)")
	}
	if m.cnt[0].IPIs != 3 {
		t.Errorf("IPIs = %d, want 3", m.cnt[0].IPIs)
	}
	if m.cnt[0].TLBEntriesLost == 0 {
		t.Errorf("flush losses not recorded")
	}
}

func TestSoftwareIPICostScalesWithTargets(t *testing.T) {
	small := newFakeMachine(2)
	big := newFakeMachine(16)
	cSmall := NewSoftware(small).OnRemap(0, 0, 0x800, 0)
	cBig := NewSoftware(big).OnRemap(0, 0, 0x800, 0)
	if cBig <= cSmall {
		t.Errorf("more vCPUs must cost the initiator more: %d vs %d", cBig, cSmall)
	}
}

// TestSoftwareDeschedStall: when a target vCPU is not scheduled, the
// initiator's shootdown pays the wait until its next quantum — the
// slowest (most-descheduled) target bounds the acknowledgment wait — and
// the wait is surfaced in DescheduledStallCycles. Hardware protocols pay
// nothing for the same machine state.
func TestSoftwareDeschedStall(t *testing.T) {
	wait := map[int]arch.Cycles{1: 5_000, 2: 20_000, 3: 0}
	newM := func() *fakeMachine {
		m := newFakeMachine(4)
		m.deschedOf = func(cpu, vm int) arch.Cycles { return wait[cpu] }
		return m
	}
	m := newM()
	base := NewSoftware(newFakeMachine(4)).OnRemap(0, 0, 0x800, 0)
	init := NewSoftware(m).OnRemap(0, 0, 0x800, 0)
	if got := init - base; got != 20_000 {
		t.Errorf("initiator stall = %d, want the slowest target's 20000", got)
	}
	if m.cnt[0].DescheduledStallCycles != 20_000 {
		t.Errorf("DescheduledStallCycles = %d", m.cnt[0].DescheduledStallCycles)
	}
	// HATRIC and ideal charge the initiator nothing regardless of waits.
	for _, p := range []Protocol{NewHATRIC(newM(), 2), NewIdeal(newM())} {
		if c := p.OnRemap(0, 0, 0x800, 0); c != 0 {
			t.Errorf("%s pays %d for descheduled targets; needs no vCPU at all", p.Name(), c)
		}
	}
	// UNITD's broadcast cost is wait-independent too.
	if a, b := NewUNITDPP(newM()).OnRemap(0, 0, 0x800, 0), NewUNITDPP(newFakeMachine(4)).OnRemap(0, 0, 0x800, 0); a != b {
		t.Errorf("unitd broadcast cost depends on scheduling: %d vs %d", a, b)
	}
}

// TestSoftwareFlushIsVPIDScoped: on a CPU time-sharing two VMs, a
// shootdown of one VM flushes only that VM's entries.
func TestSoftwareFlushIsVPIDScoped(t *testing.T) {
	m := newFakeMachine(2)
	m.numVMs = 2
	// CPU 1 currently runs VM 0 but also holds VM 1's entries (its vCPUs
	// time-share the CPU).
	m.ts[1].L1TLB.Fill(1, 77, 77, 0x700, 0)
	fillAll(m, 0, 0x100)
	fillAll(m, 1, 0x100)
	NewSoftware(m).OnRemap(0, 0, 0x800, 0)
	if m.ts[1].L1TLB.ValidCount() != 1 {
		t.Errorf("VM 1's entry did not survive VM 0's shootdown")
	}
	if _, ok := m.ts[1].L1TLB.Lookup(1, 77); !ok {
		t.Errorf("surviving entry is not VM 1's")
	}
}

func TestHATRICInvalidatesPrecisely(t *testing.T) {
	m := newFakeMachine(2)
	h := NewHATRIC(m, 2)
	pte := arch.SPA(0x1000) // line 0x40
	fillAll(m, 1, uint64(pte)>>3)
	m.ts[1].L1TLB.Fill(0, 9, 9, uint64(arch.SPA(0x8000))>>3, uint8(cache.KindNestedPT))
	dropped, remains := h.OnPTInvalidation(1, pte, cache.KindNestedPT)
	if dropped != 4 {
		t.Errorf("dropped %d, want the 4 matching entries", dropped)
	}
	if remains {
		t.Errorf("co-tags cover whole lines; nothing from the line remains")
	}
	if _, ok := m.ts[1].L1TLB.Lookup(0, 9); !ok {
		t.Errorf("unrelated entry dropped")
	}
	if m.cnt[1].CoTagInvalidations != 4 {
		t.Errorf("counter = %d", m.cnt[1].CoTagInvalidations)
	}
}

func TestHATRICAliasingWithNarrowCoTags(t *testing.T) {
	m := newFakeMachine(1)
	h1 := NewHATRIC(m, 1) // 8 bits of line index: lines 2 and 258 alias
	m.ts[0].L1TLB.Fill(0, 1, 1, 2*8, uint8(cache.KindNestedPT))
	m.ts[0].L1TLB.Fill(0, 2, 2, 258*8, uint8(cache.KindNestedPT))
	dropped, _ := h1.OnPTInvalidation(0, arch.SPA(2*64), cache.KindNestedPT)
	if dropped != 2 {
		t.Errorf("1-byte co-tags should alias: dropped %d, want 2", dropped)
	}
	// 2-byte co-tags keep them apart.
	m2 := newFakeMachine(1)
	h2 := NewHATRIC(m2, 2)
	m2.ts[0].L1TLB.Fill(0, 1, 1, 2*8, uint8(cache.KindNestedPT))
	m2.ts[0].L1TLB.Fill(0, 2, 2, 258*8, uint8(cache.KindNestedPT))
	dropped, _ = h2.OnPTInvalidation(0, arch.SPA(2*64), cache.KindNestedPT)
	if dropped != 1 {
		t.Errorf("2-byte co-tags should not alias at distance 256: dropped %d", dropped)
	}
}

func TestHATRICRemapFree(t *testing.T) {
	m := newFakeMachine(4)
	h := NewHATRIC(m, 2)
	if c := h.OnRemap(0, 0, 0x800, 0); c != 0 {
		t.Errorf("HATRIC remap cost = %d, want 0 (all work rides the store)", c)
	}
	for cpu := range m.charged {
		if m.charged[cpu] != 0 {
			t.Errorf("HATRIC stalled CPU %d", cpu)
		}
	}
}

func TestUNITDCoversOnlyTLBs(t *testing.T) {
	m := newFakeMachine(1)
	u := NewUNITDPP(m)
	pte := arch.SPA(0x2000)
	fillAll(m, 0, uint64(pte)>>3)
	dropped, remains := u.OnPTInvalidation(0, pte, cache.KindNestedPT)
	if dropped != 2 {
		t.Errorf("UNITD dropped %d, want 2 (L1+L2 TLB only)", dropped)
	}
	if !remains {
		t.Errorf("MMU cache and nTLB entries remain; sharer bit must survive")
	}
	if m.cnt[0].CAMCompares == 0 {
		t.Errorf("CAM compare energy not charged")
	}
	if m.ts[0].NTLB.ValidCount() != 1 || m.ts[0].MMU.ValidCount() != 1 {
		t.Errorf("UNITD must not touch MMU cache or nTLB")
	}
}

func TestUNITDRemapFlushesUncoveredStructures(t *testing.T) {
	m := newFakeMachine(3)
	u := NewUNITDPP(m)
	for cpu := 0; cpu < 3; cpu++ {
		fillAll(m, cpu, 0x500)
	}
	init := u.OnRemap(0, 0, 0x800, 0)
	if init == 0 {
		t.Errorf("broadcast should cost something")
	}
	for cpu := 0; cpu < 3; cpu++ {
		if m.ts[cpu].MMU.ValidCount() != 0 || m.ts[cpu].NTLB.ValidCount() != 0 {
			t.Errorf("CPU %d MMU/nTLB not flushed", cpu)
		}
		if m.ts[cpu].L1TLB.ValidCount() == 0 {
			t.Errorf("CPU %d TLB flushed (hardware keeps it coherent)", cpu)
		}
		if m.cnt[cpu].VMExits != 0 {
			t.Errorf("UNITD must not cause VM exits")
		}
	}
}

func TestIdealExactInvalidation(t *testing.T) {
	m := newFakeMachine(1)
	i := NewIdeal(m)
	// Two TLB entries from sibling PTEs in the same line.
	m.ts[0].L1TLB.Fill(0, 1, 1, 0x200, uint8(cache.KindNestedPT))
	m.ts[0].L1TLB.Fill(0, 2, 2, 0x201, uint8(cache.KindNestedPT))
	dropped, remains := i.OnPTInvalidation(0, arch.SPA(0x200<<3), cache.KindNestedPT)
	if dropped != 1 {
		t.Errorf("ideal dropped %d, want exactly 1", dropped)
	}
	if !remains {
		t.Errorf("sibling survives; sharer bit must too")
	}
	if c := i.OnRemap(0, 0, 0x800, 0); c != 0 {
		t.Errorf("ideal costs %d", c)
	}
}

func TestCachesPTLine(t *testing.T) {
	m := newFakeMachine(1)
	h := NewHATRIC(m, 2)
	m.ts[0].NTLB.Fill(0, 7, 7, 0x300, uint8(cache.KindNestedPT))
	if !h.CachesPTLine(0, arch.SPA(0x300<<3), cache.KindNestedPT) {
		t.Errorf("CachesPTLine missed")
	}
	if h.CachesPTLine(0, arch.SPA(0x9000<<3), cache.KindNestedPT) {
		t.Errorf("CachesPTLine false positive")
	}
}
