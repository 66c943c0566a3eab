package core

import (
	"testing"

	"hatric/internal/arch"
	"hatric/internal/coherence"
	"hatric/internal/stats"
)

// twoVMMachine partitions a 4-CPU fake machine into two VMs (CPUs 0-1 run
// VM 0, CPUs 2-3 run VM 1) and declares PT-line ownership by address: SPAs
// below vmBoundary belong to VM 0, the rest to VM 1.
const vmBoundary = arch.SPA(0x10000)

func twoVMMachine() *fakeMachine {
	m := newFakeMachine(4)
	m.cpuVM = []int{0, 0, 1, 1}
	m.ownerOf = func(spa arch.SPA) int {
		if spa < vmBoundary {
			return 0
		}
		return 1
	}
	for cpu := 0; cpu < 4; cpu++ {
		fillAll(m, cpu, 0x100)
	}
	return m
}

// snapshot captures the isolation-relevant state of one CPU.
type cpuSnap struct {
	valid   int
	charged arch.Cycles
	cnt     stats.Counters
}

func snap(m *fakeMachine, cpu int) cpuSnap {
	return cpuSnap{valid: m.ts[cpu].ValidTotal(), charged: m.charged[cpu], cnt: *m.cnt[cpu]}
}

// assertUntouched verifies a remap in the other VM cost this CPU nothing:
// no entries lost, no stall cycles, no VM exits, no flushes, no
// invalidations. Only the CrossVMFiltered diagnostic may advance.
func assertUntouched(t *testing.T, m *fakeMachine, cpu int, before cpuSnap, proto string) {
	t.Helper()
	if got := m.ts[cpu].ValidTotal(); got != before.valid {
		t.Errorf("%s: CPU %d lost translation entries (%d -> %d) on another VM's remap",
			proto, cpu, before.valid, got)
	}
	if m.charged[cpu] != before.charged {
		t.Errorf("%s: CPU %d stalled %d cycles for another VM's remap",
			proto, cpu, m.charged[cpu]-before.charged)
	}
	c, b := m.cnt[cpu], before.cnt
	if c.VMExits != b.VMExits || c.TLBFlushes != b.TLBFlushes ||
		c.MMUCacheFlushes != b.MMUCacheFlushes || c.NTLBFlushes != b.NTLBFlushes ||
		c.TLBEntriesLost != b.TLBEntriesLost || c.MMUEntriesLost != b.MMUEntriesLost ||
		c.NTLBEntriesLost != b.NTLBEntriesLost || c.CoTagInvalidations != b.CoTagInvalidations ||
		c.CAMInvalidations != b.CAMInvalidations || c.PrefetchUpdates != b.PrefetchUpdates {
		t.Errorf("%s: CPU %d counters moved on another VM's remap:\nbefore %+v\nafter  %+v",
			proto, cpu, b, *c)
	}
}

// TestRemapNeverCrossesVMs is the isolation property: under every
// protocol, a remap of a VM 0 page (initiated from a VM 0 CPU) leaves the
// translation structures, stall clocks, and event counters of VM 1's CPUs
// untouched.
func TestRemapNeverCrossesVMs(t *testing.T) {
	for _, name := range []string{"sw", "hatric", "hatric-pf", "unitd", "ideal"} {
		m := twoVMMachine()
		p := mustNew(t, name, m)
		before := []cpuSnap{snap(m, 0), snap(m, 1), snap(m, 2), snap(m, 3)}

		p.OnRemap(0, 0)
		for cpu := 2; cpu <= 3; cpu++ {
			assertUntouched(t, m, cpu, before[cpu], name)
		}
		// Sanity: the protocols that act on remap do hit the owning VM.
		switch name {
		case "sw":
			if m.ts[1].ValidTotal() != 0 {
				t.Errorf("sw: owning VM's CPU 1 not flushed")
			}
		case "unitd":
			if m.ts[1].MMU.ValidCount() != 0 {
				t.Errorf("unitd: owning VM's CPU 1 MMU cache not flushed")
			}
		}
	}
}

// TestRelayFilteredAcrossVMs drives the coherence relay directly at a CPU
// of the wrong VM (the situation a reclaim of another VM's frame sets up:
// the reclaiming CPU caches the foreign PT line and later receives its
// invalidations) and asserts the VM-qualified compare drops nothing.
func TestRelayFilteredAcrossVMs(t *testing.T) {
	pte := arch.SPA(0x800) // owned by VM 0
	for _, name := range []string{"hatric", "hatric-pf", "unitd", "ideal"} {
		m := twoVMMachine()
		p := mustNew(t, name, m)
		hook, ok := p.(coherence.TranslationHook)
		if !ok {
			t.Fatalf("%s: no relay hook", name)
		}
		// Refill CPU 2 with entries whose co-tags match the written line
		// exactly — only the VM qualification can save them.
		fillAll(m, 2, uint64(pte)>>3)
		before := snap(m, 2)

		if dropped, _ := hook.OnPTInvalidation(2, pte); dropped != 0 {
			t.Errorf("%s: relay dropped %d entries of another VM", name, dropped)
		}
		if n := hook.OnPTBackInvalidation(2, pte); n != 0 {
			t.Errorf("%s: back-invalidation dropped %d entries of another VM", name, n)
		}
		if hook.CachesPTLine(2, pte) {
			t.Errorf("%s: CachesPTLine claims another VM's line", name)
		}
		if got := m.ts[2].ValidTotal(); got != before.valid {
			t.Errorf("%s: cross-VM relay changed CPU 2's structures", name)
		}
		if m.cnt[2].CrossVMFiltered == 0 {
			t.Errorf("%s: filtered relay not recorded", name)
		}
		// The same relay at the owning VM's CPU does invalidate.
		fillAll(m, 1, uint64(pte)>>3)
		if dropped, _ := hook.OnPTInvalidation(1, pte); dropped == 0 {
			t.Errorf("%s: relay at owning VM dropped nothing", name)
		}
	}
}
