package coherence

import (
	"testing"
	"testing/quick"

	"hatric/internal/arch"
	"hatric/internal/cache"
	"hatric/internal/xrand"
)

// TestSharerSupersetInvariant drives the hierarchy with random reads,
// writes, and translation fills/evictions on page-table lines and checks
// the safety property HATRIC's correctness rests on: whenever a CPU's
// translation structures hold entries from a line (per the hook's ground
// truth), that CPU is still on the line's directory sharer list — so a
// future write would reach it. Lazy sharer maintenance may overshoot
// (extra sharers are only a performance cost) but must never undershoot.
func TestSharerSupersetInvariant(t *testing.T) {
	f := func(seed uint64) bool {
		const cpus = 4
		h, _, _ := testHier(t, cpus, func(c *arch.Config) {
			c.Dir.Entries = 0 // infinite: isolate the lazy-update logic
		})
		hook := newFakeHook()
		h.SetTranslationHook(hook)
		rng := xrand.New(seed)
		lines := []arch.SPA{0x10000, 0x10040, 0x20000, 0x20040}

		for step := 0; step < 400; step++ {
			cpu := rng.Intn(cpus)
			spa := lines[rng.Intn(len(lines))]
			switch rng.Intn(5) {
			case 0, 1: // walker reads the PT line
				h.Read(cpu, spa, cache.KindNestedPT, arch.Cycles(step))
			case 2: // walker fills a translation from it
				h.Read(cpu, spa, cache.KindNestedPT, arch.Cycles(step))
				hook.hold(cpu, spa)
				h.NoteTranslationFill(cpu, spa, cache.KindNestedPT)
			case 3: // hypervisor writes a PTE in the line
				h.Write(cpu, spa, cache.KindNestedPT, arch.Cycles(step))
			case 4: // translation structure eviction (lazy by default)
				delete(hook.holds[cpu], spa.LineIndex())
				h.NoteTranslationEviction(cpu, spa, cache.KindNestedPT)
			}
			// Invariant: TS holders are always directory sharers.
			for c := 0; c < cpus; c++ {
				for lineIdx := range hook.holds[c] {
					tag := lineIdx // line index == directory tag
					e := h.Directory().Peek(tag)
					if e == nil {
						return false
					}
					if (e.cacheSharers|e.tsSharers)&(1<<uint(c)) == 0 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestLiveEntryBound drives small hierarchies with seeded random reads,
// writes, translation fills and translation evictions over data lines and
// page-table lines, and checks after every call that the directory holds
// no more live entries than maxLiveEntries, the bound that lets
// NewHierarchy build the directory without an eviction ring. Each
// directory is sized exactly at the bound, so Ensure also panics if an
// insert overshoots it in the middle of a call. A 64-entry directory run
// through the same driver keeps its ring and must make capacity
// evictions.
func TestLiveEntryBound(t *testing.T) {
	const cpus = 3
	const bound = cpus*4 + 2*64 + 1 // 4-line L2s, 2-frame PT heap
	modes := []struct {
		name string
		set  func(*arch.DirectoryConfig)
	}{
		{"lazy", func(*arch.DirectoryConfig) {}},
		{"eager", func(d *arch.DirectoryConfig) { d.EagerUpdate = true }},
		{"finegrained", func(d *arch.DirectoryConfig) { d.FineGrained = true }},
	}
	for _, m := range modes {
		for _, entries := range []int{bound, 64} {
			for seed := uint64(1); seed <= 3; seed++ {
				h, _, cfg := testHier(t, cpus, func(c *arch.Config) {
					c.L1 = arch.CacheConfig{SizeBytes: 2 * arch.LineSize, Ways: 2}
					c.L2 = arch.CacheConfig{SizeBytes: 4 * arch.LineSize, Ways: 2}
					c.Mem.PTFrames = 2
					m.set(&c.Dir)
					c.Dir.Entries = entries
				})
				if got := maxLiveEntries(cfg, h.L2(0).Lines()); got != bound {
					t.Fatalf("maxLiveEntries = %d, want %d", got, bound)
				}
				if ring := h.dir.fifo != nil; ring != (entries < bound) {
					t.Fatalf("%s/%d entries: ring allocated = %v", m.name, entries, ring)
				}
				high := driveRandom(t, h, cfg, seed, 20_000, func(step int) {
					if n := h.Directory().Len(); n > min(entries, bound) {
						t.Fatalf("%s/%d entries seed %d step %d: %d live entries exceed %d",
							m.name, entries, seed, step, n, min(entries, bound))
					}
				})
				d := h.Directory()
				if entries < bound && d.CapacityEvicts == 0 {
					t.Errorf("%s/%d entries seed %d: no capacity evictions (high-water %d)", m.name, entries, seed, high)
				}
				if entries == bound && high <= bound/2 {
					t.Errorf("%s seed %d: high-water %d live entries never came near the bound %d", m.name, seed, high, bound)
				}
			}
		}
	}
}

// driveRandom issues steps random hierarchy calls on behalf of random CPUs:
// data reads and writes over twice as many lines as the private L2s hold
// in total, page-table reads and writes over every line of the PT heap,
// and translation fills and evictions that keep a fake hook's ground truth
// in step. Every other block of 1000 steps is data-only, so the L2s fill
// with data lines while lazily kept page-table entries stay live, the
// state in which a miss reaches the bound. check runs after every call;
// the highest live-entry count seen is returned.
func driveRandom(t *testing.T, h *Hierarchy, cfg *arch.Config, seed uint64, steps int, check func(step int)) int {
	t.Helper()
	hook := newFakeHook()
	h.SetTranslationHook(hook)
	rng := xrand.New(seed)
	ptLines := cfg.Mem.PTFrames * (arch.PageSize / arch.LineSize)
	dataLines := 2 * cfg.NumCPUs * h.L2(0).Lines()
	dataBase := arch.SPA(cfg.Mem.PTFrames) << arch.PageShift
	kinds := []cache.IsPTKind{cache.KindNestedPT, cache.KindGuestPT}
	high := 0
	for step := 0; step < steps; step++ {
		cpu := rng.Intn(cfg.NumCPUs)
		pt := arch.SPA(rng.Intn(ptLines)) << arch.LineShift
		kind := kinds[rng.Intn(len(kinds))]
		now := arch.Cycles(step)
		ops := 6
		if (step/1000)%2 == 1 {
			ops = 2 // data reads and writes only
		}
		switch rng.Intn(ops) {
		case 0:
			h.Read(cpu, dataBase+arch.SPA(rng.Intn(dataLines))<<arch.LineShift, cache.KindData, now)
		case 1:
			h.Write(cpu, dataBase+arch.SPA(rng.Intn(dataLines))<<arch.LineShift, cache.KindData, now)
		case 2: // walker reads a PT line and fills a translation from it
			h.Read(cpu, pt, kind, now)
			hook.hold(cpu, pt)
			h.NoteTranslationFill(cpu, pt, kind)
		case 3: // hypervisor writes a PTE
			h.Write(cpu, pt, kind, now)
		case 4: // translation-structure eviction
			delete(hook.holds[cpu], pt.LineIndex())
			h.NoteTranslationEviction(cpu, pt, kind)
		case 5: // walker reads a PT line without filling
			h.Read(cpu, pt, kind, now)
		}
		check(step)
		high = max(high, h.Directory().Len())
	}
	return high
}
