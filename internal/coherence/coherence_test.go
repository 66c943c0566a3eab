package coherence

import (
	"testing"

	"hatric/internal/arch"
	"hatric/internal/cache"
	"hatric/internal/memdev"
	"hatric/internal/stats"
)

// fakeHook records relayed PT invalidations and simulates a translation
// structure holding entries from a configurable set of lines.
type fakeHook struct {
	invalidations []struct {
		CPU int
		SPA arch.SPA
	}
	// holds[cpu] is the set of line indices the CPU's translation
	// structures cache; invalidation drops the line and returns 1.
	holds map[int]map[uint64]bool
	// remains controls the survivors answer after an invalidation.
	remains bool
}

func newFakeHook() *fakeHook {
	return &fakeHook{holds: map[int]map[uint64]bool{}}
}

func (f *fakeHook) hold(cpu int, spa arch.SPA) {
	if f.holds[cpu] == nil {
		f.holds[cpu] = map[uint64]bool{}
	}
	f.holds[cpu][spa.LineIndex()] = true
}

func (f *fakeHook) OnPTInvalidation(cpu int, spa arch.SPA) (int, bool) {
	f.invalidations = append(f.invalidations, struct {
		CPU int
		SPA arch.SPA
	}{cpu, spa})
	n := 0
	if f.holds[cpu][spa.LineIndex()] {
		delete(f.holds[cpu], spa.LineIndex())
		n = 1
	}
	return n, f.remains
}

func (f *fakeHook) OnPTBackInvalidation(cpu int, spa arch.SPA) int {
	n, _ := f.OnPTInvalidation(cpu, spa)
	return n
}

func (f *fakeHook) CachesPTLine(cpu int, spa arch.SPA) bool {
	return f.holds[cpu][spa.LineIndex()]
}

func testHier(t *testing.T, cpus int, mutate func(*arch.Config)) (*Hierarchy, []*stats.Counters, *arch.Config) {
	t.Helper()
	cfg := arch.DefaultConfig()
	cfg.NumCPUs = cpus
	cfg.L1 = arch.CacheConfig{SizeBytes: 1 << 10, Ways: 2}
	cfg.L2 = arch.CacheConfig{SizeBytes: 4 << 10, Ways: 4}
	cfg.LLC = arch.CacheConfig{SizeBytes: 64 << 10, Ways: 8}
	if mutate != nil {
		mutate(&cfg)
	}
	cnt := make([]*stats.Counters, cpus)
	for i := range cnt {
		cnt[i] = &stats.Counters{}
	}
	mem := memdev.New(cfg.Mem)
	return NewHierarchy(&cfg, mem, cnt), cnt, &cfg
}

func TestReadHitProgression(t *testing.T) {
	h, cnt, cfg := testHier(t, 2, nil)
	spa := arch.SPA(0x10000)
	lat1 := h.Read(0, spa, cache.KindData, 0)
	lat2 := h.Read(0, spa, cache.KindData, 0)
	if lat2 != cfg.Cost.L1Hit {
		t.Errorf("second read should hit L1: %d", lat2)
	}
	if lat1 <= lat2 {
		t.Errorf("cold read (%d) should cost more than L1 hit (%d)", lat1, lat2)
	}
	if cnt[0].L1Hits != 1 || cnt[0].L1Misses != 1 {
		t.Errorf("hit/miss accounting: %d/%d", cnt[0].L1Hits, cnt[0].L1Misses)
	}
}

func TestExclusiveGrantAndSharing(t *testing.T) {
	h, _, _ := testHier(t, 2, nil)
	spa := arch.SPA(0x20000)
	h.Read(0, spa, cache.KindData, 0)
	tag := cache.Tag(spa)
	if st, _ := h.L1(0).Peek(tag); st != cache.Exclusive {
		t.Errorf("sole reader should get E, got %v", st)
	}
	h.Read(1, spa, cache.KindData, 0)
	e := h.Directory().Peek(tag)
	if e == nil || e.Sharers() != 0b11 {
		t.Fatalf("sharers = %b", e.Sharers())
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	h, cnt, _ := testHier(t, 4, nil)
	spa := arch.SPA(0x30000)
	for cpu := 0; cpu < 4; cpu++ {
		h.Read(cpu, spa, cache.KindData, 0)
	}
	h.Write(0, spa, cache.KindData, 0)
	tag := cache.Tag(spa)
	for cpu := 1; cpu < 4; cpu++ {
		if _, ok := h.L1(cpu).Peek(tag); ok {
			t.Errorf("CPU %d keeps invalidated line", cpu)
		}
		if _, ok := h.L2(cpu).Peek(tag); ok {
			t.Errorf("CPU %d L2 keeps invalidated line", cpu)
		}
	}
	if st, _ := h.L1(0).Peek(tag); st != cache.Modified {
		t.Errorf("writer not in M: %v", st)
	}
	e := h.Directory().Peek(tag)
	if e.Sharers() != 1 {
		t.Errorf("post-write sharers = %b", e.Sharers())
	}
	if cnt[0].InvalidationsSent != 3 {
		t.Errorf("invalidations sent = %d", cnt[0].InvalidationsSent)
	}
}

func TestOwnerDowngradeOnRead(t *testing.T) {
	h, _, _ := testHier(t, 2, nil)
	spa := arch.SPA(0x40000)
	h.Write(0, spa, cache.KindData, 0)
	h.Read(1, spa, cache.KindData, 0)
	tag := cache.Tag(spa)
	if st, _ := h.L1(0).Peek(tag); st != cache.Shared {
		t.Errorf("owner not downgraded: %v", st)
	}
	if st, _ := h.L1(1).Peek(tag); st != cache.Shared {
		t.Errorf("reader state: %v", st)
	}
}

func TestPTWriteRelaysToTranslationStructures(t *testing.T) {
	h, cnt, _ := testHier(t, 3, nil)
	hook := newFakeHook()
	h.SetTranslationHook(hook)
	spa := arch.SPA(0x50000)
	// CPU 1 and 2 read the PT line (walker behaviour) and cache a
	// translation from it.
	h.Read(1, spa, cache.KindNestedPT, 0)
	h.Read(2, spa, cache.KindNestedPT, 0)
	hook.hold(1, spa)
	hook.hold(2, spa)
	h.NoteTranslationFill(1, spa, cache.KindNestedPT)
	h.NoteTranslationFill(2, spa, cache.KindNestedPT)
	// CPU 0 (hypervisor) writes the PTE.
	h.Write(0, spa, cache.KindNestedPT, 0)
	got := map[int]bool{}
	for _, inv := range hook.invalidations {
		got[inv.CPU] = true
	}
	if !got[1] || !got[2] {
		t.Errorf("translation structures not relayed: %+v", hook.invalidations)
	}
	if !got[0] {
		t.Errorf("writer's own translation structures must snoop the store")
	}
	if cnt[1].SelectiveInvalidations != 1 || cnt[2].SelectiveInvalidations != 1 {
		t.Errorf("selective invalidation counts: %d %d",
			cnt[1].SelectiveInvalidations, cnt[2].SelectiveInvalidations)
	}
}

// Software coherence installs no hook: a PT-line write still invalidates
// the other CPUs' cached copies, but relays nothing and registers no
// translation-structure sharers.
func TestPTWriteWithoutRelay(t *testing.T) {
	h, cnt, _ := testHier(t, 2, nil)
	h.SetTranslationHook(nil)
	spa := arch.SPA(0x60000)
	h.Read(1, spa, cache.KindNestedPT, 0)
	h.NoteTranslationFill(1, spa, cache.KindNestedPT)
	if e := h.Directory().Peek(cache.Tag(spa)); e == nil || e.tsSharers != 0 {
		t.Errorf("software mode registered translation-structure sharers: %+v", e)
	}
	h.Write(0, spa, cache.KindNestedPT, 0)
	if _, ok := h.L1(1).Peek(cache.Tag(spa)); ok {
		t.Errorf("the write left CPU 1's cached copy valid")
	}
	if n := cnt[0].SelectiveInvalidations + cnt[1].SelectiveInvalidations; n != 0 {
		t.Errorf("software mode relayed %d translation invalidations", n)
	}
}

// The lazy sharer-list policy: a CPU whose private caches evicted a PT line
// must keep receiving translation invalidations for it.
func TestLazySharerKeepsTSTargeted(t *testing.T) {
	h, _, cfg := testHier(t, 2, nil)
	hook := newFakeHook()
	h.SetTranslationHook(hook)
	spa := arch.SPA(0x70000)
	h.Read(1, spa, cache.KindNestedPT, 0)
	hook.hold(1, spa)
	h.NoteTranslationFill(1, spa, cache.KindNestedPT)

	// Evict the line from CPU 1's private caches by filling its L2 set.
	tag := cache.Tag(spa)
	sets := cfg.L2.Sets()
	for i := 1; i <= cfg.L2.Ways+1; i++ {
		conflict := arch.SPA(uint64(spa) + uint64(i*sets)<<arch.LineShift)
		h.Read(1, conflict, cache.KindData, 0)
	}
	if _, ok := h.L2(1).Peek(tag); ok {
		t.Fatal("setup failed: line still in L2")
	}
	// The write must still reach CPU 1's translation structures.
	h.Write(0, spa, cache.KindNestedPT, 0)
	if hook.holds[1][spa.LineIndex()] {
		t.Errorf("stale translation survived: lazy sharer list lost the CPU")
	}
}

func TestSpuriousInvalidationDemotes(t *testing.T) {
	h, cnt, _ := testHier(t, 2, nil)
	hook := newFakeHook()
	h.SetTranslationHook(hook)
	spa := arch.SPA(0x80000)
	// CPU 1 is on the sharer list (a translation fill was noted) but holds
	// neither a cached copy nor any translation entries (hook empty), so
	// the PT write produces a spurious message and a demotion.
	h.NoteTranslationFill(1, spa, cache.KindNestedPT)
	h.Write(0, spa, cache.KindNestedPT, 0)
	if cnt[0].SpuriousInvalidations == 0 {
		t.Errorf("no spurious invalidation counted")
	}
	e := h.Directory().Peek(cache.Tag(spa))
	if e.Sharers()&0b10 != 0 {
		t.Errorf("CPU 1 not demoted after spurious message")
	}
}

func TestDirectoryCapacityBackInvalidation(t *testing.T) {
	h, cnt, _ := testHier(t, 1, func(c *arch.Config) {
		c.Dir.Entries = 4
	})
	base := arch.SPA(0x100000)
	for i := 0; i < 8; i++ {
		h.Read(0, base+arch.SPA(i)<<arch.LineShift, cache.KindData, 0)
	}
	if h.Directory().Len() > 4 {
		t.Errorf("directory exceeded capacity: %d", h.Directory().Len())
	}
	if cnt[0].DirBackInvalidations == 0 {
		t.Errorf("no back-invalidations recorded")
	}
	if h.Directory().CapacityEvicts == 0 {
		t.Errorf("no capacity evictions recorded")
	}
}

func TestNoBackInvalidationMode(t *testing.T) {
	h, _, _ := testHier(t, 1, func(c *arch.Config) {
		c.Dir.Entries = 4
		c.Dir.NoBackInvalidation = true
	})
	base := arch.SPA(0x100000)
	for i := 0; i < 16; i++ {
		h.Read(0, base+arch.SPA(i)<<arch.LineShift, cache.KindData, 0)
	}
	if h.Directory().Len() < 16 {
		t.Errorf("infinite directory evicted entries: %d", h.Directory().Len())
	}
}

func TestFineGrainedRelayOnlyToTSSharers(t *testing.T) {
	h, _, _ := testHier(t, 3, func(c *arch.Config) {
		c.Dir.FineGrained = true
	})
	hook := newFakeHook()
	h.SetTranslationHook(hook)
	spa := arch.SPA(0x90000)
	// CPU 1 caches the PT line but has no translations from it; CPU 2 has
	// a translation (via NoteTranslationFill).
	h.Read(1, spa, cache.KindNestedPT, 0)
	hook.hold(2, spa)
	h.NoteTranslationFill(2, spa, cache.KindNestedPT)
	h.Write(0, spa, cache.KindNestedPT, 0)
	relayed := map[int]bool{}
	for _, inv := range hook.invalidations {
		relayed[inv.CPU] = true
	}
	if relayed[1] {
		t.Errorf("fine-grained mode relayed to a cache-only sharer")
	}
	if !relayed[2] {
		t.Errorf("fine-grained mode missed the TS sharer")
	}
}

func TestEagerEvictionDemotion(t *testing.T) {
	h, _, _ := testHier(t, 2, func(c *arch.Config) {
		c.Dir.EagerUpdate = true
	})
	hook := newFakeHook()
	h.SetTranslationHook(hook)
	spa := arch.SPA(0xA0000)
	h.NoteTranslationFill(1, spa, cache.KindNestedPT)
	// No private cache copy, no TS entry: the eviction note demotes CPU 1
	// and removes the empty directory entry.
	h.NoteTranslationEviction(1, spa, cache.KindNestedPT)
	if e := h.Directory().Peek(cache.Tag(spa)); e != nil && e.Sharers()&0b10 != 0 {
		t.Errorf("eager update failed to demote")
	}
}

func TestDirectoryEnsureVictimNotSelf(t *testing.T) {
	d := NewDirectory(arch.DirectoryConfig{Entries: 1}, 2)
	e1, _, _, _ := d.Ensure(1)
	e1.AddSharer(0, cache.KindData)
	_, vTag, vEntry, evicted := d.Ensure(2)
	if !evicted || vTag != 1 || vEntry.Sharers() == 0 {
		t.Errorf("expected eviction of tag 1, got %d %v (evicted=%v)", vTag, vEntry, evicted)
	}
	if d.Peek(2) == nil {
		t.Errorf("new entry evicted instead of old")
	}
}

func TestEntrySharerOps(t *testing.T) {
	e := &Entry{owner: -1}
	e.AddSharer(3, cache.KindNestedPT)
	e.AddTSSharer(5, cache.KindGuestPT)
	if !e.IsPT() || !e.nPT || !e.gPT {
		t.Errorf("kind merge failed: %+v", e)
	}
	if e.Kind() != cache.KindNestedPT {
		t.Errorf("nested should win: %v", e.Kind())
	}
	if e.RemoveSharer(3) {
		t.Errorf("entry empty too early")
	}
	if !e.RemoveSharer(5) {
		t.Errorf("entry should be empty now")
	}
	if !e.Empty() {
		t.Errorf("Empty() disagrees")
	}
}

// TestDefaultDirectoryChurnAllocatesNothing checks that at the default
// directory size, where capacity eviction is unreachable, directory churn
// allocates nothing once the table has reached its high-water mark: every
// CPU streams data reads over far more lines than its L2 holds, so each
// read inserts an entry and evicts another's, and no insertion-order ring
// grows behind them.
func TestDefaultDirectoryChurnAllocatesNothing(t *testing.T) {
	cfg := arch.DefaultConfig()
	cnt := make([]*stats.Counters, cfg.NumCPUs)
	for i := range cnt {
		cnt[i] = &stats.Counters{}
	}
	h := NewHierarchy(&cfg, memdev.New(cfg.Mem), cnt)
	if h.dir.fifo != nil {
		t.Fatalf("default directory (%d entries, bound %d) allocated an eviction ring",
			cfg.Dir.Entries, maxLiveEntries(&cfg, h.L2(0).Lines()))
	}
	const lines = 64 << 10
	dataBase := arch.SPA(cfg.Mem.PTFrames) << arch.PageShift
	i := 0
	read := func(n int) {
		for ; n > 0; n-- {
			h.Read(i%cfg.NumCPUs, dataBase+arch.SPA(i%lines)<<arch.LineShift, cache.KindData, arch.Cycles(i))
			i++
		}
	}
	read(200_000)
	const window = 1_000_000
	if n := testing.AllocsPerRun(1, func() { read(window) }); n != 0 {
		t.Errorf("directory churn allocates: %.0f allocs in %d reads", n, window)
	}
	d := h.Directory()
	if d.Inserts < window || d.CapacityEvicts != 0 {
		t.Errorf("want churn without capacity evictions: %d inserts, %d capacity evictions", d.Inserts, d.CapacityEvicts)
	}
}
