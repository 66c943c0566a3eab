package coherence

import (
	"hatric/internal/arch"
	"hatric/internal/cache"
	"hatric/internal/memdev"
	"hatric/internal/stats"
)

// TranslationHook is implemented by the translation-coherence layer. The
// hierarchy calls it when an invalidation (write-invalidation or directory
// back-invalidation) of a page-table line must be relayed to a CPU's
// translation structures. Hardware protocols (HATRIC, UNITD++) invalidate
// matching entries; the software protocol installs no hook and relies on
// hypervisor-driven flushes instead.
type TranslationHook interface {
	// OnPTInvalidation relays the invalidation of the page-table entry at
	// spa to cpu's translation structures. It returns how many translation
	// entries were dropped and whether entries sourced from the same cache
	// line survive (possible under protocols with finer-than-line
	// invalidation such as the ideal protocol, or partial structure
	// coverage such as UNITD++); survivors keep the CPU on the sharer
	// list so future writes still reach it.
	OnPTInvalidation(cpu int, spa arch.SPA, kind cache.IsPTKind) (dropped int, remains bool)
	// OnPTBackInvalidation handles a directory capacity eviction: the
	// whole line loses its directory entry, so every translation sourced
	// from it must drop regardless of the protocol's write-invalidation
	// granularity. Returns entries dropped.
	OnPTBackInvalidation(cpu int, spa arch.SPA, kind cache.IsPTKind) int
	// CachesPTLine reports whether cpu's translation structures currently
	// hold entries sourced from spa's cache line. Used by the eager
	// directory update ablation; implementations count the lookup energy.
	CachesPTLine(cpu int, spa arch.SPA, kind cache.IsPTKind) bool
}

// Hierarchy owns the private caches, the shared LLC, the coherence
// directory, and the memory devices, and provides the Read/Write operations
// every other subsystem uses to touch memory.
type Hierarchy struct {
	cfg  *arch.Config
	cost arch.CostModel
	mem  *memdev.Memory

	l1  []*cache.Cache
	l2  []*cache.Cache
	llc *cache.Cache
	dir *Directory

	hook    TranslationHook
	relayTS bool // relay PT invalidations to translation structures

	// def, when non-nil, puts the hierarchy in epoch-deferred mode (the
	// sim package's parallel epochs): Read/Write serve what they can from
	// the caller's own private caches and append everything that would
	// touch the LLC, the directory, the devices, or another CPU's state to
	// the per-CPU log instead (see deferred.go). The sim arms it before
	// each worker phase and disarms it at the barrier, so replays and
	// hypervisor work go through the unmodified serial paths below.
	def *DeferredLog

	cnt []*stats.Counters
}

// NewHierarchy builds the cache hierarchy for cfg.
func NewHierarchy(cfg *arch.Config, mem *memdev.Memory, counters []*stats.Counters) *Hierarchy {
	h := &Hierarchy{
		cfg:  cfg,
		cost: cfg.Cost,
		mem:  mem,
		llc:  cache.New(cfg.LLC),
		cnt:  counters,
	}
	// Banked allocation: the CPUs' private caches share set-interleaved
	// slabs, so same-set probes from different CPUs — the common case when
	// threads share a footprint — stay adjacent in host memory.
	h.l1 = cache.NewBank(cfg.NumCPUs, cfg.L1)
	h.l2 = cache.NewBank(cfg.NumCPUs, cfg.L2)
	h.dir = NewDirectory(cfg.Dir, maxLiveEntries(cfg, h.l2[0].Lines()))
	return h
}

// maxLiveEntries bounds the directory entries live at any instant, counted
// by where the line sits in system-physical memory:
//
//   - A line outside the page-table heap is only ever accessed as data, so
//     its entry lives exactly as long as some sharer's inclusive L2 holds
//     it: every path that drops a line from an L2 (victim, write
//     invalidation, back-invalidation) clears that sharer, and the last
//     sharer removes the entry. At most NumCPUs × L2 lines such entries.
//   - Page-table lines come only from the PT heap, bump-allocated from
//     frame 0, and lazy demotion may keep an entry for each of its
//     PTFrames × 64 lines after every cached copy is gone.
//   - A private miss inserts its entry before the L2 fill evicts a victim
//     and drops the victim's entry: one more, transiently.
func maxLiveEntries(cfg *arch.Config, l2Lines int) int {
	return cfg.NumCPUs*l2Lines + cfg.Mem.PTFrames*(arch.PageSize/arch.LineSize) + 1
}

// SetTranslationHook installs the translation-coherence hook. relay selects
// whether PT-line invalidations are relayed to translation structures
// (true for HATRIC and UNITD++, false for the software baseline).
func (h *Hierarchy) SetTranslationHook(hook TranslationHook, relay bool) {
	h.hook = hook
	h.relayTS = relay
}

// SetDeferredLog arms (non-nil) or disarms (nil) epoch-deferred mode.
// While armed, only per-CPU private state is mutated by Read/Write and the
// translation notes; everything cross-shard lands in d for the caller to
// replay serially at the epoch barrier.
func (h *Hierarchy) SetDeferredLog(d *DeferredLog) { h.def = d }

// Directory exposes the directory (tests and the experiment harness).
func (h *Hierarchy) Directory() *Directory { return h.dir }

// LLC exposes the shared cache.
func (h *Hierarchy) LLC() *cache.Cache { return h.llc }

// L1 returns cpu's private L1.
func (h *Hierarchy) L1(cpu int) *cache.Cache { return h.l1[cpu] }

// L2 returns cpu's private L2.
func (h *Hierarchy) L2(cpu int) *cache.Cache { return h.l2[cpu] }

// Read performs a coherent read of the line containing spa on behalf of
// cpu and returns its latency. kind tags page-table lines so the directory
// learns the nPT/gPT bits.
//
//hatric:hotpath
func (h *Hierarchy) Read(cpu int, spa arch.SPA, kind cache.IsPTKind, now arch.Cycles) arch.Cycles {
	if h.def != nil {
		return h.deferredRead(cpu, spa, kind, now)
	}
	tag := cache.Tag(spa)
	c := h.cnt[cpu]
	lat := h.cost.L1Hit
	if _, ok := h.l1[cpu].Lookup(tag); ok {
		c.L1Hits++
		return lat
	}
	c.L1Misses++
	lat += h.cost.L2Hit
	if st, ok := h.l2[cpu].Lookup(tag); ok {
		c.L2Hits++
		// The L1 just missed and nothing has filled it since, so the refill
		// can skip Insert's tag compare. The victim stays in L2; no
		// directory action needed.
		h.l1[cpu].InsertAbsent(tag, st, kind)
		return lat
	}
	c.L2Misses++

	// Miss in the private hierarchy: consult the LLC bank's directory.
	lat += h.cost.LLCHit + 2*h.cost.DirHop
	c.DirLookups++
	e, vTag, vEntry, evicted := h.dir.Ensure(tag)
	if evicted {
		h.backInvalidate(vTag, &vEntry)
		c.DirBackInvalidations++
	}

	// If another CPU owns the line in M/E, downgrade it to S and pull the
	// data into the LLC.
	filledLLC := false
	if e.owner >= 0 && int(e.owner) != cpu {
		o := int(e.owner)
		lat += 2 * h.cost.DirHop
		if h.l2[o].SetState(tag, cache.Shared) {
			h.llc.Insert(tag, cache.Shared, kind)
			filledLLC = true
		} else {
			// Lazily stale ownership (possible for PT lines).
			c.SpuriousInvalidations++
		}
		h.l1[o].SetState(tag, cache.Shared)
		e.owner = -1
	}

	if filledLLC {
		// The downgrade just installed the line as MRU, so the probe below
		// could only hit; take its accounting without the second set scan.
		h.llc.Hits++
		c.LLCHits++
	} else if _, hit, _, _ := h.llc.LookupOrInsert(tag, cache.Shared, kind); hit {
		c.LLCHits++
	} else {
		c.LLCMisses++
		lat += h.memAccess(cpu, spa, now+lat)
	}

	st := cache.Shared
	if (e.cacheSharers|e.tsSharers)&^(1<<uint(cpu)) == 0 {
		st = cache.Exclusive
		e.owner = int8(cpu)
	}
	e.AddSharer(cpu, kind)
	h.insertPrivateAbsent(cpu, tag, st, kind)
	return lat
}

// Write performs a coherent write of the line containing spa on behalf of
// cpu and returns its latency. Writing a page-table line triggers the
// invalidation relay that HATRIC piggybacks on.
//
//hatric:hotpath
func (h *Hierarchy) Write(cpu int, spa arch.SPA, kind cache.IsPTKind, now arch.Cycles) arch.Cycles {
	if h.def != nil {
		return h.deferredWrite(cpu, spa, kind, now)
	}
	tag := cache.Tag(spa)
	c := h.cnt[cpu]
	lat := h.cost.L1Hit
	// Writes to page-table lines always take the full directory path: even
	// an M-state hit must relay the invalidation to translation structures
	// (including the writer's own, which may have refilled from the cached
	// line since the last write). Data writes keep the usual fast paths.
	fastOK := kind == cache.KindData
	// resident tracks whether tag is in cpu's private caches at the final
	// install: the invalidation wave spares the writer, so a hit in either
	// lookup means the line survives until insertPrivate overwrites it, and
	// a double miss means the cheaper absent-path insert is exact.
	resident := false
	if st, ok := h.l1[cpu].Lookup(tag); ok {
		c.L1Hits++
		resident = true
		if fastOK && st == cache.Modified {
			return lat
		}
		if fastOK && st == cache.Exclusive {
			// Silent E -> M upgrade.
			h.l1[cpu].SetState(tag, cache.Modified)
			h.l2[cpu].SetState(tag, cache.Modified)
			if e := h.dir.Peek(tag); e != nil {
				e.owner = int8(cpu)
			}
			return lat
		}
		// Shared (or a page-table line): upgrade via the directory.
	} else {
		c.L1Misses++
		st, ok := h.l2[cpu].Lookup(tag)
		resident = ok
		if fastOK && ok && (st == cache.Modified || st == cache.Exclusive) {
			// Local upgrade without directory traffic.
			c.L2Hits++
			h.l2[cpu].SetState(tag, cache.Modified)
			h.insertPrivateL1(cpu, tag, cache.Modified, kind)
			if e := h.dir.Peek(tag); e != nil {
				e.owner = int8(cpu)
			}
			return lat + h.cost.L2Hit
		}
	}

	lat += h.cost.LLCHit + 2*h.cost.DirHop
	c.DirLookups++
	e, vTag, vEntry, evicted := h.dir.Ensure(tag)
	if evicted {
		h.backInvalidate(vTag, &vEntry)
		c.DirBackInvalidations++
	}

	// Invalidate all other sharers; one wave, so latency is two extra hops.
	e.mergeKind(kind)
	bitW := uint64(1) << uint(cpu)
	cacheTargets := e.cacheSharers &^ bitW
	tsTargets := (e.cacheSharers | e.tsSharers) &^ bitW // pseudo-specific relay
	if h.cfg.Dir.FineGrained {
		tsTargets = e.tsSharers &^ bitW
	}
	all := cacheTargets | tsTargets
	if all != 0 {
		lat += 2 * h.cost.DirHop
	}
	kindForRelay := e.Kind()
	var survivors uint64
	for t := 0; t < h.cfg.NumCPUs; t++ {
		bit := uint64(1) << uint(t)
		if all&bit == 0 {
			continue
		}
		c.InvalidationsSent++
		inCache := false
		if cacheTargets&bit != 0 {
			in1 := h.l1[t].Invalidate(tag)
			in2 := h.l2[t].Invalidate(tag)
			inCache = in1 || in2
		}
		tsDropped := 0
		if h.relayTS && h.hook != nil && e.IsPT() && tsTargets&bit != 0 {
			var remains bool
			tsDropped, remains = h.hook.OnPTInvalidation(t, spa, kindForRelay)
			h.cnt[t].SelectiveInvalidations += uint64(tsDropped)
			if remains {
				survivors |= bit
			}
		}
		if !inCache && tsDropped == 0 {
			// Spurious message: the target demotes itself lazily.
			c.SpuriousInvalidations++
			c.DirDemotions++
		}
	}
	// The writer's own translation structures snoop its own store too: the
	// CPU running the hypervisor may well cache the stale translation.
	if h.relayTS && h.hook != nil && e.IsPT() {
		dropped, remains := h.hook.OnPTInvalidation(cpu, spa, kindForRelay)
		c.SelectiveInvalidations += uint64(dropped)
		if remains {
			survivors |= bitW
		}
	}
	// After the invalidation wave the writer holds the only cached copy.
	// CPUs whose translation structures keep same-line entries (partial
	// coverage or finer-than-line invalidation) stay on the sharer list.
	e.cacheSharers = 0
	e.tsSharers = survivors

	if _, hit, _, _ := h.llc.LookupOrInsert(tag, cache.Modified, kind); hit {
		c.LLCHits++
	} else {
		c.LLCMisses++
		lat += h.memAccess(cpu, spa, now+lat)
	}

	e.cacheSharers |= 1 << uint(cpu)
	e.mergeKind(kind)
	e.owner = int8(cpu)
	if resident {
		h.insertPrivate(cpu, tag, cache.Modified, kind)
	} else {
		h.insertPrivateAbsent(cpu, tag, cache.Modified, kind)
	}
	return lat
}

// deferredRead is the epoch-deferred Read: serve hits from the caller's
// own private hierarchy exactly as the serial path would (same counters,
// same latency, same LRU movement), and log everything that would cross
// into shared state. The deferred access returns zero latency here; the
// barrier replay calls the full Read with the logged cycle and charges its
// complete serial-path latency to the CPU's clock then.
//
//hatric:hotpath
func (h *Hierarchy) deferredRead(cpu int, spa arch.SPA, kind cache.IsPTKind, now arch.Cycles) arch.Cycles {
	h.def.Stamp(cpu, now)
	tag := cache.Tag(spa)
	c := h.cnt[cpu]
	lat := h.cost.L1Hit
	if _, ok := h.l1[cpu].Lookup(tag); ok {
		c.L1Hits++
		return lat
	}
	lat += h.cost.L2Hit
	if st, ok := h.l2[cpu].Lookup(tag); ok {
		c.L1Misses++
		c.L2Hits++
		// Same L1 refill as the serial L2-hit path: the victim stays in
		// the inclusive L2, so no directory action is needed and the whole
		// hit completes shard-locally.
		h.l1[cpu].InsertAbsent(tag, st, kind)
		return lat
	}
	// Private miss: the LLC/directory consultation is a cross-shard effect.
	// No counters here — the replay's full Read re-probes and counts the
	// miss (or the cheap hit, if an earlier replay already filled the line).
	h.def.Append(cpu, OpRead, spa, 0, kind, now)
	return 0
}

// deferredWrite is the epoch-deferred Write: only the one write fast path
// that provably touches no shared state — a data-line Modified hit in the
// writer's own L1 — completes inline. Everything else (upgrades, PT-line
// writes with their invalidation relays, misses) serializes at the barrier
// through the full serial Write.
//
//hatric:hotpath
func (h *Hierarchy) deferredWrite(cpu int, spa arch.SPA, kind cache.IsPTKind, now arch.Cycles) arch.Cycles {
	h.def.Stamp(cpu, now)
	tag := cache.Tag(spa)
	if kind == cache.KindData {
		if st, ok := h.l1[cpu].Lookup(tag); ok && st == cache.Modified {
			h.cnt[cpu].L1Hits++
			return h.cost.L1Hit
		}
	}
	h.def.Append(cpu, OpWrite, spa, 0, kind, now)
	return 0
}

// NoteTranslationFill records that cpu's translation structures now hold an
// entry sourced from the page-table line at spa. In the default
// pseudo-specific directory this only merges the kind bits; in fine-grained
// mode it also sets the translation-structure sharer bit.
func (h *Hierarchy) NoteTranslationFill(cpu int, spa arch.SPA, kind cache.IsPTKind) {
	if !h.relayTS {
		// Software coherence: translation structures are not coherence
		// participants; the hypervisor flushes them explicitly.
		return
	}
	if h.def != nil {
		// Epoch-deferred: the directory update is a cross-shard effect.
		h.def.Append(cpu, OpTSFill, spa, 0, kind, h.def.Last(cpu))
		return
	}
	tag := cache.Tag(spa)
	e, vTag, vEntry, evicted := h.dir.Ensure(tag)
	if evicted {
		h.backInvalidate(vTag, &vEntry)
		h.cnt[cpu].DirBackInvalidations++
	}
	e.mergeKind(kind)
	e.AddTSSharer(cpu, kind)
	if !h.cfg.Dir.FineGrained {
		// Pseudo-specific: a single sharer list covers caches and
		// translation structures.
		e.cacheSharers |= 1 << uint(cpu)
	}
}

// NoteTranslationEviction lets the translation-coherence layer react to a
// translation-structure eviction. Lazy policy: nothing happens. Eager
// policy: demote the CPU if neither its caches nor its translation
// structures still reference the line.
func (h *Hierarchy) NoteTranslationEviction(cpu int, spa arch.SPA, kind cache.IsPTKind) {
	if !h.cfg.Dir.EagerUpdate {
		return
	}
	if h.def != nil {
		// Epoch-deferred: the demotion probes the directory and possibly
		// removes a sharer — cross-shard, so it replays at the barrier.
		h.def.Append(cpu, OpTSEvict, spa, 0, kind, h.def.Last(cpu))
		return
	}
	tag := cache.Tag(spa)
	idx, ok := h.dir.find(tag)
	if !ok {
		return
	}
	if _, ok := h.l1[cpu].Peek(tag); ok {
		return
	}
	if _, ok := h.l2[cpu].Peek(tag); ok {
		return
	}
	if h.hook != nil && h.hook.CachesPTLine(cpu, spa.Line(), kind) {
		return
	}
	if h.dir.entries[idx].RemoveSharer(cpu) {
		h.dir.deleteSlot(idx)
	}
	h.cnt[cpu].DirDemotions++
}

// memAccess routes a line fill to the right device.
func (h *Hierarchy) memAccess(cpu int, spa arch.SPA, now arch.Cycles) arch.Cycles {
	dev := h.mem.Device(spa)
	c := h.cnt[cpu]
	if dev.Tier == arch.TierHBM {
		c.HBMAccesses++
		c.HBMBytes += arch.LineSize
	} else {
		c.DRAMAccesses++
		c.DRAMBytes += arch.LineSize
	}
	return dev.Access(now, arch.LineSize)
}

// insertPrivate installs the line into cpu's L2 and L1 and handles
// inclusive-hierarchy evictions plus directory notifications.
func (h *Hierarchy) insertPrivate(cpu int, tag uint64, st cache.State, kind cache.IsPTKind) {
	if v, ok := h.l2[cpu].Insert(tag, st, kind); ok {
		// Inclusive L2: the victim must leave L1 too.
		h.l1[cpu].Invalidate(v.Tag)
		h.notePrivateEviction(cpu, v)
	}
	h.insertPrivateL1(cpu, tag, st, kind)
}

func (h *Hierarchy) insertPrivateL1(cpu int, tag uint64, st cache.State, kind cache.IsPTKind) {
	if v, ok := h.l1[cpu].Insert(tag, st, kind); ok {
		// The line remains in L2; no directory action needed.
		_ = v
	}
}

// insertPrivateAbsent is insertPrivate for the Read miss path, where both
// private lookups just missed and the intervening directory work can only
// invalidate lines, never fill them — so both inserts skip the tag compare.
func (h *Hierarchy) insertPrivateAbsent(cpu int, tag uint64, st cache.State, kind cache.IsPTKind) {
	if v, ok := h.l2[cpu].InsertAbsent(tag, st, kind); ok {
		// Inclusive L2: the victim must leave L1 too (before the L1 fill, so
		// a same-set victim frees its way exactly as in insertPrivate).
		h.l1[cpu].Invalidate(v.Tag)
		h.notePrivateEviction(cpu, v)
	}
	h.l1[cpu].InsertAbsent(tag, st, kind)
}

// notePrivateEviction updates the directory when a line leaves a CPU's
// private hierarchy. Non-PT lines update the sharer list immediately; PT
// lines follow the lazy policy unless EagerUpdate is on (Fig. 6, Fig. 12).
func (h *Hierarchy) notePrivateEviction(cpu int, v cache.Victim) {
	// One probe serves both the entry access and the possible removal.
	idx, ok := h.dir.find(v.Tag)
	if !ok {
		return
	}
	e := &h.dir.entries[idx]
	if v.State == cache.Modified {
		// Write back to the LLC (latency absorbed in the background).
		h.llc.Insert(v.Tag, cache.Modified, v.Kind)
	}
	isPT := v.Kind != cache.KindData || e.IsPT()
	if isPT && !h.cfg.Dir.EagerUpdate {
		// Lazy: keep the sharer bit; translations may still be cached.
		e.cacheSharers &^= 1 << uint(cpu)
		e.tsSharers |= 1 << uint(cpu)
		if e.owner == int8(cpu) {
			e.owner = -1
		}
		return
	}
	if isPT && h.cfg.Dir.EagerUpdate && h.hook != nil &&
		h.hook.CachesPTLine(cpu, arch.SPA(v.Tag<<arch.LineShift), e.Kind()) {
		// Eager update still may not demote: translations remain cached.
		e.cacheSharers &^= 1 << uint(cpu)
		e.tsSharers |= 1 << uint(cpu)
		if e.owner == int8(cpu) {
			e.owner = -1
		}
		return
	}
	if e.RemoveSharer(cpu) {
		h.dir.deleteSlot(idx)
	}
	h.cnt[cpu].DirDemotions++
}

// backInvalidate handles a directory capacity eviction: every sharer's
// private caches drop the line, and page-table lines are relayed to the
// translation structures as well (Sec. 4.2, directory evictions).
func (h *Hierarchy) backInvalidate(tag uint64, e *Entry) {
	spa := arch.SPA(tag << arch.LineShift)
	for t := 0; t < h.cfg.NumCPUs; t++ {
		bit := uint64(1) << uint(t)
		if e.cacheSharers&bit == 0 && e.tsSharers&bit == 0 {
			continue
		}
		h.l1[t].Invalidate(tag)
		h.l2[t].Invalidate(tag)
		if h.relayTS && h.hook != nil && e.IsPT() {
			dropped := h.hook.OnPTBackInvalidation(t, spa, e.Kind())
			h.cnt[t].SelectiveInvalidations += uint64(dropped)
		}
	}
}
