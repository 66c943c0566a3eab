// Package tstruct implements the per-CPU translation structures: L1 and L2
// TLBs (guest virtual page -> system physical page), the paging-structure
// MMU cache (guest virtual prefix -> guest page-table page), and the nested
// TLB (guest physical page -> system physical page).
//
// Every entry carries a HATRIC co-tag: bits of the system physical address
// of the page-table entry the translation was filled from. The simulator
// stores the full source line index per entry and applies the configured
// co-tag mask at invalidation time, which models co-tag aliasing exactly:
// an invalidation for line L drops every entry whose masked line index
// equals L's, including unlucky entries from other lines.
//
// Every entry also carries a VM tag (the VPID/ASID of real hardware —
// Intel's VPID, AMD's ASID, Power's LPID). The tag is part of the entry's
// identity, not its set index: lookups and fills match (VM, key) pairs, so
// vCPUs of different VMs can time-share one physical CPU without flushing
// its translation structures at every world switch, and a relay or flush
// scoped to one VM never touches another VM's entries.
package tstruct

import "hatric/internal/lrurank"

// AnyVM matches every VM tag in VM-qualified operations. Invalidations use
// it when the source PTE identifies a unique owner anyway (exact-source
// updates) or when no VM owns the line.
const AnyVM = -1

// Entry is one translation-structure entry. Valid corresponds to the
// Shared coherence state of Sec. 4.2; invalid to Invalid.
//
// Src is the word index (SPA >> 3) of the page-table entry this translation
// was filled from. Real hardware stores only the truncated co-tag; the
// simulator keeps the full source and applies each protocol's granularity
// (shift) and width (mask) at compare time, which models both the
// 8-PTEs-per-line false sharing and co-tag aliasing exactly.
//
// VM is the VPID tag: the VM whose page tables the entry derives from.
type Entry struct {
	Key   uint64
	Val   uint64
	Src   uint64 // source PTE word index (SPA >> 3)
	VM    int32  // VPID tag (the owning VM's dense ID)
	Kind  uint8  // which page table the entry derives from (cache.IsPTKind)
	Valid bool
}

// Struct is one set-associative translation structure.
//
// Entry metadata lives in flat parallel arrays (keys, sources, VM tags, ...)
// instead of an []Entry: the hot compares — the (VM, key) probe of a lookup
// and the (VM, co-tag) CAM sweep of an invalidation — each walk only the
// dense arrays they need. A per-set valid count lets probes of empty sets
// miss in O(1).
//
// The CAM-style sweeps (InvalidateMasked, CachesMasked, UpdateMatching) are
// one flat pass over the source array, not a walk set by set: the co-tag
// compare almost never matches, so testing it first leaves one predictable
// branch per entry, and validity and the VM tag are read only on a match.
// InvalidateMasked and CachesMasked skip a wholly empty structure and
// nothing finer; their modeled compare count (the valid entries, summed
// from the per-set counts) is unchanged. Flush, FlushVM and ForEachValid
// still skip empty sets one by one, and FlushVM must: in a demand-paging
// storm nearly every software shootdown finds the structures it flushes
// already empty (99.4% of FlushVM calls in the benchmark's paging_storm),
// and there the skip reads one count per set where a flat sweep would
// read every way.
//
// Recency is exact rank-based LRU (see internal/lrurank): identical
// victims to a per-touch-timestamp scheme at a fraction of the footprint.
type Struct struct {
	name string
	sets int
	ways int
	// setMask is sets-1 when the set count is a power of two (every hot
	// structure: L1/L2 TLB, nested TLB), letting setOf mask instead of
	// divide; -1 selects the modulo path (e.g. the 12-set MMU cache).
	setMask int
	// rankStride is ways rounded up to a multiple of 8: rank rows are
	// word-aligned so touch can update a whole row with SWAR word ops.
	rankStride int

	keys  []uint64
	vals  []uint64
	srcs  []uint64
	ranks []uint8
	vms   []int32 // owning VM per entry; -1 marks an invalid way
	kinds []uint8
	vcnt  []int32 // valid entries per set

	// Stats
	Hits               uint64
	Misses             uint64
	Fills              uint64
	Evictions          uint64
	FlushedEntries     uint64
	Flushes            uint64
	CoTagCompares      uint64
	CoTagInvalidations uint64
}

// New builds a structure with the given total entries and associativity.
// The set count is totalEntries/ways exactly (translation structures come
// in non-power-of-two sizes, e.g. the 48-entry paging-structure cache), so
// indexing uses a modulo of a mixed key.
func New(name string, totalEntries, ways int) *Struct {
	if ways <= 0 {
		ways = 1
	}
	if totalEntries < ways {
		totalEntries = ways
	}
	sets := totalEntries / ways
	n := sets * ways
	stride := lrurank.Stride(ways)
	mask := -1
	if sets&(sets-1) == 0 {
		mask = sets - 1
	}
	st := &Struct{
		name:       name,
		sets:       sets,
		ways:       ways,
		setMask:    mask,
		rankStride: stride,
		keys:       make([]uint64, n),
		vals:       make([]uint64, n),
		srcs:       make([]uint64, n),
		ranks:      make([]uint8, sets*stride),
		vms:        make([]int32, n),
		kinds:      make([]uint8, n),
		vcnt:       make([]int32, sets),
	}
	for i := range st.vms {
		st.vms[i] = -1
	}
	for set := 0; set < sets; set++ {
		lrurank.Init(st.ranks[set*stride:(set+1)*stride], ways)
	}
	return st
}

// touch marks way w of the set with rank row rbase as most recently used.
func (s *Struct) touch(rbase, w int) {
	lrurank.Touch(s.ranks[rbase:rbase+s.rankStride], w)
}

// Name returns the structure's name.
func (s *Struct) Name() string { return s.name }

// Capacity returns the number of entries.
func (s *Struct) Capacity() int { return s.sets * s.ways }

// setOf returns the set index for key. The mask path is bit-identical to
// the modulo for power-of-two set counts.
func (s *Struct) setOf(key uint64) int {
	if s.setMask >= 0 {
		return int(mix(key) & uint64(s.setMask))
	}
	return int(mix(key) % uint64(s.sets))
}

// mix spreads structured keys (page numbers, prefix keys) across sets.
// The VM tag deliberately does not participate: like the VPID on real
// hardware, it extends the tag compare, not the index, so a VM's entries
// land in the same sets regardless of how many VMs share the structure.
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

// vmMatch reports whether the entry at index i is valid and belongs to vm.
// Invalid ways carry VM tag -1, which AnyVM (-1) must not match, so the
// validity test is part of the compare.
func (s *Struct) vmMatch(i, vm int) bool {
	t := s.vms[i]
	return t >= 0 && (vm == AnyVM || int(t) == vm)
}

// find returns the index of vm's valid entry for key, or -1. The empty-set
// shortcut makes misses in cold sets O(1). For a concrete VM the probe is a
// single (key, vm) compare per way — invalid ways hold VM tag -1 and can
// never match a real id; AnyVM probes accept any valid way.
func (s *Struct) find(vm int, key uint64) int {
	return s.findIn(s.setOf(key), vm, key)
}

// entryAt materializes the entry at index i.
func (s *Struct) entryAt(i int) Entry {
	return Entry{
		Key: s.keys[i], Val: s.vals[i], Src: s.srcs[i],
		VM: s.vms[i], Kind: s.kinds[i], Valid: s.vms[i] >= 0,
	}
}

// findIn is find with the set index already computed, so the hot lookups
// mix the key once for both the probe and the LRU touch.
func (s *Struct) findIn(set, vm int, key uint64) int {
	if s.vcnt[set] == 0 {
		return -1
	}
	base := set * s.ways
	keys := s.keys[base : base+s.ways]
	vms := s.vms[base : base+s.ways]
	if vm != AnyVM {
		v32 := int32(vm)
		for i := range keys {
			if keys[i] == key && vms[i] == v32 {
				return base + i
			}
		}
		return -1
	}
	for i := range keys {
		if keys[i] == key && vms[i] >= 0 {
			return base + i
		}
	}
	return -1
}

// Lookup probes for (vm, key); a hit refreshes LRU state. Entries of other
// VMs never hit, however equal their keys — the VPID-qualification that
// makes time-slicing vCPUs of different VMs onto one CPU safe.
//
//hatric:hotpath
func (s *Struct) Lookup(vm int, key uint64) (uint64, bool) {
	set := s.setOf(key)
	if i := s.findIn(set, vm, key); i >= 0 {
		s.touch(set*s.rankStride, i-set*s.ways)
		s.Hits++
		return s.vals[i], true
	}
	s.Misses++
	return 0, false
}

// LookupEntry probes for (vm, key) and returns the whole entry on a hit,
// refreshing LRU state. Callers that need the co-tag (L2 to L1 refills)
// use this instead of Lookup.
//
//hatric:hotpath
func (s *Struct) LookupEntry(vm int, key uint64) (Entry, bool) {
	set := s.setOf(key)
	if i := s.findIn(set, vm, key); i >= 0 {
		s.touch(set*s.rankStride, i-set*s.ways)
		s.Hits++
		return s.entryAt(i), true
	}
	s.Misses++
	return Entry{}, false
}

// Peek probes without touching LRU or stats.
//
//hatric:hotpath
func (s *Struct) Peek(vm int, key uint64) (uint64, bool) {
	if i := s.find(vm, key); i >= 0 {
		return s.vals[i], true
	}
	return 0, false
}

// setEntry overwrites index i with a fresh valid entry.
func (s *Struct) setEntry(i int, vm int, key, val, src uint64, kind uint8) {
	s.keys[i] = key
	s.vals[i] = val
	s.srcs[i] = src
	s.vms[i] = int32(vm)
	s.kinds[i] = kind
}

// Fill inserts a translation tagged with vm. If a valid victim had to be
// displaced, it is returned so the caller can lazily (or eagerly) update
// the directory. Entries of different VMs with equal keys coexist: the
// in-place update applies only to the same VM's entry.
//
//hatric:hotpath
func (s *Struct) Fill(vm int, key, val, src uint64, kind uint8) (victim Entry, evicted bool) {
	set := s.setOf(key)
	base := set * s.ways
	rbase := set * s.rankStride
	s.Fills++
	// One scan finds the in-place hit and the first free way; the victim,
	// needed only on a full-set miss, is the way holding the highest rank.
	free := -1
	for i := base; i < base+s.ways; i++ {
		if s.vms[i] < 0 {
			if free < 0 {
				free = i
			}
			continue
		}
		if s.keys[i] == key && s.vmMatch(i, vm) {
			s.vals[i] = val
			s.srcs[i] = src
			s.kinds[i] = kind
			s.touch(rbase, i-base)
			return Entry{}, false
		}
	}
	if free >= 0 {
		s.setEntry(free, vm, key, val, src, kind)
		s.touch(rbase, free-base)
		s.vcnt[set]++
		return Entry{}, false
	}
	lruWay := lrurank.Oldest(s.ranks[rbase:rbase+s.rankStride], s.ways)
	victim = s.entryAt(base + lruWay)
	s.setEntry(base+lruWay, vm, key, val, src, kind)
	s.touch(rbase, lruWay)
	s.Evictions++
	return victim, true
}

// InvalidateKey drops vm's entry for key (selective invalidation with a
// known key, e.g. invlpg with a known guest virtual page).
//
//hatric:hotpath
func (s *Struct) InvalidateKey(vm int, key uint64) bool {
	if i := s.find(vm, key); i >= 0 {
		s.vms[i] = -1
		s.vcnt[s.setOf(key)]--
		return true
	}
	return false
}

// InvalidateMasked drops every valid entry of vm matching the co-tag
// compare ((Src >> shift) & mask == (src >> shift) & mask). Shift 3
// compares at cache-line granularity (HATRIC, UNITD); shift 0 at exact-PTE
// granularity (the ideal protocol). All entries are compared (a CAM-style
// parallel compare over (VPID, co-tag) pairs) — the energy model charges
// every compare — but entries of other VMs never match, so co-tag aliasing
// cannot leak invalidations across VM boundaries. It returns the number of
// entries invalidated.
//
//hatric:hotpath
func (s *Struct) InvalidateMasked(vm int, src uint64, shift uint, mask uint64) int {
	return s.InvalidateMaskedExcept(vm, src, shift, mask, noExcept)
}

// noExcept is the exception InvalidateMasked passes: it spares nothing,
// because a source word index is an SPA >> 3 and never has all 64 bits set.
const noExcept = ^uint64(0)

// InvalidateMaskedExcept behaves like InvalidateMasked but spares entries
// whose exact source word is exceptSrc (they were just updated in place by
// the prefetch extension rather than made stale).
//
//hatric:hotpath
func (s *Struct) InvalidateMaskedExcept(vm int, src uint64, shift uint, mask, exceptSrc uint64) int {
	compares := s.ValidCount()
	if compares == 0 {
		return 0
	}
	s.CoTagCompares += uint64(compares)
	// (e>>shift)&mask == (src>>shift)&mask exactly when (e^src)&sel == 0,
	// which spares the loop a shift per entry.
	sel := mask << shift
	n := 0
	for i, e := range s.srcs {
		if (e^src)&sel != 0 || e == exceptSrc || !s.vmMatch(i, vm) {
			continue
		}
		s.vms[i] = -1
		s.vcnt[i/s.ways]--
		n++
	}
	s.CoTagInvalidations += uint64(n)
	return n
}

// CachesMasked reports whether any valid entry of vm matches the masked
// compare (used by the eager directory-update ablation; counts compare
// energy). Like a CAM that stops at a match, it counts the compares up to
// and including the first matching entry.
//
//hatric:hotpath
func (s *Struct) CachesMasked(vm int, src uint64, shift uint, mask uint64) bool {
	valid := s.ValidCount()
	if valid == 0 {
		return false
	}
	sel := mask << shift // the masked compare of InvalidateMaskedExcept
	for i, e := range s.srcs {
		if (e^src)&sel != 0 || !s.vmMatch(i, vm) {
			continue
		}
		s.CoTagCompares += uint64(s.validThrough(i))
		return true
	}
	s.CoTagCompares += uint64(valid)
	return false
}

// validThrough counts the valid entries at indices 0 through i.
func (s *Struct) validThrough(i int) int {
	set := i / s.ways
	n := 0
	for _, c := range s.vcnt[:set] {
		n += int(c)
	}
	for _, t := range s.vms[set*s.ways : i+1] {
		if t >= 0 {
			n++
		}
	}
	return n
}

// UpdateMatching visits every valid entry of vm whose exact source word
// matches src and replaces its value with upd's result (or invalidates it
// when upd reports keep == false). It returns how many entries were
// touched. This is the mechanism behind the paper's Sec. 4.4 prefetching
// extension: instead of dropping a translation made stale by a remap,
// hardware can install the new mapping directly.
//
//hatric:hotpath
func (s *Struct) UpdateMatching(vm int, src uint64, upd func(Entry) (uint64, bool)) int {
	n := 0
	for i, e := range s.srcs {
		if e != src || !s.vmMatch(i, vm) {
			continue
		}
		newVal, keep := upd(s.entryAt(i))
		if keep {
			s.vals[i] = newVal
		} else {
			s.vms[i] = -1
			s.vcnt[i/s.ways]--
		}
		n++
	}
	return n
}

// Flush invalidates everything and returns how many entries were lost.
//
//hatric:hotpath
func (s *Struct) Flush() int {
	n := 0
	for set := 0; set < s.sets; set++ {
		if s.vcnt[set] == 0 {
			continue
		}
		base := set * s.ways
		for i := base; i < base+s.ways; i++ {
			if s.vms[i] >= 0 {
				s.vms[i] = -1
				n++
			}
		}
		s.vcnt[set] = 0
	}
	s.Flushes++
	s.FlushedEntries += uint64(n)
	return n
}

// FlushVM invalidates only vm's entries (invept single-context / a
// VPID-scoped flush) and returns how many were lost. Other VMs' entries —
// resident because their vCPUs time-share this CPU — survive. AnyVM
// degenerates to a full flush.
//
//hatric:hotpath
func (s *Struct) FlushVM(vm int) int {
	if vm == AnyVM {
		return s.Flush()
	}
	// A concrete tag never equals an invalid way's -1, so the tag compare
	// alone is the whole match.
	tag := int32(vm)
	n := 0
	for set, c := range s.vcnt {
		if c == 0 {
			continue
		}
		base := set * s.ways
		lost := int32(0)
		for i, t := range s.vms[base : base+s.ways] {
			if t == tag {
				s.vms[base+i] = -1
				lost++
			}
		}
		s.vcnt[set] -= lost
		n += int(lost)
	}
	s.Flushes++
	s.FlushedEntries += uint64(n)
	return n
}

// ValidCount returns the number of valid entries.
func (s *Struct) ValidCount() int {
	n := 0
	for set := 0; set < s.sets; set++ {
		n += int(s.vcnt[set])
	}
	return n
}

// ForEachValid visits every valid entry.
func (s *Struct) ForEachValid(fn func(e Entry)) {
	for set := 0; set < s.sets; set++ {
		if s.vcnt[set] == 0 {
			continue
		}
		base := set * s.ways
		for i := base; i < base+s.ways; i++ {
			if s.vms[i] >= 0 {
				fn(s.entryAt(i))
			}
		}
	}
}
