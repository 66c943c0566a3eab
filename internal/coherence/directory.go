// Package coherence implements the directory-based MESI protocol of the
// simulated machine and HATRIC's extensions to it: page-table bits (nPT and
// gPT) in directory entries, pseudo-specific relay of page-table line
// invalidations to translation structures, lazy sharer-list demotion for
// page-table lines, and back-invalidation on directory evictions.
package coherence

import (
	"fmt"

	"hatric/internal/arch"
	"hatric/internal/cache"
)

// Entry is one coherence-directory entry. Sharer lists are 64-bit CPU
// bitmaps. The directory is pseudo-specific: by default it does not record
// whether a sharer caches the line in its private caches or its translation
// structures (Sec. 4.2); the fine-grained mode (Fig. 12, FG-tracking) adds
// the tsSharers mask.
type Entry struct {
	cacheSharers uint64
	tsSharers    uint64 // used only in fine-grained mode
	owner        int8   // CPU with the line in M/E, or -1
	nPT          bool
	gPT          bool
}

// Sharers returns the private-cache sharer mask.
func (e *Entry) Sharers() uint64 { return e.cacheSharers }

// IsPT reports whether the entry is tagged as holding page-table data.
func (e *Entry) IsPT() bool { return e.nPT || e.gPT }

// Kind returns the line kind implied by the PT bits (nested wins if both,
// which cannot happen for well-formed page tables).
func (e *Entry) Kind() cache.IsPTKind {
	switch {
	case e.nPT:
		return cache.KindNestedPT
	case e.gPT:
		return cache.KindGuestPT
	}
	return cache.KindData
}

// emptyTag marks a free table slot. Tags are line indices (SPA >> 6), so
// the all-ones value can never collide with a real tag.
const emptyTag = ^uint64(0)

// Directory is the dual-grain-inspired coherence directory. It tracks every
// line resident in any private cache (and, for page-table lines, lines whose
// translations may live in translation structures). A finite capacity
// forces back-invalidations, as in multi-grain directories (Zebchuk et al.).
//
// Entries live inline in an open-addressed table (linear probing, backshift
// deletion) that doubles at half load, so the steady state allocates
// nothing: no per-insert boxing, and no rehashing once the run's live-entry
// high-water mark is reached.
//
// Insertion order for capacity eviction is an intrusive FIFO ring of tags.
// The ring is popped only when live entries exceed the capacity, yet it
// takes a push on every insert, so where eviction never happens it would
// hold every tag ever inserted: 8 bytes per directory miss, for the whole
// run. It therefore exists only when capacity eviction is reachable.
// NewHierarchy passes NewDirectory the most entries its machine can keep
// live (maxLiveEntries): NumCPUs × L2 lines for lines outside the
// page-table heap, whose entries live only while some sharer's inclusive
// L2 holds the line, plus PTFrames × 64 page-table lines, each of which
// lazy demotion may keep, plus one for the miss in flight. A directory
// whose Entries is at least that bound, or that never back-invalidates,
// keeps no ring. The default 2^18 entries exceed the default machine's
// bound of 139,265 (16 × 512 + 2,048 × 64 + 1).
type Directory struct {
	cfg arch.DirectoryConfig
	// tags is the probe array (emptyTag = free); entries holds the
	// payloads slot-parallel to it. Splitting them keeps the linear-probe
	// loop inside a dense 8-byte-per-slot array — one host cache line per
	// eight slots — and touches the 24-byte entry only on a match.
	tags    []uint64
	entries []Entry
	mask    uint64
	live    int

	// fifo is a circular buffer of insertion-order tags (power-of-two
	// length), nil when capacity eviction is unreachable. Tags of removed
	// entries go stale in place and are skipped at pop time, exactly like
	// the stale queue entries of the slice-based implementation.
	fifo     []uint64
	fifoHead int
	fifoLen  int

	// Stats
	Lookups        uint64
	Inserts        uint64
	CapacityEvicts uint64
}

// NewDirectory builds a directory with the given configuration. maxLive is
// the most entries its owner can ever hold live at once. Capacity eviction
// is reachable only when the directory back-invalidates and its Entries is
// below maxLive; otherwise no insertion-order ring is kept, and Ensure
// panics if live entries ever exceed Entries, which only a wrong maxLive
// can cause.
//
// The table starts small and doubles at half load: directories are
// configured for worst-case capacity (2^18 entries by default) but live
// entry counts track cache residency, so demand sizing keeps the probe
// working set — the hottest random-access footprint in the simulator —
// small and cache-resident. Growth allocations stop once the run's
// high-water mark is hit.
func NewDirectory(cfg arch.DirectoryConfig, maxLive int) *Directory {
	d := &Directory{cfg: cfg}
	d.tags = newTags(1024)
	d.entries = make([]Entry, 1024)
	d.mask = uint64(1024 - 1)
	if d.backInvalidates() && cfg.Entries < maxLive {
		d.fifo = make([]uint64, 16)
	}
	return d
}

// backInvalidates reports whether the directory has a finite capacity that
// it enforces by evicting entries.
func (d *Directory) backInvalidates() bool {
	return !d.cfg.NoBackInvalidation && d.cfg.Entries > 0
}

// newTags allocates a probe array with every slot free.
func newTags(n int) []uint64 {
	//hatric:alloc-ok table construction/growth only; steady state never grows (zero-alloc gate)
	t := make([]uint64, n)
	for i := range t {
		t[i] = emptyTag
	}
	return t
}

// hashTag spreads line indices across slots (splitmix64 finalizer).
func hashTag(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// find returns the slot index of tag, or the first empty slot on its probe
// path (found == false).
func (d *Directory) find(tag uint64) (int, bool) {
	i := hashTag(tag) & d.mask
	for {
		t := d.tags[i]
		if t == tag {
			return int(i), true
		}
		if t == emptyTag {
			return int(i), false
		}
		i = (i + 1) & d.mask
	}
}

// grow rehashes into a table twice the size (unbounded directories only;
// bounded tables are pre-sized and never rehash).
func (d *Directory) grow() {
	oldTags, oldEntries := d.tags, d.entries
	size := len(oldTags) * 2
	d.tags = newTags(size)
	//hatric:alloc-ok doubling rehash is amortized warm-up work; steady state never grows
	d.entries = make([]Entry, size)
	d.mask = uint64(size - 1)
	for i := range oldTags {
		if oldTags[i] == emptyTag {
			continue
		}
		j, _ := d.find(oldTags[i])
		d.tags[j] = oldTags[i]
		d.entries[j] = oldEntries[i]
	}
}

// deleteSlot removes slot i with linear-probing backshift deletion: the
// cluster after i is compacted so probe paths stay unbroken. Entry pointers
// obtained before a delete may dangle; callers re-locate after mutating.
func (d *Directory) deleteSlot(i int) {
	d.live--
	j := uint64(i)
	for {
		d.tags[j] = emptyTag
		k := j
		for {
			k = (k + 1) & d.mask
			if d.tags[k] == emptyTag {
				return
			}
			home := hashTag(d.tags[k]) & d.mask
			// Move k back into the hole at j only if k's probe path
			// passes through j (circular-distance test).
			if (k-home)&d.mask >= (k-j)&d.mask {
				d.tags[j] = d.tags[k]
				d.entries[j] = d.entries[k]
				j = k
				break
			}
		}
	}
}

// fifoPush appends tag to the insertion-order ring, doubling it if full.
func (d *Directory) fifoPush(tag uint64) {
	if d.fifoLen == len(d.fifo) {
		//hatric:alloc-ok ring doubling is amortized warm-up work; a ring exists only where capacity evictions pop it
		bigger := make([]uint64, len(d.fifo)*2)
		n := copy(bigger, d.fifo[d.fifoHead:])
		copy(bigger[n:], d.fifo[:d.fifoHead])
		d.fifo = bigger
		d.fifoHead = 0
	}
	d.fifo[(d.fifoHead+d.fifoLen)&(len(d.fifo)-1)] = tag
	d.fifoLen++
}

// fifoPop removes and returns the oldest tag.
func (d *Directory) fifoPop() uint64 {
	t := d.fifo[d.fifoHead]
	d.fifoHead = (d.fifoHead + 1) & (len(d.fifo) - 1)
	d.fifoLen--
	return t
}

// Lookup returns the entry for the line tag, or nil. The pointer is valid
// until the next Ensure or Remove.
func (d *Directory) Lookup(tag uint64) *Entry {
	d.Lookups++
	return d.Peek(tag)
}

// Peek returns the entry without counting a lookup.
func (d *Directory) Peek(tag uint64) *Entry {
	if i, ok := d.find(tag); ok {
		return &d.entries[i]
	}
	return nil
}

// Len returns the number of live entries.
func (d *Directory) Len() int { return d.live }

// Ensure returns the entry for tag, allocating one if needed. If capacity
// is exceeded, a victim entry is chosen (FIFO order) and returned by value
// so the caller can back-invalidate its sharers. The returned pointer is
// valid until the next Ensure or Remove.
func (d *Directory) Ensure(tag uint64) (e *Entry, victimTag uint64, victimEntry Entry, evicted bool) {
	i, ok := d.find(tag)
	if ok {
		return &d.entries[i], 0, Entry{}, false
	}
	// Grow at half load so probes stay short (bounded directories stop
	// growing on their own: live never exceeds cfg.Entries).
	if 2*(d.live+1) > len(d.tags) {
		d.grow()
		i, _ = d.find(tag)
	}
	d.tags[i] = tag
	d.entries[i] = Entry{owner: -1}
	d.live++
	d.Inserts++
	if d.fifo == nil {
		if d.backInvalidates() && d.live > d.cfg.Entries {
			//hatric:alloc-ok cold invariant-violation panic; unreachable while maxLive bounds the live entries
			panic(fmt.Sprintf("coherence: %d live directory entries exceed capacity %d; the maxLive bound is wrong", d.live, d.cfg.Entries))
		}
		return &d.entries[i], 0, Entry{}, false
	}
	d.fifoPush(tag)
	for d.live > d.cfg.Entries && d.fifoLen > 0 {
		vt := d.fifoPop()
		if vt == tag {
			// Never evict the entry just allocated; re-queue it.
			d.fifoPush(vt)
			continue
		}
		vi, ok := d.find(vt)
		if !ok {
			continue // stale queue entry; already removed
		}
		victim := d.entries[vi]
		d.deleteSlot(vi)
		d.CapacityEvicts++
		// The backshift may have moved the new entry; re-locate it.
		i, _ = d.find(tag)
		return &d.entries[i], vt, victim, true
	}
	return &d.entries[i], 0, Entry{}, false
}

// Remove deletes the entry for tag (used when its last sharer leaves).
func (d *Directory) Remove(tag uint64) {
	if i, ok := d.find(tag); ok {
		d.deleteSlot(i)
	}
}

// AddSharer records cpu as a private-cache sharer and merges the PT kind.
func (e *Entry) AddSharer(cpu int, kind cache.IsPTKind) {
	e.cacheSharers |= 1 << uint(cpu)
	e.mergeKind(kind)
}

// AddTSSharer records cpu's translation structures as holding entries from
// the line (fine-grained mode only).
func (e *Entry) AddTSSharer(cpu int, kind cache.IsPTKind) {
	e.tsSharers |= 1 << uint(cpu)
	e.mergeKind(kind)
}

func (e *Entry) mergeKind(kind cache.IsPTKind) {
	switch kind {
	case cache.KindNestedPT:
		e.nPT = true
	case cache.KindGuestPT:
		e.gPT = true
	}
}

// RemoveSharer clears cpu from both sharer masks; it reports whether the
// entry became empty.
func (e *Entry) RemoveSharer(cpu int) bool {
	mask := ^(uint64(1) << uint(cpu))
	e.cacheSharers &= mask
	e.tsSharers &= mask
	if e.owner == int8(cpu) {
		e.owner = -1
	}
	return e.cacheSharers == 0 && e.tsSharers == 0
}

// Empty reports whether no sharer remains.
func (e *Entry) Empty() bool { return e.cacheSharers == 0 && e.tsSharers == 0 }
