package tstruct

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"hatric/internal/arch"
	"hatric/internal/xrand"
)

func TestFillLookup(t *testing.T) {
	s := New("tlb", 8, 2)
	if _, ok := s.Lookup(0, 1); ok {
		t.Fatal("empty hit")
	}
	s.Fill(0, 1, 100, 0x40, 0)
	v, ok := s.Lookup(0, 1)
	if !ok || v != 100 {
		t.Fatalf("lookup: %d %v", v, ok)
	}
	e, ok := s.LookupEntry(0, 1)
	if !ok || e.Src != 0x40 {
		t.Fatalf("LookupEntry: %+v %v", e, ok)
	}
}

func TestFillUpdatesInPlace(t *testing.T) {
	s := New("tlb", 8, 2)
	s.Fill(0, 1, 100, 11, 0)
	if _, ev := s.Fill(0, 1, 200, 22, 1); ev {
		t.Fatal("update evicted")
	}
	e, _ := s.LookupEntry(0, 1)
	if e.Val != 200 || e.Src != 22 || e.Kind != 1 {
		t.Errorf("update lost: %+v", e)
	}
}

func TestLRUVictim(t *testing.T) {
	s := New("tlb", 2, 2) // one set, two ways
	s.Fill(0, 1, 10, 0, 0)
	s.Fill(0, 2, 20, 0, 0)
	s.Lookup(0, 1)
	v, ev := s.Fill(0, 3, 30, 0, 0)
	if !ev || v.Key != 2 {
		t.Fatalf("victim %+v (evicted=%v), want key 2", v, ev)
	}
}

func TestInvalidateKey(t *testing.T) {
	s := New("tlb", 8, 2)
	s.Fill(0, 5, 50, 0, 0)
	if !s.InvalidateKey(0, 5) {
		t.Fatal("InvalidateKey missed")
	}
	if _, ok := s.Lookup(0, 5); ok {
		t.Errorf("entry survived")
	}
	if s.InvalidateKey(0, 5) {
		t.Errorf("double invalidation succeeded")
	}
}

func TestInvalidateMaskedLineGranularity(t *testing.T) {
	s := New("tlb", 16, 4)
	// Three entries: two sourced from PTEs in the same cache line (word
	// indices 8..15 share line 1), one from another line.
	s.Fill(0, 1, 10, 8, 0)                       // line 1
	s.Fill(0, 2, 20, 15, 0)                      // line 1
	s.Fill(0, 3, 30, 16, 0)                      // line 2
	n := s.InvalidateMasked(0, 9, 3, ^uint64(0)) // any word in line 1
	if n != 2 {
		t.Fatalf("line-granular invalidation dropped %d, want 2", n)
	}
	if _, ok := s.Lookup(0, 3); !ok {
		t.Errorf("unrelated line collateral-damaged")
	}
}

func TestInvalidateMaskedExact(t *testing.T) {
	s := New("tlb", 16, 4)
	s.Fill(0, 1, 10, 8, 0)
	s.Fill(0, 2, 20, 9, 0) // same line, different PTE
	n := s.InvalidateMasked(0, 8, 0, ^uint64(0))
	if n != 1 {
		t.Fatalf("exact invalidation dropped %d, want 1", n)
	}
	if _, ok := s.Lookup(0, 2); !ok {
		t.Errorf("sibling PTE entry dropped under exact matching")
	}
}

func TestInvalidateMaskedAliasing(t *testing.T) {
	s := New("tlb", 16, 4)
	// With a 1-byte co-tag (8 line bits), lines 1 and 257 alias.
	s.Fill(0, 1, 10, 1*8, 0)
	s.Fill(0, 2, 20, 257*8, 0)
	s.Fill(0, 3, 30, 2*8, 0)
	n := s.InvalidateMasked(0, 1*8, 3, CoTagMask(1))
	if n != 2 {
		t.Fatalf("aliased invalidation dropped %d, want 2 (the alias must go too)", n)
	}
	if _, ok := s.Lookup(0, 3); !ok {
		t.Errorf("non-aliasing line dropped")
	}
}

func TestCachesMasked(t *testing.T) {
	s := New("tlb", 8, 2)
	s.Fill(0, 1, 10, 40, 0)
	if !s.CachesMasked(0, 41, 3, ^uint64(0)) {
		t.Errorf("CachesMasked missed same-line entry")
	}
	if s.CachesMasked(0, 48, 3, ^uint64(0)) {
		t.Errorf("CachesMasked false positive")
	}
}

func TestFlushCounts(t *testing.T) {
	s := New("tlb", 8, 2)
	s.Fill(0, 1, 1, 0, 0)
	s.Fill(0, 2, 2, 0, 0)
	if n := s.Flush(); n != 2 {
		t.Errorf("flush lost %d", n)
	}
	if s.ValidCount() != 0 {
		t.Errorf("entries survive flush")
	}
	if s.Flushes != 1 || s.FlushedEntries != 2 {
		t.Errorf("flush stats: %d %d", s.Flushes, s.FlushedEntries)
	}
}

func TestCompareEnergyCounting(t *testing.T) {
	s := New("tlb", 8, 2)
	s.Fill(0, 1, 1, 8, 0)
	s.Fill(0, 2, 2, 16, 0)
	before := s.CoTagCompares
	s.InvalidateMasked(0, 8, 3, ^uint64(0))
	if s.CoTagCompares != before+2 {
		t.Errorf("every valid entry must be compared: %d", s.CoTagCompares-before)
	}
}

func TestCoTagMask(t *testing.T) {
	if CoTagMask(1) != 0xFF {
		t.Errorf("1B mask = %#x", CoTagMask(1))
	}
	if CoTagMask(2) != 0x3FFF {
		t.Errorf("2B mask = %#x", CoTagMask(2))
	}
	if CoTagMask(3) != 0x3FFFFF {
		t.Errorf("3B mask = %#x", CoTagMask(3))
	}
	if CoTagMask(0) != ^uint64(0) || CoTagMask(7) != ^uint64(0) {
		t.Errorf("degenerate widths should be exact")
	}
}

// Property: masked invalidation drops exactly the entries whose masked line
// index matches, and compare counts equal valid entries scanned.
func TestInvalidateMaskedProperty(t *testing.T) {
	f := func(srcs []uint16, target uint16, width uint8) bool {
		s := New("tlb", 64, 4)
		mask := CoTagMask(int(width%3) + 1)
		want := 0
		kept := map[uint64]bool{}
		for i, src := range srcs {
			if i >= 30 {
				break
			}
			s.Fill(0, uint64(i), uint64(i), uint64(src), 0)
		}
		s.ForEachValid(func(e Entry) {
			if (e.Src>>3)&mask == (uint64(target)>>3)&mask {
				want++
			} else {
				kept[e.Key] = true
			}
		})
		got := s.InvalidateMasked(0, uint64(target), 3, mask)
		if got != want {
			return false
		}
		ok := true
		for key := range kept {
			if _, hit := s.Peek(0, key); !hit {
				ok = false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCPUSetFlushAll(t *testing.T) {
	cs := NewCPUSet(arch.DefaultTLBConfig())
	cs.L1TLB.Fill(0, 1, 1, 0, 0)
	cs.L2TLB.Fill(0, 2, 2, 0, 0)
	cs.NTLB.Fill(0, 3, 3, 0, 0)
	cs.MMU.Fill(0, 4, 4, 0, 0)
	tlb, mmu, ntlb := cs.FlushAll()
	if tlb != 2 || mmu != 1 || ntlb != 1 {
		t.Errorf("FlushAll: %d %d %d", tlb, mmu, ntlb)
	}
	if cs.ValidTotal() != 0 {
		t.Errorf("entries survive FlushAll")
	}
}

func TestCPUSetSizes(t *testing.T) {
	cfg := arch.DefaultTLBConfig()
	cs := NewCPUSet(cfg)
	if cs.L1TLB.Capacity() != 64 || cs.L2TLB.Capacity() != 512 ||
		cs.NTLB.Capacity() != 32 || cs.MMU.Capacity() != 48 {
		t.Errorf("paper sizes: %d %d %d %d",
			cs.L1TLB.Capacity(), cs.L2TLB.Capacity(), cs.NTLB.Capacity(), cs.MMU.Capacity())
	}
	cfg.SizeMultiplier = 4
	cs4 := NewCPUSet(cfg)
	if cs4.L2TLB.Capacity() != 2048 {
		t.Errorf("4x multiplier: %d", cs4.L2TLB.Capacity())
	}
	if len(cs.All()) != 4 {
		t.Errorf("All() returned %d structures", len(cs.All()))
	}
}

func TestCPUSetInvalidateAll(t *testing.T) {
	cs := NewCPUSet(arch.DefaultTLBConfig())
	cs.L1TLB.Fill(0, 1, 1, 8, 0)
	cs.L2TLB.Fill(0, 1, 1, 8, 0)
	cs.NTLB.Fill(0, 2, 2, 9, 0)
	cs.MMU.Fill(0, 3, 3, 64, 0)
	n := cs.InvalidateMaskedAll(0, 8, 3, ^uint64(0))
	if n != 3 {
		t.Errorf("dropped %d, want 3 (MMU entry from another line survives)", n)
	}
	if !cs.CachesMaskedAny(0, 64, 3, ^uint64(0)) {
		t.Errorf("MMU entry should remain")
	}
}

// TestVMTagQualifiesLookups is the VPID-isolation property at the
// structure level: a lookup with one VM's tag never returns another VM's
// translation, even for bit-identical keys, and entries of different VMs
// with equal keys coexist.
func TestVMTagQualifiesLookups(t *testing.T) {
	s := New("tlb", 8, 2)
	s.Fill(0, 1, 100, 0x40, 0)
	if _, ok := s.Lookup(1, 1); ok {
		t.Fatal("VM 1 lookup hit VM 0's entry")
	}
	if v, ok := s.Lookup(0, 1); !ok || v != 100 {
		t.Fatalf("VM 0 lookup: %d %v", v, ok)
	}
	// Same key, different VM: both entries live side by side.
	s.Fill(1, 1, 200, 0x80, 0)
	if v, ok := s.Lookup(0, 1); !ok || v != 100 {
		t.Errorf("VM 0 entry clobbered by VM 1 fill: %d %v", v, ok)
	}
	if v, ok := s.Lookup(1, 1); !ok || v != 200 {
		t.Errorf("VM 1 entry wrong: %d %v", v, ok)
	}
	if s.ValidCount() != 2 {
		t.Errorf("valid = %d, want both VMs' entries", s.ValidCount())
	}
	// In-place update stays within the VM.
	s.Fill(1, 1, 300, 0x80, 0)
	if v, _ := s.Lookup(0, 1); v != 100 {
		t.Errorf("VM 1 update touched VM 0's entry: %d", v)
	}
	// AnyVM matches whatever is there.
	if _, ok := s.Peek(AnyVM, 1); !ok {
		t.Errorf("AnyVM peek missed")
	}
}

// TestVMTagQualifiesInvalidations: masked invalidation and key
// invalidation scoped to one VM leave the other VM's entries alone even
// when their co-tags match the written line exactly.
func TestVMTagQualifiesInvalidations(t *testing.T) {
	s := New("tlb", 16, 4)
	s.Fill(0, 1, 10, 8, 0) // line 1, VM 0
	s.Fill(1, 2, 20, 9, 0) // line 1, VM 1
	if n := s.InvalidateMasked(0, 8, 3, ^uint64(0)); n != 1 {
		t.Fatalf("VM 0 invalidation dropped %d, want 1", n)
	}
	if _, ok := s.Lookup(1, 2); !ok {
		t.Errorf("VM 1 entry lost to VM 0's invalidation")
	}
	if s.CachesMasked(0, 8, 3, ^uint64(0)) {
		t.Errorf("VM 0 still claims the line")
	}
	if !s.CachesMasked(1, 8, 3, ^uint64(0)) {
		t.Errorf("VM 1's matching entry not reported")
	}
	s.Fill(0, 5, 50, 16, 0)
	if s.InvalidateKey(1, 5) {
		t.Errorf("VM 1 key invalidation hit VM 0's entry")
	}
	if !s.InvalidateKey(0, 5) {
		t.Errorf("VM 0 key invalidation missed its own entry")
	}
}

// TestFlushVM: the VPID-scoped flush (invept single-context) drops one
// VM's entries wholesale and spares every other VM's.
func TestFlushVM(t *testing.T) {
	s := New("tlb", 8, 2)
	s.Fill(0, 1, 1, 0, 0)
	s.Fill(0, 2, 2, 0, 0)
	s.Fill(1, 3, 3, 0, 0)
	if n := s.FlushVM(0); n != 2 {
		t.Fatalf("FlushVM(0) lost %d, want 2", n)
	}
	if _, ok := s.Lookup(1, 3); !ok {
		t.Errorf("VM 1 entry lost to VM 0's flush")
	}
	if s.Flushes != 1 || s.FlushedEntries != 2 {
		t.Errorf("flush stats: %d %d", s.Flushes, s.FlushedEntries)
	}
	// The CPUSet variant covers all four structures.
	cs := NewCPUSet(arch.DefaultTLBConfig())
	cs.L1TLB.Fill(0, 1, 1, 0, 0)
	cs.L2TLB.Fill(0, 1, 1, 0, 0)
	cs.NTLB.Fill(1, 2, 2, 0, 0)
	cs.MMU.Fill(0, 3, 3, 0, 0)
	tlb, mmu, ntlb := cs.FlushVMAll(0)
	if tlb != 2 || mmu != 1 || ntlb != 0 {
		t.Errorf("FlushVMAll: %d %d %d", tlb, mmu, ntlb)
	}
	if cs.ValidTotal() != 1 {
		t.Errorf("VM 1's nTLB entry should survive, valid = %d", cs.ValidTotal())
	}
}

// The reference sweeps below are the nested, set-by-set CAM sweeps the flat
// ones in tstruct.go replaced, kept verbatim apart from taking the structure
// as a parameter. TestSweepsMatchReference holds the flat sweeps to them.

func refInvalidateMasked(s *Struct, vm int, src uint64, shift uint, mask uint64) int {
	n := 0
	target := (src >> shift) & mask
	for set := 0; set < s.sets; set++ {
		if s.vcnt[set] == 0 {
			continue
		}
		base := set * s.ways
		for i := base; i < base+s.ways; i++ {
			if s.vms[i] < 0 {
				continue
			}
			s.CoTagCompares++
			if !s.vmMatch(i, vm) {
				continue
			}
			if (s.srcs[i]>>shift)&mask == target {
				s.vms[i] = -1
				s.vcnt[set]--
				n++
			}
		}
	}
	s.CoTagInvalidations += uint64(n)
	return n
}

func refInvalidateMaskedExcept(s *Struct, vm int, src uint64, shift uint, mask, exceptSrc uint64) int {
	n := 0
	target := (src >> shift) & mask
	for set := 0; set < s.sets; set++ {
		if s.vcnt[set] == 0 {
			continue
		}
		base := set * s.ways
		for i := base; i < base+s.ways; i++ {
			if s.vms[i] < 0 {
				continue
			}
			s.CoTagCompares++
			if !s.vmMatch(i, vm) {
				continue
			}
			if s.srcs[i] == exceptSrc {
				continue
			}
			if (s.srcs[i]>>shift)&mask == target {
				s.vms[i] = -1
				s.vcnt[set]--
				n++
			}
		}
	}
	s.CoTagInvalidations += uint64(n)
	return n
}

func refCachesMasked(s *Struct, vm int, src uint64, shift uint, mask uint64) bool {
	target := (src >> shift) & mask
	for set := 0; set < s.sets; set++ {
		if s.vcnt[set] == 0 {
			continue
		}
		base := set * s.ways
		for i := base; i < base+s.ways; i++ {
			if s.vms[i] < 0 {
				continue
			}
			s.CoTagCompares++
			if !s.vmMatch(i, vm) {
				continue
			}
			if (s.srcs[i]>>shift)&mask == target {
				return true
			}
		}
	}
	return false
}

func refUpdateMatching(s *Struct, vm int, src uint64, upd func(Entry) (uint64, bool)) int {
	n := 0
	for set := 0; set < s.sets; set++ {
		if s.vcnt[set] == 0 {
			continue
		}
		base := set * s.ways
		for i := base; i < base+s.ways; i++ {
			if s.srcs[i] != src || !s.vmMatch(i, vm) {
				continue
			}
			newVal, keep := upd(s.entryAt(i))
			if keep {
				s.vals[i] = newVal
			} else {
				s.vms[i] = -1
				s.vcnt[set]--
			}
			n++
		}
	}
	return n
}

func refFlushVM(s *Struct, vm int) int {
	n := 0
	for set := 0; set < s.sets; set++ {
		if s.vcnt[set] == 0 {
			continue
		}
		base := set * s.ways
		for i := base; i < base+s.ways; i++ {
			if s.vmMatch(i, vm) {
				s.vms[i] = -1
				s.vcnt[set]--
				n++
			}
		}
	}
	s.Flushes++
	s.FlushedEntries += uint64(n)
	return n
}

// structDiff describes the first difference between two structures'
// statistics, per-set valid counts, entries (valid or not) and LRU state,
// or returns "" when they are identical.
func structDiff(got, want *Struct) string {
	stats := func(s *Struct) [8]uint64 {
		return [8]uint64{s.Hits, s.Misses, s.Fills, s.Evictions,
			s.FlushedEntries, s.Flushes, s.CoTagCompares, s.CoTagInvalidations}
	}
	if g, w := stats(got), stats(want); g != w {
		return fmt.Sprintf("stats (hits misses fills evictions flushed flushes compares invalidations) %v, want %v", g, w)
	}
	if !slices.Equal(got.vcnt, want.vcnt) {
		return fmt.Sprintf("per-set valid counts %v, want %v", got.vcnt, want.vcnt)
	}
	for i := range want.vms {
		if g, w := got.entryAt(i), want.entryAt(i); g != w {
			return fmt.Sprintf("entry %d: %+v, want %+v", i, g, w)
		}
	}
	if !slices.Equal(got.ranks, want.ranks) {
		return "LRU ranks differ"
	}
	return ""
}

// TestSweepsMatchReference drives the flat sweeps and the reference sweeps
// with the same seeded random operations on twin structures and requires
// identical return values and identical structures after every operation.
// Sources cluster in a few lines with aliases 256 and 2^14 lines apart, so
// every co-tag width the callers use sees line false sharing, aliasing and
// misses; three VM tags plus AnyVM exercise the VPID qualification; phases
// that mostly fill alternate with phases that mostly invalidate, so the sets
// swing between full and holed.
func TestSweepsMatchReference(t *testing.T) {
	shapes := []struct{ entries, ways int }{{64, 4}, {512, 8}, {32, 4}, {48, 4}, {16, 2}}
	// Every (shift, mask) pair the protocols pass: HATRIC's co-tag widths,
	// UNITD++'s full line address and the ideal protocol's exact PTE.
	compares := []struct {
		shift uint
		mask  uint64
	}{{3, CoTagMask(1)}, {3, CoTagMask(2)}, {3, CoTagMask(3)}, {3, ^uint64(0)}, {0, ^uint64(0)}}
	tags := []int{0, 1, 2, AnyVM}
	const (
		opFill = iota
		opInvalidateKey
		opInvalidateMasked
		opInvalidateMaskedExcept
		opCachesMasked
		opUpdateMatching
		opFlushVM
		opFlush
	)
	opNames := [...]string{"Fill", "InvalidateKey", "InvalidateMasked", "InvalidateMaskedExcept",
		"CachesMasked", "UpdateMatching", "FlushVM", "Flush"}
	// Per-mille weights of each operation in the filling and the
	// invalidating phase.
	weights := [2][8]int{
		{800, 30, 50, 30, 50, 30, 8, 2},
		{200, 100, 250, 100, 200, 100, 40, 10},
	}
	pick := func(rng *xrand.RNG, phase int) int {
		r := rng.Intn(1000)
		for op, w := range weights[phase] {
			if r < w {
				return op
			}
			r -= w
		}
		panic("weights must sum to 1000")
	}
	for _, shape := range shapes {
		for seed := uint64(1); seed <= 3; seed++ {
			name := fmt.Sprintf("%dx%d/seed%d", shape.entries, shape.ways, seed)
			t.Run(name, func(t *testing.T) {
				got := New("flat", shape.entries, shape.ways)
				want := New("nested", shape.entries, shape.ways)
				rng := xrand.New(seed<<32 | uint64(shape.entries))
				src := func() uint64 {
					line := rng.Uint64n(24) + 256*rng.Uint64n(3) + (1<<14)*rng.Uint64n(2)
					return line*8 + rng.Uint64n(8)
				}
				var gotSeen, wantSeen []Entry
				updater := func(seen *[]Entry) func(Entry) (uint64, bool) {
					return func(e Entry) (uint64, bool) {
						*seen = append(*seen, e)
						return e.Val + 1, e.Key%3 != 0
					}
				}
				var cachedHits, cachedMisses int
				for step := 0; step < 4000; step++ {
					vm := tags[rng.Intn(len(tags))]
					cmp := compares[rng.Intn(len(compares))]
					var g, w any
					op := pick(rng, step/500%2)
					switch op {
					case opFill:
						// Callers fill with a concrete VM tag only.
						fvm, key, val, s, kind := rng.Intn(3), rng.Uint64n(uint64(2*shape.entries)), rng.Uint64(), src(), uint8(rng.Intn(4))
						g1, g2 := got.Fill(fvm, key, val, s, kind)
						w1, w2 := want.Fill(fvm, key, val, s, kind)
						g, w = [2]any{g1, g2}, [2]any{w1, w2}
					case opInvalidateKey:
						key := rng.Uint64n(uint64(2 * shape.entries))
						g, w = got.InvalidateKey(vm, key), want.InvalidateKey(vm, key)
					case opInvalidateMasked:
						s := src()
						g = got.InvalidateMasked(vm, s, cmp.shift, cmp.mask)
						w = refInvalidateMasked(want, vm, s, cmp.shift, cmp.mask)
					case opInvalidateMaskedExcept:
						s, except := src(), src()
						if rng.Intn(2) == 0 {
							except = s // the prefetch extension's call
						}
						g = got.InvalidateMaskedExcept(vm, s, cmp.shift, cmp.mask, except)
						w = refInvalidateMaskedExcept(want, vm, s, cmp.shift, cmp.mask, except)
					case opCachesMasked:
						s := src()
						hit := got.CachesMasked(vm, s, cmp.shift, cmp.mask)
						g, w = hit, refCachesMasked(want, vm, s, cmp.shift, cmp.mask)
						if hit {
							cachedHits++
						} else {
							cachedMisses++
						}
					case opUpdateMatching:
						s := src()
						gotSeen, wantSeen = gotSeen[:0], wantSeen[:0]
						g = got.UpdateMatching(vm, s, updater(&gotSeen))
						w = refUpdateMatching(want, vm, s, updater(&wantSeen))
						if !slices.Equal(gotSeen, wantSeen) {
							t.Fatalf("step %d: UpdateMatching(vm %d) visited %v, want %v", step, vm, gotSeen, wantSeen)
						}
					case opFlushVM:
						g, w = got.FlushVM(vm), refFlushVM(want, vm)
					case opFlush:
						g, w = got.Flush(), want.Flush()
					}
					if g != w {
						t.Fatalf("step %d: %s (vm %d) returned %v, want %v", step, opNames[op], vm, g, w)
					}
					if d := structDiff(got, want); d != "" {
						t.Fatalf("step %d: after %s (vm %d): %s", step, opNames[op], vm, d)
					}
				}
				if got.Evictions == 0 || got.CoTagInvalidations == 0 || cachedHits == 0 || cachedMisses == 0 {
					t.Errorf("weak sequence: %d evictions, %d co-tag invalidations, CachesMasked %d hits / %d misses",
						got.Evictions, got.CoTagInvalidations, cachedHits, cachedMisses)
				}
			})
		}
	}
}

func TestKeys(t *testing.T) {
	if TLBKey(1, 2) == TLBKey(2, 1) {
		t.Errorf("TLB keys must separate processes")
	}
	if MMUKey(1, 5) == MMUKey(2, 5) {
		t.Errorf("MMU keys must separate processes")
	}
	if NTLBKey(7) != 7 {
		t.Errorf("nTLB key is the GPP")
	}
}
