package tstruct

import (
	"testing"

	"hatric/internal/arch"
	"hatric/internal/xrand"
)

func BenchmarkTLBLookupHit(b *testing.B) {
	s := New("l2tlb", 512, 8)
	for i := uint64(0); i < 512; i++ {
		s.Fill(0, i, i, i*8, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Lookup(0, uint64(i)&511)
	}
}

func BenchmarkTLBLookupMiss(b *testing.B) {
	s := New("l2tlb", 512, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Lookup(0, uint64(i))
	}
}

func BenchmarkTLBFill(b *testing.B) {
	s := New("l2tlb", 512, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Fill(0, uint64(i), uint64(i), uint64(i), 0)
	}
}

// benchLineBit splits the co-tag space of the sweep benchmarks: filled
// entries come from lines with this bit clear, so a relay to a line with
// it set matches no entry under the 2-byte co-tag.
const benchLineBit = 1 << 13

// fullSets builds n CPU sets whose every structure is full of entries of
// the given VMs, with random keys and sources on lines without
// benchLineBit, and then loses a random eighth of its entries, leaving
// holes as a running machine's invalidations do.
func fullSets(n int, vms ...int) []*CPUSet {
	rng := xrand.New(uint64(n))
	sets := make([]*CPUSet, n)
	for i := range sets {
		cs := NewCPUSet(arch.DefaultTLBConfig())
		for _, s := range cs.All() {
			for j := 0; j < 4*s.Capacity(); j++ {
				line := rng.Uint64n(1<<30) &^ benchLineBit
				s.Fill(vms[rng.Intn(len(vms))], rng.Uint64(), rng.Uint64(), line<<3|rng.Uint64n(8), 0)
			}
			var drop []Entry
			s.ForEachValid(func(e Entry) {
				if rng.Intn(8) == 0 {
					drop = append(drop, e)
				}
			})
			for _, e := range drop {
				s.InvalidateKey(int(e.VM), e.Key)
			}
		}
		sets[i] = cs
	}
	return sets
}

// BenchmarkCoTagInvalidation measures the full-structure co-tag compare —
// HATRIC's per-invalidation hardware action, and the simulator's hot path
// during remap storms — in the shape of bench/hatricbench's vm_churn
// hatric cell: two VMs' entries fill the structures of 16 CPUs, and
// relays, alternating between the VMs and rotating across the CPUs,
// almost never match. One
// relay in 16 targets a line the other VM holds, so the co-tag matches but
// the VM tag does not; the rest target lines no entry holds. Nothing is
// dropped, so the structures stay full however long the benchmark runs.
func BenchmarkCoTagInvalidation(b *testing.B) {
	const cpus = 16
	sets := fullSets(cpus, 0, 1)
	mask := CoTagMask(2)
	rng := xrand.New(2)
	type relay struct {
		vm  int
		src uint64
	}
	relays := make([]relay, 1024)
	for i := range relays {
		vm := i % 2
		src := (rng.Uint64n(1<<30)|benchLineBit)<<3 | rng.Uint64n(8)
		if i%16 == 0 {
			// An entry of the other VM on the CPU this relay lands on,
			// on a line none of the relay's VM's entries shares.
			cs := sets[i%cpus]
			cs.L2TLB.ForEachValid(func(e Entry) {
				if int(e.VM) != vm && !cs.CachesMaskedAny(vm, e.Src, 3, mask) {
					src = e.Src
				}
			})
		}
		relays[i] = relay{vm, src}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := relays[i%len(relays)]
		if sets[i%cpus].InvalidateMaskedAll(r.vm, r.src, 3, mask) != 0 {
			b.Fatal("a relay dropped an entry; the structures would drain")
		}
	}
}

// BenchmarkFlushVM measures the VPID-scoped flush a software shootdown
// performs on every CPU of the remapping VM, in its two common shapes. At
// seed 1 of bench/hatricbench, 929,942 of paging_storm's 935,936 sw calls
// find the structure empty, and 228,443 of vm_churn's 406,112 find it
// holding only the other VM's entries. Neither shape drops anything, so
// every iteration sees the same state. The empty case is the one that
// needs FlushVM's per-set skip.
func BenchmarkFlushVM(b *testing.B) {
	b.Run("empty", func(b *testing.B) {
		cs := NewCPUSet(arch.DefaultTLBConfig())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cs.FlushVMAll(0)
		}
	})
	b.Run("other-vm-full", func(b *testing.B) {
		cs := fullSets(1, 1)[0]
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cs.FlushVMAll(0)
		}
	})
}

func BenchmarkFlushAll(b *testing.B) {
	cs := NewCPUSet(arch.DefaultTLBConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := uint64(0); j < 64; j++ {
			cs.L2TLB.Fill(0, j, j, j, 0)
		}
		cs.FlushAll()
	}
}
