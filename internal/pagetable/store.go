// Package pagetable implements the two page tables of a virtualized x86-64
// system: 4-level radix guest page tables (guest virtual to guest physical)
// and 4-level radix nested page tables (guest physical to system physical).
// Page-table pages are materialized at real simulated system physical
// addresses inside a reserved page-table heap, so every page-table entry has
// an SPA — the address HATRIC's co-tags store and the address cache
// coherence acts on.
package pagetable

import (
	"fmt"

	"hatric/internal/arch"
)

// PTE is a simulated page-table entry. The layout loosely follows x86-64:
// bit 0 present, bit 5 accessed, bit 6 dirty, bits 12+ frame number.
type PTE uint64

// PTE flag bits.
const (
	FlagPresent  PTE = 1 << 0
	FlagAccessed PTE = 1 << 5
	FlagDirty    PTE = 1 << 6
)

// MakePTE builds an entry pointing at the given frame.
func MakePTE(frame uint64, present bool) PTE {
	e := PTE(frame << arch.PageShift)
	if present {
		e |= FlagPresent
	}
	return e
}

// Present reports bit 0.
func (e PTE) Present() bool { return e&FlagPresent != 0 }

// Accessed reports bit 5.
func (e PTE) Accessed() bool { return e&FlagAccessed != 0 }

// Dirty reports bit 6.
func (e PTE) Dirty() bool { return e&FlagDirty != 0 }

// Frame returns the stored frame number.
func (e PTE) Frame() uint64 { return uint64(e) >> arch.PageShift }

// Valid reports whether the entry holds any mapping at all (present or
// swapped-out-but-tracked). The zero PTE is invalid.
func (e PTE) Valid() bool { return e != 0 }

// withFlag returns e with the flag set or cleared.
func (e PTE) withFlag(f PTE, on bool) PTE {
	if on {
		return e | f
	}
	return e &^ f
}

// Store holds the simulated contents of the page-table heap: the SPA range
// [0, frames*PageSize). Only page-table pages have simulated contents; data
// pages never do.
//
// Frames materialize on first write. The heap is bump-allocated from frame
// 0 (memdev.AllocPT), so one zeroed prefix of whole frames covers every
// frame ever written, and it grows by doubling when a write lands past it.
// Reads inside the heap but past the prefix return 0, as a heap zeroed up
// front would.
type Store struct {
	words []uint64
	limit arch.SPA
}

// wordsPerFrame is the number of 8-byte words in one page-table frame.
const wordsPerFrame = arch.PageSize / 8

// NewStore sizes the heap to the given number of page-table frames; no
// frame's memory is allocated until it is written.
func NewStore(frames int) *Store {
	return &Store{limit: arch.SPA(frames * arch.PageSize)}
}

// Read8 loads the 8-byte word at spa.
func (s *Store) Read8(spa arch.SPA) uint64 {
	if spa >= s.limit {
		//hatric:alloc-ok cold bounds-violation panic; unreachable on a well-formed PT heap
		panic(fmt.Sprintf("pagetable: read outside PT heap: %#x", uint64(spa)))
	}
	if i := int(spa >> 3); i < len(s.words) {
		return s.words[i]
	}
	return 0
}

// Write8 stores the 8-byte word at spa.
func (s *Store) Write8(spa arch.SPA, v uint64) {
	if spa >= s.limit {
		//hatric:alloc-ok cold bounds-violation panic; unreachable on a well-formed PT heap
		panic(fmt.Sprintf("pagetable: write outside PT heap: %#x", uint64(spa)))
	}
	i := int(spa >> 3)
	if i >= len(s.words) {
		s.grow(i)
	}
	s.words[i] = v
}

// grow extends the materialized prefix to cover word i: to the larger of
// the frame holding i and twice the current prefix, capped at the heap.
func (s *Store) grow(i int) {
	n := max((i/wordsPerFrame+1)*wordsPerFrame, 2*len(s.words))
	n = min(n, int(s.limit>>3))
	//hatric:alloc-ok doubling growth on first write to a new PT frame; bounded by the heap size
	words := make([]uint64, n)
	copy(words, s.words)
	s.words = words
}

// ReadPTE loads the entry at spa.
func (s *Store) ReadPTE(spa arch.SPA) PTE { return PTE(s.Read8(spa)) }

// WritePTE stores the entry at spa.
func (s *Store) WritePTE(spa arch.SPA, e PTE) { s.Write8(spa, uint64(e)) }

// InHeap reports whether spa lies inside the page-table heap.
func (s *Store) InHeap(spa arch.SPA) bool { return spa < s.limit }
