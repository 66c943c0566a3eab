package hv

import (
	"fmt"

	"hatric/internal/arch"
)

// CompactionConfig tunes the THP-style compaction daemon: a background
// thread that defragments the die-stacked tier by relocating live pages
// into fresh frames in sliding windows, building the contiguity huge-page
// promotion needs. Every move is a present-to-present remap through the
// coherent-PTE-store path, so each one runs full translation coherence —
// the compaction storm. Unlike the legacy DefragEvery knob (one random
// page per period), the daemon walks a deterministic global cursor and
// never consults the RNG or copies a candidate list, keeping the hot path
// allocation-free.
type CompactionConfig struct {
	// Every triggers one compaction window per this many memory
	// references on a CPU. Zero disables the daemon.
	Every uint64
	// WindowPages is the maximum pages relocated per window. Zero
	// defaults to 8.
	WindowPages int
}

func (c *CompactionConfig) windowPages() int {
	if c.WindowPages > 0 {
		return c.WindowPages
	}
	return 8
}

// compactState is the daemon's cursor and totals.
type compactState struct {
	cfg    CompactionConfig
	cursor pageCursor
	moves  uint64
}

// EnableCompaction turns the compaction daemon on.
func (h *Hypervisor) EnableCompaction(cfg CompactionConfig) error {
	if h.compact != nil {
		return fmt.Errorf("hv: compaction already enabled")
	}
	if cfg.Every == 0 {
		return fmt.Errorf("hv: compaction needs Every > 0")
	}
	h.compact = &compactState{cfg: cfg}
	return nil
}

// CompactionMoves returns the total pages the daemon has relocated.
func (h *Hypervisor) CompactionMoves() uint64 {
	if h.compact == nil {
		return 0
	}
	return h.compact.moves
}

// Compact runs one compaction window on cpu: it advances the global
// sliding cursor and relocates up to WindowPages resident die-stacked
// pages into fresh frames, each through the full coherent remap path.
// Compaction is strictly opportunistic — it moves pages only while free
// frames exist (it never evicts to make room) and skips shared, migrating,
// and page-table pages. Returns the daemon cycles charged to cpu.
//
//hatric:hotpath
func (h *Hypervisor) Compact(cpu int, now arch.Cycles) arch.Cycles {
	k := h.compact
	if k == nil {
		return 0
	}
	c := h.machine.Counters(cpu)
	var lat arch.Cycles
	moved := 0
	// The scan budget bounds a window full of unmovable pages, keeping
	// one trigger from sweeping every VM's whole page space.
	for scanned := 8 * k.cfg.windowPages(); scanned > 0 && moved < k.cfg.windowPages(); scanned-- {
		if h.mem.FreeFrames(arch.TierHBM) == 0 {
			return lat // no headroom; compaction never evicts
		}
		vmIdx, gpp, ok := k.cursor.next(h.vms)
		if !ok {
			return lat
		}
		// A migrating VM's resident set is frozen; shared frames belong
		// to the dedup table, not to this VM.
		if h.Migrating(vmIdx) || h.ksmShared(vmIdx, gpp) {
			continue
		}
		vm := h.vms[vmIdx]
		oldSPP, present, tok := vm.Nested.Translate(gpp)
		if !tok || !present || vm.OwnsPTPage(oldSPP) {
			continue
		}
		if h.mem.Layout.TierOf(oldSPP) != arch.TierHBM {
			continue
		}
		frame, got := h.mem.AllocFrame(arch.TierHBM)
		if !got {
			return lat
		}
		copyLat := h.mem.CopyPage(now+lat, oldSPP, frame)
		pteSPA, err := vm.Nested.Remap(gpp, frame, true)
		if err != nil {
			h.mem.FreeFrame(frame)
			continue
		}
		h.mem.FreeFrame(oldSPP)
		c.CompactionMoves++
		k.moves++
		lat += copyLat + h.remap(cpu, vm.ID, pteSPA, now+lat)
		moved++
	}
	return lat
}
