package arch

import "fmt"

// MemTier identifies one of the two memory devices.
type MemTier int

// The tiers count from 1, so the zero MemTier names no tier: a spec that
// leaves its tier unset fails validation instead of meaning die-stacked.
const (
	// TierHBM is the fast die-stacked DRAM.
	TierHBM MemTier = iota + 1
	// TierDRAM is the slow off-chip DRAM.
	TierDRAM
	// endTier is one past the last tier.
	endTier
)

// String returns the conventional name of the tier.
func (t MemTier) String() string {
	switch t {
	case TierHBM:
		return "hbm"
	case TierDRAM:
		return "dram"
	}
	return "unknown-tier"
}

// MarshalText encodes the tier by its String name. An out-of-range tier
// is an error, so no encoding names a tier the simulator does not know.
func (t MemTier) MarshalText() ([]byte, error) {
	if t < TierHBM || t >= endTier {
		return nil, fmt.Errorf("arch: unknown memory tier %d", int(t))
	}
	return []byte(t.String()), nil
}

// UnmarshalText decodes a tier from its String name.
func (t *MemTier) UnmarshalText(text []byte) error {
	for c := TierHBM; c < endTier; c++ {
		if c.String() == string(text) {
			*t = c
			return nil
		}
	}
	return fmt.Errorf("arch: unknown memory tier %q (want hbm or dram)", text)
}

// MemConfig describes the two-level memory system. Frame counts are in
// 4 KB pages. The paper models 2 GB of die-stacked DRAM with 4x the
// bandwidth of 8 GB off-chip DRAM; the simulator preserves the ratios at a
// reduced scale so that experiments finish quickly.
type MemConfig struct {
	HBMFrames  int // capacity of die-stacked DRAM in pages
	DRAMFrames int // capacity of off-chip DRAM in pages

	HBMLatency  Cycles // unloaded access latency
	DRAMLatency Cycles

	// Service rates in bytes per cycle; queueing delay grows once demand
	// exceeds the rate. HBM is 4x DRAM per the paper.
	HBMBytesPerCycle  float64
	DRAMBytesPerCycle float64

	// PTFrames is the size of the reserved system-physical region that
	// holds nested and guest page-table pages (allocated outside the
	// data-frame pools, backed by off-chip DRAM timing).
	PTFrames int
}

// TLBConfig sizes the per-CPU translation structures.
type TLBConfig struct {
	L1TLBEntries    int // L1 data TLB (fully modeled, set-associative)
	L1TLBWays       int
	L2TLBEntries    int
	L2TLBWays       int
	NTLBEntries     int // nested TLB: GPP -> SPP
	NTLBWays        int
	MMUCacheEntries int // paging-structure cache entries
	MMUCacheWays    int
	SizeMultiplier  int // 1, 2, 4 ... scales all entry counts (Fig. 9)
	CoTagBytes      int // 1, 2 or 3; 0 disables co-tags (software coherence)
}

// CacheConfig sizes one cache level.
type CacheConfig struct {
	SizeBytes int
	Ways      int
}

// Sets returns the number of sets implied by the geometry.
func (c CacheConfig) Sets() int {
	lines := c.SizeBytes / LineSize
	if c.Ways <= 0 {
		return lines
	}
	s := lines / c.Ways
	if s < 1 {
		return 1
	}
	return s
}

// DirectoryConfig controls the coherence directory model and the Fig. 12
// ablation switches.
type DirectoryConfig struct {
	Entries int // capacity; evictions back-invalidate (0 = infinite)

	// EagerUpdate removes CPUs from sharer lists as soon as a page-table
	// line leaves their private cache or translation structures
	// (EGR-dir-update in Fig. 12). The default is lazy demotion.
	EagerUpdate bool
	// FineGrained tracks, per sharer, whether the line is cached in the
	// private caches, the TLBs, the MMU cache, or the nTLB, so that
	// invalidations are relayed only where needed (FG-tracking in Fig. 12).
	FineGrained bool
	// NoBackInvalidation models an infinitely sized directory that never
	// back-invalidates (No-back-inv in Fig. 12).
	NoBackInvalidation bool
}

// Config is the full system configuration.
type Config struct {
	NumCPUs int

	TLB TLBConfig
	L1  CacheConfig
	L2  CacheConfig
	LLC CacheConfig

	Dir DirectoryConfig
	Mem MemConfig

	Cost CostModel
}

// DefaultTLBConfig returns the paper's translation-structure sizes
// (Sec. 5.1): 64-entry L1 TLB, 512-entry L2 TLB, 32-entry nTLB, 48-entry
// paging-structure MMU cache, with 2-byte co-tags.
func DefaultTLBConfig() TLBConfig {
	return TLBConfig{
		L1TLBEntries:    64,
		L1TLBWays:       4,
		L2TLBEntries:    512,
		L2TLBWays:       8,
		NTLBEntries:     32,
		NTLBWays:        4,
		MMUCacheEntries: 48,
		MMUCacheWays:    4,
		SizeMultiplier:  1,
		CoTagBytes:      2,
	}
}

// DefaultMemConfig returns the two-tier memory system at simulation scale.
// The paper's machine has 2 GB HBM and 8 GB DRAM; we preserve the 1:4
// capacity ratio and the 4:1 bandwidth ratio at 1/256 scale so that
// workload footprints of a few thousand pages exercise inter-tier paging.
func DefaultMemConfig() MemConfig {
	return MemConfig{
		HBMFrames:         768,  // 3 MB
		DRAMFrames:        3072, // 12 MB
		HBMLatency:        110,
		DRAMLatency:       200,
		HBMBytesPerCycle:  64,
		DRAMBytesPerCycle: 16,
		PTFrames:          2048,
	}
}

// DefaultConfig returns a 16-CPU Haswell-like configuration. Translation
// structures keep the paper's sizes (Sec. 5.1); caches are scaled down with
// the memory capacities and workload footprints (the paper's 32 KB L1 /
// 256 KB L2 / 20 MB LLC become 8 KB / 32 KB / 512 KB) so that cache reach
// relative to footprint stays in the regime where die-stacked bandwidth
// matters.
func DefaultConfig() Config {
	return Config{
		NumCPUs: 16,
		TLB:     DefaultTLBConfig(),
		L1:      CacheConfig{SizeBytes: 8 << 10, Ways: 4},
		L2:      CacheConfig{SizeBytes: 32 << 10, Ways: 8},
		LLC:     CacheConfig{SizeBytes: 512 << 10, Ways: 16},
		Dir:     DirectoryConfig{Entries: 1 << 18},
		Mem:     DefaultMemConfig(),
		Cost:    KVMCostModel(),
	}
}

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	switch {
	case c.NumCPUs <= 0:
		return configError("NumCPUs must be positive")
	case c.NumCPUs > 64:
		return configError("NumCPUs must be <= 64 (sharer lists are 64-bit)")
	case c.TLB.SizeMultiplier <= 0:
		return configError("TLB.SizeMultiplier must be positive")
	case c.TLB.CoTagBytes < 0 || c.TLB.CoTagBytes > 3:
		return configError("TLB.CoTagBytes must be in [0,3]")
	case c.Mem.HBMFrames < 0 || c.Mem.DRAMFrames <= 0:
		return configError("memory frame counts invalid")
	case !(c.Mem.HBMBytesPerCycle > 0) || !(c.Mem.DRAMBytesPerCycle > 0):
		return configError("memory bandwidths must be positive")
	case c.L1.SizeBytes <= 0 || c.L2.SizeBytes <= 0 || c.LLC.SizeBytes <= 0:
		return configError("cache sizes must be positive")
	}
	return nil
}

type configError string

func (e configError) Error() string { return "arch: invalid config: " + string(e) }
