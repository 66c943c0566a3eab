package sim

import (
	"testing"

	"hatric/internal/hv"
)

// TestSteadyStateZeroAllocs is the allocation-regression gate for the
// flattened hot path: once the machine is warm (translation structures and
// caches filled, the directory table at its high-water mark, page-table
// leaf caches populated), simulating a reference must not allocate at all.
// The directory's open-addressed table and ring-free default size, the
// flat cache/tstruct arrays, the paged page-table caches, the walker's
// scratch buffer, and the min-clock heap all exist precisely so this
// holds. Each gate measures its whole window in one run, because
// testing.AllocsPerRun divides by the run count with integer division and
// would hide fewer allocations than runs.
func TestSteadyStateZeroAllocs(t *testing.T) {
	spec := smokeSpec()
	spec.Refs = 100_000_000 // never exhausts during the test
	cfg := smokeConfig()
	cfg.Mem.HBMFrames = 4096 // inf-hbm: no faults, pure steady state
	sys, err := New(Options{
		Config:    cfg,
		Protocol:  "hatric",
		Paging:    hv.PagingConfig{Policy: "lru"},
		Mode:      hv.ModeInfHBM,
		Workloads: SingleWorkload(spec, cfg.NumCPUs),
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	step := func(n int) {
		for i := 0; i < n; i++ {
			ok, err := sys.stepOnce()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatal("machine went idle during the test")
			}
		}
	}
	step(120_000) // warm every structure past its high-water mark
	const window = 50 * 200
	if n := testing.AllocsPerRun(1, func() { step(window) }); n != 0 {
		t.Errorf("steady-state simulation allocates: %.0f allocs in %d references", n, window)
	}
}

// TestSteadyStateZeroAllocsStorms extends the allocation gate to the
// memory-management storm paths: with the KSM scanner and the compaction
// daemon both firing every few hundred references (merges, write-breaks,
// and window relocations all running full coherent remaps), the hot path
// must still not allocate. The shared-frame bitmaps, the content-class
// table, and the global page cursors are pre-sized at enable time
// precisely so this holds.
func TestSteadyStateZeroAllocsStorms(t *testing.T) {
	spec := smokeSpec()
	spec.Refs = 100_000_000
	spec.Threads = 2
	cfg := smokeConfig()
	cfg.Mem.HBMFrames = 4096
	sys, err := New(Options{
		Config:   cfg,
		Protocol: "hatric",
		Paging:   hv.PagingConfig{Policy: "lru"},
		Mode:     hv.ModeInfHBM,
		VMs: []VMSpec{
			{Workloads: []AssignedWorkload{{Spec: spec, CPUs: []int{0, 1}}}},
			{Workloads: []AssignedWorkload{{Spec: spec, CPUs: []int{2, 3}}}},
		},
		KSM:        hv.KSMConfig{ScanEvery: 300, PagesPerScan: 16, SharingFactor: 0.5, BreakRate: 0.3},
		Compaction: hv.CompactionConfig{Every: 250, WindowPages: 4},
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	step := func(n int) {
		for i := 0; i < n; i++ {
			ok, err := sys.stepOnce()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatal("machine went idle during the test")
			}
		}
	}
	step(120_000)
	const window = 50 * 400
	if n := testing.AllocsPerRun(1, func() { step(window) }); n != 0 {
		t.Errorf("storm steady state allocates: %.0f allocs in %d references", n, window)
	}
	ksm := sys.hyp.KSMReport()
	if ksm.Merges == 0 || ksm.Breaks == 0 || sys.hyp.CompactionMoves() == 0 {
		t.Errorf("storm paths idle during alloc gate: merges=%d breaks=%d moves=%d",
			ksm.Merges, ksm.Breaks, sys.hyp.CompactionMoves())
	}
}

// TestSteadyStateZeroAllocsParallel extends the allocation gate to the
// epoch-barrier parallel engine: once the deferred-event logs, the
// accessed-bit buffers, and every serial structure have reached their
// high-water marks, a full epoch — worker fan-out, barrier merge, replay —
// must not allocate. The persistent workers, the reused per-CPU log
// slices, and the capacity-keeping Reset exist precisely so this holds.
func TestSteadyStateZeroAllocsParallel(t *testing.T) {
	spec := smokeSpec()
	spec.Refs = 100_000_000 // never exhausts during the test
	cfg := smokeConfig()
	cfg.Mem.HBMFrames = 4096 // inf-hbm: no faults, pure steady state
	sys, err := New(Options{
		Config:       cfg,
		Protocol:     "hatric",
		Paging:       hv.PagingConfig{Policy: "lru"},
		Mode:         hv.ModeInfHBM,
		Workloads:    SingleWorkload(spec, cfg.NumCPUs),
		Seed:         3,
		ParallelCPUs: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.parInit()
	defer sys.parStop()
	epoch := func(n int) {
		for i := 0; i < n; i++ {
			if err := sys.parEpoch(); err != nil {
				t.Fatal(err)
			}
			if sys.active == 0 {
				t.Fatal("machine went idle during the test")
			}
		}
	}
	epoch(40) // warm every structure and log past its high-water mark
	const window = 20 * 2
	if n := testing.AllocsPerRun(1, func() { epoch(window) }); n != 0 {
		t.Errorf("parallel steady state allocates: %.0f allocs in %d epochs", n, window)
	}
}
