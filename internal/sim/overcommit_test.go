package sim

import (
	"fmt"
	"testing"

	"hatric/internal/arch"
	"hatric/internal/hv"
	"hatric/internal/workload"
)

// ocSpec is a small paging-and-drift workload sized for fast overcommit
// tests: two threads, enough churn that remaps (and their translation
// coherence) happen steadily.
func ocSpec() workload.Spec {
	return workload.Spec{
		Name: "oc", FootprintPages: 256, Refs: 8_000,
		RegionPages: 96, Theta: 0.60, DriftEvery: 1_000, DriftPages: 8,
		WriteFrac: 0.20, GapMean: 2, Threads: 2,
	}
}

// ocOptions builds a 2-pCPU machine time-slicing 2 VMs x 2 vCPUs (slots
// 0-1 are VM 0, slots 2-3 VM 1; slot v runs on pCPU v%2, so every pCPU
// interleaves both VMs). Defrag remaps guarantee a steady stream of
// translation-coherence initiations regardless of paging dynamics.
func ocOptions(protocol string) Options {
	spec := ocSpec()
	cfg := arch.DefaultConfig()
	cfg.NumCPUs = 2
	SizeConfig(&cfg, 2*spec.FootprintPages, hv.ModePaged)
	cfg.Mem.HBMFrames = 128 // capacity pressure: evictions run coherence too
	return Options{
		Config:   cfg,
		Protocol: protocol,
		Paging:   hv.PagingConfig{Policy: "lru", Daemon: true, DefragEvery: 500},
		Mode:     hv.ModePaged,
		VMs: []VMSpec{
			{Workloads: []AssignedWorkload{{Spec: spec, CPUs: []int{0, 1}}}},
			{Workloads: []AssignedWorkload{{Spec: spec, CPUs: []int{2, 3}}}},
		},
		VCPUsPerCPU:  2,
		SchedQuantum: 5_000,
		Seed:         3,
		CheckStale:   true,
	}
}

func runOC(t *testing.T, opts Options) *Result {
	t.Helper()
	sys, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestOvercommitVMIsolation is the system-level VPID property: two VMs
// with bit-identical (pid, gvp) address spaces time-share every physical
// CPU, so without VM tags every TLB lookup could serve the other VM's
// translation — the stale-translation audit would explode. Under every
// protocol it must stay at zero while the scheduler demonstrably switches.
func TestOvercommitVMIsolation(t *testing.T) {
	for _, protocol := range []string{"sw", "hatric", "hatric-pf", "unitd", "ideal"} {
		t.Run(protocol, func(t *testing.T) {
			res := runOC(t, ocOptions(protocol))
			if res.Agg.StaleTranslationUses != 0 {
				t.Errorf("%d stale translation uses under overcommit", res.Agg.StaleTranslationUses)
			}
			if res.Agg.VCPUSwitches == 0 {
				t.Errorf("scheduler never switched; the test exercised nothing")
			}
			if res.Agg.SwitchFlushes != 0 {
				t.Errorf("VPID-tagged structures must not flush on switch (%d flushes)",
					res.Agg.SwitchFlushes)
			}
			for vm := 0; vm < 2; vm++ {
				if res.VMFinish(vm) == 0 {
					t.Errorf("VM %d never finished", vm)
				}
			}
		})
	}
}

// TestOvercommitFlushOnSwitch: the no-VPID baseline flushes wholesale at
// every cross-VM switch. It must stay correct (zero stale uses) and pay
// for it — switch flushes happen, and the same seeds lose more walks than
// the VPID-tagged run.
func TestOvercommitFlushOnSwitch(t *testing.T) {
	tagged := runOC(t, ocOptions("hatric"))
	opts := ocOptions("hatric")
	opts.FlushOnVMSwitch = true
	flushed := runOC(t, opts)
	if flushed.Agg.StaleTranslationUses != 0 {
		t.Errorf("flush-on-switch run has %d stale uses", flushed.Agg.StaleTranslationUses)
	}
	if flushed.Agg.SwitchFlushes == 0 {
		t.Fatalf("flush-on-switch mode never flushed")
	}
	if flushed.Agg.Walks <= tagged.Agg.Walks {
		t.Errorf("flushing on every switch should cost walks: %d (flush) vs %d (tagged)",
			flushed.Agg.Walks, tagged.Agg.Walks)
	}
}

// TestOvercommitDeschedStalls: software shootdowns on an overcommitted
// machine stall the initiator until descheduled target vCPUs run again;
// the hardware protocols never do. Pinned (1:1) machines never do either.
func TestOvercommitDeschedStalls(t *testing.T) {
	sw := runOC(t, ocOptions("sw"))
	if sw.Agg.DescheduledStallCycles == 0 {
		t.Errorf("sw overcommit run saw no descheduled-target stalls")
	}
	if sw.Agg.RemapsInitiated == 0 || sw.Agg.ShootdownCycles == 0 {
		t.Errorf("remap accounting empty: remaps=%d cycles=%d",
			sw.Agg.RemapsInitiated, sw.Agg.ShootdownCycles)
	}
	for _, protocol := range []string{"hatric", "ideal"} {
		res := runOC(t, ocOptions(protocol))
		if res.Agg.DescheduledStallCycles != 0 {
			t.Errorf("%s charged %d descheduled-stall cycles; its invalidations need no vCPU",
				protocol, res.Agg.DescheduledStallCycles)
		}
		if res.Agg.ShootdownCycles != 0 {
			t.Errorf("%s charged %d initiator shootdown cycles", protocol, res.Agg.ShootdownCycles)
		}
	}
	// Pinned machine, same VMs on 4 physical CPUs: no stalls.
	opts := ocOptions("sw")
	opts.Config.NumCPUs = 4
	opts.VCPUsPerCPU = 0
	opts.SchedQuantum = 0
	pinned := runOC(t, opts)
	if pinned.Agg.DescheduledStallCycles != 0 {
		t.Errorf("pinned run charged %d descheduled-stall cycles", pinned.Agg.DescheduledStallCycles)
	}
	if pinned.Agg.VCPUSwitches != 0 {
		t.Errorf("pinned run context-switched %d times", pinned.Agg.VCPUSwitches)
	}
}

// TestOvercommitPerVMAccounting: quantum-granular attribution must not
// lose or invent events — the per-VM aggregates sum to the machine-wide
// aggregate for every counter incremented on scheduled CPUs, including
// the structure-local compare counters (which once were dumped wholesale
// on whichever VM ran last). Both engines attribute through the same
// per-(CPU, VM) matrix.
func TestOvercommitPerVMAccounting(t *testing.T) {
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("parallel=%d", workers), func(t *testing.T) {
			opts := ocOptions("hatric")
			opts.ParallelCPUs = workers
			res := runOC(t, opts)
			var memRefs, walks, faults, compares uint64
			for vm, c := range res.PerVM {
				memRefs += c.MemRefs
				walks += c.Walks
				faults += c.PageFaults
				compares += c.CoTagCompares
				if c.CoTagCompares == 0 {
					t.Errorf("VM %d attributed zero co-tag compares; both VMs' relays ran", vm)
				}
			}
			if memRefs != res.Agg.MemRefs {
				t.Errorf("per-VM MemRefs sum %d != aggregate %d", memRefs, res.Agg.MemRefs)
			}
			if walks != res.Agg.Walks {
				t.Errorf("per-VM Walks sum %d != aggregate %d", walks, res.Agg.Walks)
			}
			if faults != res.Agg.PageFaults {
				t.Errorf("per-VM PageFaults sum %d != aggregate %d", faults, res.Agg.PageFaults)
			}
			if compares != res.Agg.CoTagCompares {
				t.Errorf("per-VM CoTagCompares sum %d != aggregate %d", compares, res.Agg.CoTagCompares)
			}
		})
	}
}

// TestZeroRefStreamTerminates: a zero-reference stream is finished at
// birth; both the pinned and the scheduled run loop, on both engines, must
// retire it and terminate instead of spinning on a CPU whose clock never
// advances.
func TestZeroRefStreamTerminates(t *testing.T) {
	empty := ocSpec()
	empty.Refs = 0
	work := ocSpec()

	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("parallel=%d", workers), func(t *testing.T) {
			// Pinned: one working CPU, one zero-ref CPU.
			cfg := arch.DefaultConfig()
			cfg.NumCPUs = 2
			SizeConfig(&cfg, 2*work.FootprintPages, hv.ModeNoHBM)
			res := runOC(t, Options{
				Config:   cfg,
				Protocol: "hatric",
				Mode:     hv.ModeNoHBM,
				VMs: []VMSpec{
					{Workloads: []AssignedWorkload{{Spec: work, CPUs: []int{0}}}},
					{Workloads: []AssignedWorkload{{Spec: empty, CPUs: []int{1}}}},
				},
				Seed:         3,
				ParallelCPUs: workers,
			})
			if res.Agg.MemRefs != work.Refs {
				t.Errorf("pinned: memrefs = %d, want %d", res.Agg.MemRefs, work.Refs)
			}

			// Scheduled: a zero-ref vCPU time-shares a physical CPU with real work.
			opts := ocOptions("hatric")
			opts.VMs[1].Workloads[0].Spec = empty
			opts.ParallelCPUs = workers
			res = runOC(t, opts)
			if res.VMFinish(0) == 0 {
				t.Errorf("scheduled: working VM never finished beside a zero-ref VM")
			}
		})
	}
}

// TestOvercommitSlotValidation: vCPU slots must be in range and disjoint.
func TestOvercommitSlotValidation(t *testing.T) {
	opts := ocOptions("hatric")
	opts.VMs[1].Workloads[0].CPUs = []int{2, 4} // 4 >= 2 CPUs * 2 slots
	if _, err := New(opts); err == nil {
		t.Errorf("out-of-range slot accepted")
	}
	opts = ocOptions("hatric")
	opts.VMs[1].Workloads[0].CPUs = []int{1, 2} // slot 1 already VM 0's
	if _, err := New(opts); err == nil {
		t.Errorf("doubly-assigned slot accepted")
	}
	opts = ocOptions("hatric")
	opts.VCPUsPerCPU = -1
	if _, err := New(opts); err == nil {
		t.Errorf("negative overcommit ratio accepted")
	}
}

// TestQuickOvercommitDeterminism: scheduled runs are bit-deterministic —
// rerunning the same configuration reproduces every counter exactly.
func TestQuickOvercommitDeterminism(t *testing.T) {
	for _, protocol := range []string{"sw", "hatric"} {
		a := runOC(t, ocOptions(protocol))
		b := runOC(t, ocOptions(protocol))
		if a.Runtime != b.Runtime {
			t.Errorf("%s: runtime differs across reruns: %d vs %d", protocol, a.Runtime, b.Runtime)
		}
		if a.Agg != b.Agg {
			t.Errorf("%s: aggregate counters differ across reruns:\n%+v\nvs\n%+v",
				protocol, a.Agg, b.Agg)
		}
	}
}
