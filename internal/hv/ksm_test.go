package hv

import (
	"testing"

	"hatric/internal/arch"
	"hatric/internal/tstruct"
	"hatric/internal/xrand"
)

// newKSMRig builds a multi-VM rig with the dedup scanner enabled. LRU
// paging (not the fifo default) exercises the policy Forget/NoteResident
// churn that merges and breaks cause.
func newKSMRig(t *testing.T, protocol string, cfgs []VMConfig, pages []int, ksm KSMConfig) *multiRig {
	t.Helper()
	modes := make([]PlacementMode, len(pages))
	for i := range modes {
		modes[i] = ModeInfHBM
	}
	r := newMultiRig(t, protocol, PagingConfig{Policy: "lru"}, cfgs,
		pages, modes, sum(pages)+16, 2*(sum(pages)+16))
	if err := r.hyp.EnableKSM(ksm); err != nil {
		t.Fatal(err)
	}
	return r
}

// checkKSMInvariants sweeps the whole dedup state and fails on any broken
// bookkeeping invariant:
//   - a page marked shared has a content class and maps exactly the
//     class's shared frame;
//   - every valid class's refcount equals the number of (VM, page)
//     mappings pointing at it, and is positive;
//   - an invalid class has zero mappings (its frame was freed when the
//     last sharer left);
//   - sharedFrames counts exactly the valid classes;
//   - the pool identity holds: per-VM residency plus shared frames equals
//     the die-stacked frames in use.
func checkKSMInvariants(t *testing.T, r *multiRig) {
	t.Helper()
	k := r.hyp.ksm
	refs := make([]int, len(k.classes))
	for v, vm := range r.vms {
		for g := uint64(1); g < vm.gppNext; g++ {
			gpp := arch.GPP(g)
			if !k.shared[v].has(gpp) {
				continue
			}
			cls := k.classOf[v][g]
			if cls < 0 {
				t.Fatalf("VM %d gpp %d shared without a content class", v, g)
			}
			refs[cls]++
			spp, present, ok := vm.Nested.Translate(gpp)
			if !ok || !present || spp != k.classes[cls].spp {
				t.Fatalf("VM %d gpp %d marked shared but maps %#x (present=%v), class %d frame %#x",
					v, g, uint64(spp), present, cls, uint64(k.classes[cls].spp))
			}
		}
	}
	valid := 0
	for i := range k.classes {
		cl := &k.classes[i]
		if cl.valid {
			valid++
			if cl.refs != refs[i] {
				t.Fatalf("class %d refcount %d, but %d mappings point at its frame", i, cl.refs, refs[i])
			}
			if cl.refs <= 0 {
				t.Fatalf("class %d valid with refcount %d", i, cl.refs)
			}
		} else if refs[i] != 0 {
			t.Fatalf("class %d freed while %d mappings still point at it", i, refs[i])
		}
	}
	if k.sharedFrames != valid {
		t.Fatalf("sharedFrames = %d, valid classes = %d", k.sharedFrames, valid)
	}
	r.residentSum(t)
}

// checkNoStaleEntries fails if any CPU's nTLB holds a translation the
// nested page tables no longer agree with — the cross-cutting correctness
// property every protocol must preserve through merge and break remaps.
func checkNoStaleEntries(t *testing.T, r *multiRig, protocol string) {
	t.Helper()
	for cpu := range r.machine.ts {
		vm := r.machine.cpuVM[cpu]
		r.machine.ts[cpu].NTLB.ForEachValid(func(e tstruct.Entry) {
			want, present, ok := r.vms[vm].Nested.Translate(arch.GPP(e.Key))
			if !ok || !present || uint64(want) != e.Val {
				t.Errorf("%s: CPU %d holds stale ntlb entry gpp=%#x spp=%#x",
					protocol, cpu, e.Key, e.Val)
			}
		})
	}
}

// TestKSMInvariantProperty drives randomized interleavings of scan steps
// and guest writes against the dedup scanner under every protocol, and
// sweeps all the refcount, frame-lifetime, residency, and staleness
// invariants as it goes. The high sharing factor and tiny class count
// force heavy multi-VM sharing; the moderate break rate keeps merges and
// breaks racing each other over the same classes.
func TestKSMInvariantProperty(t *testing.T) {
	const pagesA, pagesB, pagesC = 24, 20, 16
	for _, protocol := range []string{"sw", "hatric", "unitd", "ideal"} {
		for _, seed := range []uint64{3, 17, 99} {
			r := newKSMRig(t, protocol, nil, []int{pagesA, pagesB, pagesC},
				KSMConfig{ScanEvery: 1, PagesPerScan: 8, SharingFactor: 0.8,
					BreakRate: 0.5, ClassCount: 3})
			for v, pages := range []int{pagesA, pagesB, pagesC} {
				r.cacheTranslations(t, v, pages)
			}
			rng := xrand.New(seed)
			for op := 0; op < 400; op++ {
				if rng.Intn(3) == 0 {
					r.hyp.KSMScan(rng.Intn(len(r.machine.ts)), arch.Cycles(op))
				} else {
					vm := rng.Intn(len(r.vms))
					gpp := r.gpps[vm][rng.Intn(len(r.gpps[vm]))]
					r.hyp.KSMWriteBreak(r.vms[vm].CPUs[0], vm, gpp, arch.Cycles(op))
				}
				if op%16 == 15 {
					checkKSMInvariants(t, r)
					checkNoStaleEntries(t, r, protocol)
				}
			}
			checkKSMInvariants(t, r)
			checkNoStaleEntries(t, r, protocol)
			rep := r.hyp.KSMReport()
			if rep.Merges == 0 || rep.Breaks == 0 {
				t.Fatalf("%s seed %d: property run exercised nothing (merges=%d breaks=%d)",
					protocol, seed, rep.Merges, rep.Breaks)
			}
		}
	}
}

// TestKSMLastSharerFreesFrame pins the shared-frame lifetime exactly: the
// frame backing a content class survives every break but the last, and is
// returned to the pool at the precise moment its final sharer departs.
// BreakRate 1 makes every guest write a break, so the walk is exhaustive.
func TestKSMLastSharerFreesFrame(t *testing.T) {
	r := newKSMRig(t, "hatric", nil, []int{16, 16},
		KSMConfig{ScanEvery: 1, PagesPerScan: 64, SharingFactor: 1, BreakRate: 1, ClassCount: 2})
	// Scan until the cursor has covered every page twice: every class is
	// registered and every duplicate merged.
	for i := 0; i < 4; i++ {
		r.hyp.KSMScan(0, 0)
	}
	checkKSMInvariants(t, r)
	k := r.hyp.ksm
	for cls := range k.classes {
		cl := &k.classes[cls]
		if !cl.valid {
			t.Fatalf("class %d never formed with sharing factor 1", cls)
		}
		// Collect the sharers, then break them one by one.
		type sharer struct {
			vm  int
			gpp arch.GPP
		}
		var sharers []sharer
		for v, vm := range r.vms {
			for g := uint64(1); g < vm.gppNext; g++ {
				if k.shared[v].has(arch.GPP(g)) && k.classOf[v][g] == int32(cls) {
					sharers = append(sharers, sharer{v, arch.GPP(g)})
				}
			}
		}
		if len(sharers) != cl.refs {
			t.Fatalf("class %d: %d sharers found, refcount %d", cls, len(sharers), cl.refs)
		}
		frame := cl.spp
		for i, s := range sharers {
			free := r.mem.FreeFrames(arch.TierHBM)
			if _, broke := r.hyp.KSMWriteBreak(r.vms[s.vm].CPUs[0], s.vm, s.gpp, 0); !broke {
				t.Fatalf("class %d sharer %d: write did not break at BreakRate 1", cls, i)
			}
			last := i == len(sharers)-1
			if cl.valid == last {
				t.Fatalf("class %d after break %d/%d: valid=%v", cls, i+1, len(sharers), cl.valid)
			}
			// Each break takes one private frame from the pool; the last one
			// also returns the shared frame, exactly balancing it.
			want := free - 1
			if last {
				want = free
			}
			if got := r.mem.FreeFrames(arch.TierHBM); got != want {
				t.Fatalf("class %d after break %d/%d: free frames %d, want %d",
					cls, i+1, len(sharers), got, want)
			}
			checkKSMInvariants(t, r)
		}
		// The freed frame is reusable: the next allocation may hand it out.
		if f, got := r.mem.AllocFrame(arch.TierHBM); !got {
			t.Fatal("pool dry after the last sharer freed the shared frame")
		} else {
			r.mem.FreeFrame(f)
			_ = frame
		}
	}
	if rep := r.hyp.KSMReport(); rep.SharedFrames != 0 || rep.SharedMappings != 0 {
		t.Fatalf("sharing survived exhaustive breaks: %+v", rep)
	}
}

// TestKSMQuotaProtection: a VM at or under its reserved die-stacked share
// never loses frames to the dedup scanner or to a balloon — the same
// guarantee the quota-aware eviction path gives. The unprotected VM keeps
// merging and ballooning normally, so the protection is selective, not a
// global stall.
func TestKSMQuotaProtection(t *testing.T) {
	const pagesA, pagesB = 16, 24
	cfgs := []VMConfig{{ReservedFrames: pagesA}, {}}
	r := newKSMRig(t, "hatric", cfgs, []int{pagesA, pagesB},
		KSMConfig{ScanEvery: 1, PagesPerScan: 64, SharingFactor: 1, BreakRate: 1, ClassCount: 2})
	for i := 0; i < 6; i++ {
		r.hyp.KSMScan(0, 0)
	}
	checkKSMInvariants(t, r)
	if got := r.hyp.ResidentFrames(0); got != pagesA {
		t.Fatalf("protected VM lost frames to merges: resident %d, reserved %d", got, pagesA)
	}
	if k := r.hyp.ksm; k.shared[0].has(r.gpps[0][0]) {
		t.Fatal("protected VM's page joined a shared frame")
	}
	if rep := r.hyp.KSMReport(); rep.Merges == 0 {
		t.Fatal("unprotected VM merged nothing; the protection check is vacuous")
	}
	// A balloon against the protected VM must finish with a full shortfall
	// and take nothing.
	b, err := r.hyp.ScheduleBalloon(BalloonSpec{VM: 0, At: 0, Frames: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; !b.Done(); i++ {
		if i > 100 {
			t.Fatal("balloon never finished")
		}
		r.hyp.PumpBalloons(b.DriverCPU(), arch.Cycles(i))
	}
	rep := b.Report()
	if rep.Reclaimed != 0 || rep.Shortfall != 8 {
		t.Fatalf("balloon took %d frames from a fully reserved VM (shortfall %d)",
			rep.Reclaimed, rep.Shortfall)
	}
	if got := r.hyp.ResidentFrames(0); got != pagesA {
		t.Fatalf("protected VM lost frames to the balloon: resident %d, reserved %d", got, pagesA)
	}
	// The unprotected VM balloons normally. Break a few of its shared pages
	// first: a break re-privatizes the page into the VM's residency and
	// eviction-policy tracking, giving the balloon frames it may take.
	for i := 0; i < 6; i++ {
		if _, broke := r.hyp.KSMWriteBreak(r.vms[1].CPUs[0], 1, r.gpps[1][i], 0); !broke {
			t.Fatalf("write %d did not break at BreakRate 1", i)
		}
	}
	before := r.hyp.ResidentFrames(1)
	b2, err := r.hyp.ScheduleBalloon(BalloonSpec{VM: 1, At: 0, Frames: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; !b2.Done(); i++ {
		if i > 100 {
			t.Fatal("second balloon never finished")
		}
		r.hyp.PumpBalloons(b2.DriverCPU(), arch.Cycles(i))
	}
	if rep := b2.Report(); rep.Reclaimed != 4 {
		t.Fatalf("unprotected balloon reclaimed %d, want 4 (report %+v)", rep.Reclaimed, rep)
	}
	if got := r.hyp.ResidentFrames(1); got != before-4 {
		t.Fatalf("unprotected VM residency %d after balloon, want %d", got, before-4)
	}
	checkKSMInvariants(t, r)
}

// TestKSMMigrationUnshare: when the migration engine moves a shared page,
// the sharer reference is dropped through ksmUnshare instead of freeing a
// frame the dedup table still owns — and the last sharer's migration frees
// the shared frame exactly once.
func TestKSMMigrationUnshare(t *testing.T) {
	const pagesA, pagesB = 12, 12
	r := newKSMRig(t, "hatric", nil, []int{pagesA, pagesB},
		KSMConfig{ScanEvery: 1, PagesPerScan: 64, SharingFactor: 1, BreakRate: 0, ClassCount: 2})
	for i := 0; i < 4; i++ {
		r.hyp.KSMScan(0, 0)
	}
	checkKSMInvariants(t, r)
	if r.hyp.KSMReport().SharedMappings == 0 {
		t.Fatal("nothing shared before the migration")
	}
	m, err := r.hyp.ScheduleMigration(MigrationSpec{VM: 0, At: 0, Dest: arch.TierDRAM, BurstPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	runMigration(t, r, m, nil)
	if !m.Report().Completed {
		t.Fatal("migration incomplete")
	}
	// VM 0 fully evacuated: none of its pages may still be marked shared,
	// and every surviving class is backed only by VM 1 mappings.
	k := r.hyp.ksm
	for g := uint64(1); g < r.vms[0].gppNext; g++ {
		if k.shared[0].has(arch.GPP(g)) {
			t.Fatalf("migrated VM still marked sharing gpp %d", g)
		}
	}
	checkKSMInvariants(t, r)
}
