package hv

import (
	"testing"

	"hatric/internal/arch"
	"hatric/internal/stats"
	"hatric/internal/tstruct"
)

// runMigration pumps the driver until the migration finishes, optionally
// injecting guest writes (to re-dirty copied pages) after each quantum.
func runMigration(t *testing.T, r *migRig, m *Migration, writes func(quantum int)) {
	t.Helper()
	now := arch.Cycles(0)
	for q := 0; !m.Done(); q++ {
		if q > 10_000 {
			t.Fatal("migration never converged")
		}
		lat := r.hyp.PumpMigrations(m.DriverCPU(), now)
		now += lat
		if writes != nil {
			writes(q)
		}
	}
}

// TestMigrationBurstProperty is the burst-case isolation property at the
// hypervisor level, for every protocol: after a whole-VM evacuation to
// off-chip DRAM, (1) every present nested-PT entry of the migrated VM is at
// the destination tier, (2) no CPU's translation structures hold a stale
// pre-migration entry, and (3) the other VM observed zero invalidations,
// flushes, or stall cycles.
func TestMigrationBurstProperty(t *testing.T) {
	const pagesA, pagesB = 24, 12
	for _, protocol := range []string{"sw", "hatric", "hatric-pf", "unitd", "ideal"} {
		t.Run(protocol, func(t *testing.T) {
			r := newMigRig(t, protocol, pagesA, pagesB, ModeInfHBM, ModeInfHBM)
			r.cacheTranslations(t, 0, pagesA)
			r.cacheTranslations(t, 1, pagesB)

			before := make([]cpuState, 4)
			for cpu := 2; cpu <= 3; cpu++ {
				before[cpu] = snapCPU(r.machine.machineStub, cpu)
			}

			m, err := r.hyp.ScheduleMigration(MigrationSpec{
				VM: 0, At: 0, Dest: arch.TierDRAM, BurstPages: 4})
			if err != nil {
				t.Fatal(err)
			}
			// Re-dirty two already-copied pages after the second quantum so
			// the pre-copy loop must run more than one round.
			runMigration(t, r, m, func(q int) {
				if q == 1 {
					for gvp := arch.GVP(0); gvp < 2; gvp++ {
						gpp, _ := r.vms[0].Guests[0].Translate(gvp)
						r.hyp.NoteMigrationWrite(0, 0, gpp)
					}
				}
			})

			rep := m.Report()
			if !rep.Completed {
				t.Fatal("migration not completed")
			}
			if rep.Redirtied < 2 {
				t.Errorf("redirtied = %d, want >= 2", rep.Redirtied)
			}
			if len(rep.Rounds) < 2 || !rep.Rounds[len(rep.Rounds)-1].Final {
				t.Errorf("rounds malformed: %+v", rep.Rounds)
			}
			if rep.PagesCopied < pagesA+2 {
				t.Errorf("pages copied = %d, want >= %d", rep.PagesCopied, pagesA+2)
			}

			// (1) Everything present is at the destination.
			for gvp := arch.GVP(0); gvp < arch.GVP(pagesA); gvp++ {
				gpp, _ := r.vms[0].Guests[0].Translate(gvp)
				spp, present, ok := r.vms[0].Nested.Translate(gpp)
				if !ok || !present {
					t.Fatalf("gpp of gvp %d lost its mapping", gvp)
				}
				if r.mem.Layout.TierOf(spp) != arch.TierDRAM {
					t.Errorf("%s: gvp %d still in %v", protocol, gvp, r.mem.Layout.TierOf(spp))
				}
			}
			// (2) No stale pre-migration entry anywhere.
			for cpu := 0; cpu < 4; cpu++ {
				vm := r.machine.cpuVM[cpu]
				r.machine.ts[cpu].NTLB.ForEachValid(func(e tstruct.Entry) {
					want, present, ok := r.vms[vm].Nested.Translate(arch.GPP(e.Key))
					if !ok || !present || uint64(want) != e.Val {
						t.Errorf("%s: CPU %d holds stale ntlb entry gpp=%#x spp=%#x",
							protocol, cpu, e.Key, e.Val)
					}
				})
			}
			// (3) The other VM is untouched (CrossVMFiltered may advance).
			for cpu := 2; cpu <= 3; cpu++ {
				assertCPUUntouched(t, r.machine.machineStub, cpu, before[cpu], protocol)
			}
		})
	}
}

// cpuState snapshots the isolation-relevant state of one stub CPU.
type cpuState struct {
	valid   int
	charged arch.Cycles
	cnt     stats.Counters
}

func snapCPU(m *machineStub, cpu int) cpuState {
	return cpuState{valid: m.ts[cpu].ValidTotal(), charged: m.charged[cpu], cnt: *m.cnt[cpu]}
}

func assertCPUUntouched(t *testing.T, m *machineStub, cpu int, before cpuState, proto string) {
	t.Helper()
	if got := m.ts[cpu].ValidTotal(); got != before.valid {
		t.Errorf("%s: CPU %d lost entries (%d -> %d) to another VM's migration",
			proto, cpu, before.valid, got)
	}
	if m.charged[cpu] != before.charged {
		t.Errorf("%s: CPU %d stalled %d cycles for another VM's migration",
			proto, cpu, m.charged[cpu]-before.charged)
	}
	c, b := m.cnt[cpu], before.cnt
	if c.VMExits != b.VMExits || c.TLBFlushes != b.TLBFlushes ||
		c.MMUCacheFlushes != b.MMUCacheFlushes || c.NTLBFlushes != b.NTLBFlushes ||
		c.TLBEntriesLost != b.TLBEntriesLost || c.CoTagInvalidations != b.CoTagInvalidations ||
		c.CAMInvalidations != b.CAMInvalidations || c.IPIs != b.IPIs {
		t.Errorf("%s: CPU %d counters moved on another VM's migration:\nbefore %+v\nafter  %+v",
			proto, cpu, b, *c)
	}
}

// TestMigrationPromotionToHBM migrates a DRAM-resident VM into die-stacked
// memory and checks the destination property plus policy tracking (the
// promoted pages become eviction candidates).
func TestMigrationPromotionToHBM(t *testing.T) {
	const pages = 16
	r := newMigRig(t, "hatric", pages, 8, ModeNoHBM, ModeInfHBM)
	r.cacheTranslations(t, 0, pages)
	m, err := r.hyp.ScheduleMigration(MigrationSpec{VM: 0, At: 0, Dest: arch.TierHBM, BurstPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	runMigration(t, r, m, nil)
	for gvp := arch.GVP(0); gvp < pages; gvp++ {
		gpp, _ := r.vms[0].Guests[0].Translate(gvp)
		spp, present, _ := r.vms[0].Nested.Translate(gpp)
		if !present || r.mem.Layout.TierOf(spp) != arch.TierHBM {
			t.Errorf("gvp %d not promoted (present=%v tier=%v)", gvp, present, r.mem.Layout.TierOf(spp))
		}
	}
	if got := r.hyp.Policy(0).Resident(); got != pages {
		t.Errorf("policy tracks %d pages after promotion, want %d", got, pages)
	}
	if m.Report().Downtime == 0 && m.Report().FinalDirty > 0 {
		t.Errorf("nonzero final dirty set with zero downtime")
	}
}

// TestNextVictimVMSkipsMigrating: the round-robin eviction hand must skip a
// VM whose resident set is frozen by an in-flight migration instead of
// spinning on it, and resume considering it once the migration completes.
func TestNextVictimVMSkipsMigrating(t *testing.T) {
	const pagesA, pagesB = 8, 6
	r := newMigRig(t, "sw", pagesA, pagesB, ModeInfHBM, ModeInfHBM)
	// Track every page so both VMs have eviction candidates.
	for vm, pages := range []int{pagesA, pagesB} {
		for gvp := arch.GVP(0); gvp < arch.GVP(pages); gvp++ {
			gpp, _ := r.vms[vm].Guests[0].Translate(gvp)
			r.hyp.Policy(vm).NoteResident(gpp)
		}
	}
	m, err := r.hyp.ScheduleMigration(MigrationSpec{VM: 0, At: 0, Dest: arch.TierDRAM, BurstPages: 2})
	if err != nil {
		t.Fatal(err)
	}
	// One quantum: migration active, VM 0 frozen but still holding pages.
	r.hyp.PumpMigrations(m.DriverCPU(), 0)
	if !r.hyp.Migrating(0) {
		t.Fatal("VM 0 not mid-migration after the first pump")
	}
	if r.hyp.Policy(0).Resident() == 0 {
		t.Fatal("VM 0 has no tracked pages left; the skip is not observable")
	}
	// Every eviction while VM 0 is frozen must come from VM 1.
	a0 := r.hyp.Policy(0).Resident()
	for i := 0; i < pagesB; i++ {
		vm, ok := r.hyp.pickVictimVM(1)
		if !ok {
			t.Fatalf("eviction %d: selector found nothing despite VM 1 pages", i)
		}
		if vm != 1 {
			t.Fatalf("eviction %d: selector picked frozen VM %d", i, vm)
		}
		r.hyp.Policy(1).PickVictim()
	}
	if got := r.hyp.Policy(0).Resident(); got != a0 {
		t.Errorf("frozen VM 0 lost pages: %d -> %d", a0, got)
	}
	// The reclaim path must not fail outright when only a frozen VM holds
	// pages: it falls back to evicting from it (benign for an evacuation —
	// the page lands off-die, where the migration wants it), and the steal
	// is counted rather than silent.
	if got := r.machine.cnt[0].FrozenVMSteals; got != 0 {
		t.Fatalf("FrozenVMSteals = %d before any frozen steal", got)
	}
	if _, err := r.hyp.evictOne(0, 0, 0, true); err != nil {
		t.Fatalf("reclaim failed with only a frozen VM to take from: %v", err)
	}
	if got := r.hyp.Policy(0).Resident(); got != a0-1 {
		t.Errorf("fallback eviction did not come from the frozen VM: %d -> %d", a0, got)
	}
	if got := r.machine.cnt[0].FrozenVMSteals; got != 1 {
		t.Errorf("FrozenVMSteals = %d after a frozen steal, want 1", got)
	}
	if got := r.machine.cnt[0].CrossVMEvictions; got != 0 {
		t.Errorf("CrossVMEvictions = %d for a self-steal (VM 0 reclaiming from itself)", got)
	}
	if got := r.hyp.QoSReport()[0].FrozenSteals; got != 1 {
		t.Errorf("QoSReport FrozenSteals = %d for the frozen victim VM, want 1", got)
	}
	// After the migration completes the selector may consider VM 0 again
	// (its pages moved to DRAM so the tracked set is empty, but a fresh
	// page makes it eligible).
	runMigration(t, r, m, nil)
	r.hyp.Policy(0).NoteResident(arch.GPP(999))
	if vm, ok := r.hyp.pickVictimVM(-1); !ok || vm != 0 {
		t.Errorf("selector skips VM 0 after its migration finished (vm=%d ok=%v)", vm, ok)
	}
}

// TestPumpScanBudget is the burst-pacing regression: a pump quantum whose
// queue is full of already-handled pages (here: every queued page moved to
// the destination tier out-of-band) must stop after the scan budget
// instead of sweeping the entire queue — the bug was that the burst
// budget only decremented on actual moves, so skip-heavy queues defeated
// the BurstPages interleaving knob entirely.
func TestPumpScanBudget(t *testing.T) {
	const pages = 100
	r := newMigRig(t, "hatric", pages, 4, ModeInfHBM, ModeInfHBM)
	m, err := r.hyp.ScheduleMigration(MigrationSpec{VM: 0, At: 0, Dest: arch.TierDRAM, BurstPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	r.hyp.startMigration(m, 0)
	if len(m.queue) != pages {
		t.Fatalf("snapshot has %d pages, want %d", len(m.queue), pages)
	}
	// Move every queued page to the destination behind the engine's back:
	// every queue entry becomes a skip.
	for _, gpp := range m.queue {
		old, _, ok := r.vms[0].Nested.Translate(gpp)
		if !ok {
			t.Fatalf("queued gpp %#x unmapped", uint64(gpp))
		}
		frame, got := r.mem.AllocFrame(arch.TierDRAM)
		if !got {
			t.Fatal("out of DRAM frames")
		}
		if _, err := r.vms[0].Nested.Remap(gpp, frame, true); err != nil {
			t.Fatal(err)
		}
		r.mem.FreeFrame(old)
	}
	before := m.Progress()
	if _, err := r.hyp.pumpOne(m, 0); err != nil {
		t.Fatal(err)
	}
	if want := m.spec.scanBudget(); m.qpos != want {
		t.Errorf("one pump examined %d queue entries, want the scan budget %d (queue %d)",
			m.qpos, want, pages)
	}
	if m.Progress() == before {
		t.Errorf("progress counter did not advance on a scan-only quantum")
	}
	// The engine still terminates: subsequent pumps walk the rest of the
	// queue and converge on an empty stop-and-copy.
	runMigration(t, r, m, nil)
	rep := m.Report()
	if !rep.Completed {
		t.Fatalf("migration did not complete")
	}
	if rep.PagesCopied != 0 {
		t.Errorf("pages copied = %d, want 0 (everything was already at the destination)", rep.PagesCopied)
	}
	if (&MigrationSpec{BurstPages: 4}).scanBudget() != 32 {
		t.Errorf("default scan budget should be 8x the burst")
	}
}

// TestStopAndCopyRequeueCountsRedirtied pins the dirty-set bookkeeping of
// the capacity-error requeue: when the stop-and-copy runs out of
// destination frames mid-freeze, the remaining pages must re-enter the
// dirty set through enqueueDirty, so report.Redirtied and the per-round
// Redirtied stats count them (the bug was a direct re-add that silently
// undercounted both).
func TestStopAndCopyRequeueCountsRedirtied(t *testing.T) {
	r := newMigRig(t, "hatric", 8, 2, ModeNoHBM, ModeInfHBM)
	m, err := r.hyp.ScheduleMigration(MigrationSpec{VM: 0, At: 0, Dest: arch.TierHBM, BurstPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	r.hyp.startMigration(m, 0)
	// Seed a 3-page dirty set (under the stop threshold, so finishRound
	// freezes) without going through enqueueDirty — the baseline Redirtied
	// count stays zero.
	dirty := append([]arch.GPP(nil), m.queue[:3]...)
	m.queue = m.queue[:0]
	m.qpos = 0
	for _, g := range dirty {
		m.dirty.add(g)
		m.dirtyList = append(m.dirtyList, g)
	}
	// Exhaust the destination tier: no free frames, nothing evictable
	// (no policy tracks resident pages), so the first freeze transfer
	// fails on capacity.
	var hoarded []arch.SPP
	for {
		frame, got := r.mem.AllocFrame(arch.TierHBM)
		if !got {
			break
		}
		hoarded = append(hoarded, frame)
	}
	var lat arch.Cycles
	fin, err := r.hyp.finishRound(m, 0, &lat)
	if !fin || err == nil {
		t.Fatalf("freeze should have failed on capacity (fin=%v err=%v)", fin, err)
	}
	rep := m.Report()
	if rep.Completed {
		t.Fatalf("migration completed despite capacity failure")
	}
	if rep.Redirtied != len(dirty) {
		t.Errorf("report.Redirtied = %d, want %d requeued pages counted", rep.Redirtied, len(dirty))
	}
	if got := rep.Rounds[len(rep.Rounds)-1].Redirtied; got != len(dirty) {
		t.Errorf("round Redirtied = %d, want %d", got, len(dirty))
	}
	if len(m.dirtyList) != len(dirty) {
		t.Fatalf("dirty list has %d pages after requeue, want %d", len(m.dirtyList), len(dirty))
	}
	// Free the hoarded frames; the retry completes and the requeue does
	// not double-count.
	for _, f := range hoarded {
		r.mem.FreeFrame(f)
	}
	fin, err = r.hyp.finishRound(m, 0, &lat)
	if !fin || err != nil {
		t.Fatalf("retry failed: fin=%v err=%v", fin, err)
	}
	rep = m.Report()
	if !rep.Completed {
		t.Fatalf("migration did not complete after frames were freed")
	}
	if rep.Redirtied != len(dirty) {
		t.Errorf("Redirtied moved on the successful retry: %d, want %d", rep.Redirtied, len(dirty))
	}
	if rep.FinalDirty != len(dirty) {
		t.Errorf("FinalDirty = %d, want %d", rep.FinalDirty, len(dirty))
	}
}

// TestPolicyForget: both policies drop a page without evicting it.
func TestPolicyForget(t *testing.T) {
	f := NewFIFO()
	f.NoteResident(1)
	f.NoteResident(2)
	f.NoteResident(3)
	f.Forget(2)
	if f.Resident() != 2 {
		t.Errorf("fifo resident = %d", f.Resident())
	}
	if v, _ := f.PickVictim(); v != 1 {
		t.Errorf("fifo order broken after Forget: got %d", v)
	}
	if v, _ := f.PickVictim(); v != 3 {
		t.Errorf("fifo skipped the forgotten page wrong: got %d", v)
	}

	bits := fakeBits{}
	c := NewClock(bits)
	c.NoteResident(1)
	c.NoteResident(2)
	c.NoteResident(3)
	c.Forget(9) // unknown page: no-op
	c.Forget(2)
	if c.Resident() != 2 {
		t.Errorf("clock resident = %d", c.Resident())
	}
	seen := map[arch.GPP]bool{}
	for i := 0; i < 2; i++ {
		v, ok := c.PickVictim()
		if !ok {
			t.Fatal("clock ran dry early")
		}
		seen[v] = true
	}
	if seen[2] || !seen[1] || !seen[3] {
		t.Errorf("clock victims wrong: %v", seen)
	}
}
