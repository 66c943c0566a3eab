package hv

import (
	"fmt"

	"hatric/internal/arch"
	"hatric/internal/memdev"
)

// MigrationSpec configures one live migration: which VM moves, when, and
// where. Live migration is the harshest stress the paper's claim faces —
// every resident page of the VM becomes a remap, and each remap runs
// translation coherence, so a whole-VM move is a coherence storm that
// software shootdowns pay as IPIs, VM exits, and wholesale flushes while
// HATRIC pays as precise co-tag invalidations riding ordinary cache
// coherence.
type MigrationSpec struct {
	// VM is the virtual machine to migrate.
	VM int
	// At is the cycle the migration is triggered.
	At arch.Cycles
	// Dest is the destination tier. Migrating to TierDRAM models host
	// evacuation of the die-stacked tier (or, with a link, moving the VM's
	// memory to a remote host whose DRAM backs it); TierHBM promotes a
	// DRAM-resident VM into die-stacked memory. There is no default: the
	// zero MemTier names no tier, so a spec without Dest is rejected.
	Dest arch.MemTier
	// LinkBytesPerCycle, when positive, routes every page copy over a
	// simulated inter-host link with this bandwidth and an unloaded
	// latency of linkLatency (remote live migration). Zero keeps copies
	// between the local devices only.
	LinkBytesPerCycle float64
	// BurstPages is the remap-burst batching knob: at most this many pages
	// are remapped per pump quantum, so the coherence storm interleaves
	// with normal guest execution instead of landing all at once.
	// Zero defaults to 32. It also sets the stop-and-copy threshold: the
	// engine stops the VM and copies the remainder once the dirty set
	// holds at most one burst.
	BurstPages int
	// MaxRounds bounds the pre-copy rounds before the engine forces the
	// stop-and-copy. Zero defaults to 8.
	MaxRounds int
}

// linkLatency is the unloaded latency of a remote migration's link: a few
// microseconds of fabric at GHz clocks.
const linkLatency arch.Cycles = 2000

func (s *MigrationSpec) burst() int {
	if s.BurstPages > 0 {
		return s.BurstPages
	}
	return 32
}

// scanBudget bounds how many queue entries one pump quantum may examine,
// moved or not. Without it, a quantum whose queue is full of
// already-handled pages (evicted behind the snapshot, or already at the
// destination) would scan the entire queue in one pump, defeating the
// BurstPages interleaving.
func (s *MigrationSpec) scanBudget() int {
	return 8 * s.burst()
}

func (s *MigrationSpec) maxRounds() int {
	if s.MaxRounds > 0 {
		return s.MaxRounds
	}
	return 8
}

// RoundStats describes one pre-copy round (or the final stop-and-copy
// round) of a migration.
type RoundStats struct {
	// Pages is the number of pages remapped (and copied) this round.
	Pages int
	// Redirtied is the number of pages dirtied by guest writes (or newly
	// faulted in) while this round ran; they seed the next round.
	Redirtied int
	// Cycles is the driver time the round consumed.
	Cycles arch.Cycles
	// Final marks the stop-and-copy round (its Cycles are the downtime).
	Final bool
}

// MigrationReport is the outcome of one migration, kept per-round so the
// convergence behavior (and the coherence storm each round unleashes) stays
// observable.
type MigrationReport struct {
	VM     int
	Dest   arch.MemTier
	Remote bool
	// Started and Finished bracket the migration on the driver's clock.
	Started, Finished arch.Cycles
	Rounds            []RoundStats
	// PagesCopied totals page transfers across all rounds (a page copied
	// in three rounds counts three times).
	PagesCopied int
	// Redirtied totals pages re-dirtied during the migration.
	Redirtied int
	// Downtime is the stop-and-copy freeze in cycles: every vCPU of the VM
	// stalls this long while the final dirty set moves and its translation
	// coherence completes.
	Downtime arch.Cycles
	// FinalDirty is the number of pages moved during the freeze.
	FinalDirty int
	Completed  bool

	// LinkRetries counts pump quanta that found the migration link down
	// and backed off (fault injection; see internal/faults).
	LinkRetries int
	// OutageCycles totals the backoff waits those outages cost the driver.
	OutageCycles arch.Cycles
	// EarlyStopCopy records that the engine gave up on pre-copy
	// convergence early — the dirty set stopped shrinking under link
	// outages — and degraded to the stop-and-copy before the round budget
	// ran out.
	EarlyStopCopy bool
	// LastError surfaces the most recent pump failure ("" once the
	// migration progresses again or completes), so transient destination
	// exhaustion is visible in Result.Migrations instead of only through
	// the Migration accessor.
	LastError string
}

// migrationPhase is the engine's state machine.
type migrationPhase int

const (
	migrationPending migrationPhase = iota
	migrationPreCopy
	migrationDone
)

// Migration is the live-migration driver for one VM: a pre-copy loop over
// the VM's resident set, a write-tracked dirty set, and a final
// stop-and-copy whose downtime is measured in cycles. The engine is pumped
// from the simulator's scheduling loop on the driver vCPU (the first CPU of
// the VM, which doubles as the hypervisor's migration thread), BurstPages
// remaps at a time.
type Migration struct {
	spec   MigrationSpec
	phase  migrationPhase
	driver int

	// queue is the current round's work list; qpos the next page to move.
	queue []arch.GPP
	qpos  int
	// pending marks pages queued but not yet moved this round: writes to
	// them need no retransfer (the upcoming copy picks the new bytes up).
	// The GPP space is dense per VM, so page bitmaps replace the old
	// map-based sets: smaller, hash-free, and allocation-free across
	// rounds once grown to the VM's footprint.
	pending gppSet
	// copied marks pages transferred at least once; only writes to these
	// re-dirty.
	copied gppSet
	// dirty/dirtyList collect the next round's work in deterministic
	// (insertion) order.
	dirty     gppSet
	dirtyList []arch.GPP

	round  int
	link   *memdev.Device
	report MigrationReport

	// progress advances whenever the engine makes forward progress a
	// latency charge would not reveal (queue position, round, or phase
	// changes); the simulator's drain loop uses it to tell a
	// scan-limited-but-advancing pump from a genuine stall.
	progress uint64

	// lastErr remembers the most recent pump failure (destination
	// capacity exhaustion) for diagnosis when the migration cannot make
	// progress at all.
	lastErr error

	// outageStreak counts consecutive pump quanta the link was down; the
	// backoff doubles with it and a healthy pump resets it.
	outageStreak int
	// lastDirty and stallRounds track pre-copy convergence under link
	// faults: when the dirty set stops shrinking for consecutive rounds,
	// the engine degrades to an early stop-and-copy instead of burning
	// the whole round budget re-copying into outages.
	lastDirty   int
	stallRounds int
}

// Spec returns the migration's configuration.
func (m *Migration) Spec() MigrationSpec { return m.spec }

// DriverCPU returns the physical CPU the migration thread runs on.
func (m *Migration) DriverCPU() int { return m.driver }

// Done reports whether the migration has completed.
func (m *Migration) Done() bool { return m.phase == migrationDone }

// Started reports whether pre-copy has begun.
func (m *Migration) Started() bool { return m.phase != migrationPending }

// Report returns the migration's outcome so far.
func (m *Migration) Report() MigrationReport { return m.report }

// Progress returns a counter that advances with every unit of forward
// progress (pages examined, rounds closed, phase transitions), including
// progress that consumes no driver cycles.
func (m *Migration) Progress() uint64 { return m.progress }

// LastError returns the most recent pump failure, if any (nil once the
// migration progresses again).
func (m *Migration) LastError() error { return m.lastErr }

// noteWrite records a guest write to gpp during the migration and reports
// whether the page joined the dirty set. Pages whose transfer is still
// ahead in the current round need nothing (the copy picks the write up);
// pages already transferred must go again next round.
func (m *Migration) noteWrite(gpp arch.GPP) bool {
	if m.phase != migrationPreCopy || m.pending.has(gpp) || m.dirty.has(gpp) {
		return false
	}
	if !m.copied.has(gpp) {
		return false
	}
	m.enqueueDirty(gpp)
	return true
}

// addPage enrolls a page that became resident after the snapshot (a demand
// fault during the migration): it must still be transferred.
func (m *Migration) addPage(gpp arch.GPP) {
	if m.phase != migrationPreCopy || m.pending.has(gpp) || m.dirty.has(gpp) {
		return
	}
	m.enqueueDirty(gpp)
}

func (m *Migration) enqueueDirty(gpp arch.GPP) {
	m.dirty.add(gpp)
	//hatric:alloc-ok dirty-list growth is bounded by the migration set and amortized across the storm
	m.dirtyList = append(m.dirtyList, gpp)
	m.report.Redirtied++
	if n := len(m.report.Rounds); n > 0 {
		m.report.Rounds[n-1].Redirtied++
	}
}

// ScheduleMigration registers a live migration to be triggered at
// spec.At. The driver vCPU is the VM's first CPU.
func (h *Hypervisor) ScheduleMigration(spec MigrationSpec) (*Migration, error) {
	if spec.VM < 0 || spec.VM >= len(h.vms) {
		return nil, fmt.Errorf("hv: migration of unknown VM %d", spec.VM)
	}
	if spec.Dest != arch.TierHBM && spec.Dest != arch.TierDRAM {
		return nil, fmt.Errorf("hv: migration of VM %d: Dest must name a tier, hbm or dram (got %d)", spec.VM, int(spec.Dest))
	}
	if len(h.vms[spec.VM].CPUs) == 0 {
		return nil, fmt.Errorf("hv: VM %d has no CPUs to drive a migration", spec.VM)
	}
	m := &Migration{
		spec:   spec,
		driver: h.vms[spec.VM].CPUs[0],
		report: MigrationReport{
			VM: spec.VM, Dest: spec.Dest, Remote: spec.LinkBytesPerCycle > 0,
		},
	}
	if spec.LinkBytesPerCycle > 0 {
		m.link = memdev.NewDevice(arch.TierDRAM, linkLatency, spec.LinkBytesPerCycle)
	}
	h.migrations = append(h.migrations, m)
	h.unfinishedMigrations++
	return m, nil
}

// UnfinishedMigrations reports how many scheduled migrations have not yet
// completed.
func (h *Hypervisor) UnfinishedMigrations() int { return h.unfinishedMigrations }

// Migrations returns every scheduled migration.
func (h *Hypervisor) Migrations() []*Migration { return h.migrations }

// HasMigrations reports whether any migration is scheduled (done or not);
// the simulator uses it to keep the no-migration hot path untouched.
func (h *Hypervisor) HasMigrations() bool { return len(h.migrations) > 0 }

// Migrating reports whether vm is mid-migration: its resident set is
// frozen (the eviction hand skips it) and its writes are dirty-tracked.
func (h *Hypervisor) Migrating(vm int) bool {
	for _, m := range h.migrations {
		if m.spec.VM == vm && m.phase == migrationPreCopy {
			return true
		}
	}
	return false
}

// MigrationReports returns the report of every scheduled migration, in
// scheduling order.
func (h *Hypervisor) MigrationReports() []MigrationReport {
	out := make([]MigrationReport, len(h.migrations))
	for i, m := range h.migrations {
		out[i] = m.report
	}
	return out
}

// NoteMigrationWrite records a guest write by cpu on a page of vm for
// dirty tracking. No-op unless vm is mid-migration.
//
//hatric:hotpath
func (h *Hypervisor) NoteMigrationWrite(cpu, vm int, gpp arch.GPP) {
	for _, m := range h.migrations {
		if m.spec.VM == vm && m.phase == migrationPreCopy && m.noteWrite(gpp) {
			h.machine.Counters(cpu).MigrationRedirtied++
		}
	}
}

// PumpMigrations advances every migration whose driver is cpu: triggers
// pending migrations whose time has come and performs up to BurstPages
// remaps per active migration. It returns the cycles the driver vCPU
// stalls (the migration thread runs on it); target-side coherence costs
// land on the VM's other vCPUs through the protocol as usual.
//
//hatric:hotpath
func (h *Hypervisor) PumpMigrations(cpu int, now arch.Cycles) arch.Cycles {
	var lat arch.Cycles
	for _, m := range h.migrations {
		if m.driver != cpu || m.phase == migrationDone {
			continue
		}
		if m.phase == migrationPending {
			if now < m.spec.At {
				continue
			}
			h.startMigration(m, now)
		}
		// Fault injection: the link may be down for this quantum. The
		// driver backs off (exponentially across consecutive outages) and
		// retries; dirty tracking is untouched, so no progress is lost —
		// but the dirty set keeps growing while the link is out, which is
		// what the early-stop-and-copy degradation below guards against.
		if h.inj.LinkDown() {
			wait := h.inj.LinkOutage(m.outageStreak)
			m.outageStreak++
			m.report.LinkRetries++
			m.report.OutageCycles += wait
			h.machine.Counters(cpu).MigrationLinkRetries++
			m.progress++
			lat += wait
			continue
		}
		m.outageStreak = 0
		l, err := h.pumpOne(m, now+lat)
		m.lastErr = err
		if err != nil {
			// Out of destination frames: abandon this burst; the next pump
			// retries after the fault path has freed capacity. The report
			// mirrors the failure so campaign results surface it even when
			// the caller only keeps Result.Migrations.
			m.report.LastError = err.Error()
			lat += l
			continue
		}
		m.report.LastError = ""
		lat += l
	}
	return lat
}

// startMigration snapshots the VM's resident set: every present nested-PT
// leaf mapping a data page outside the destination tier. Page-table heap
// frames are pinned and never move.
func (h *Hypervisor) startMigration(m *Migration, now arch.Cycles) {
	vm := h.vms[m.spec.VM]
	m.phase = migrationPreCopy
	m.report.Started = now
	m.queue = m.queue[:0]
	for g := uint64(1); g < vm.gppNext; g++ {
		gpp := arch.GPP(g)
		spp, present, ok := vm.Nested.Translate(gpp)
		if !ok || !present {
			continue
		}
		if vm.OwnsPTPage(spp) {
			continue // pinned page-table page
		}
		if h.mem.Layout.TierOf(spp) == m.spec.Dest {
			continue
		}
		//hatric:alloc-ok one-time queue build at storm start, not per-reference work
		m.queue = append(m.queue, gpp)
		m.pending.add(gpp)
	}
	m.qpos = 0
	m.round = 1
	m.progress++
	//hatric:alloc-ok per-round report bookkeeping, a handful of entries per storm
	m.report.Rounds = append(m.report.Rounds, RoundStats{})
}

// pumpOne performs one burst quantum of migration m and returns the driver
// cycles consumed. A quantum ends when BurstPages pages have moved — or
// when scanBudget queue entries have been examined, whichever comes first,
// so a stretch of already-handled pages cannot turn one quantum into a
// whole-queue sweep. Round cycle attribution is kept exact across round
// boundaries inside a quantum: each round receives only the latency
// accrued while it was current.
func (h *Hypervisor) pumpOne(m *Migration, now arch.Cycles) (arch.Cycles, error) {
	var lat, attributed arch.Cycles
	//hatric:alloc-ok non-escaping closure; called inline within this quantum only
	flush := func() {
		m.report.Rounds[len(m.report.Rounds)-1].Cycles += lat - attributed
		attributed = lat
	}
	budget := m.spec.burst()
	scan := m.spec.scanBudget()
	for budget > 0 && scan > 0 {
		if m.qpos >= len(m.queue) {
			flush()
			fin, err := h.finishRound(m, now+lat, &lat)
			if err != nil || fin {
				return lat, err
			}
			attributed = lat // the new round starts accruing from here
			continue
		}
		gpp := m.queue[m.qpos]
		l, moved, err := h.migratePage(m, gpp, now+lat, m.round > 1)
		if err != nil {
			// Destination capacity ran dry: leave the page queued and let
			// the next pump retry after the fault path freed frames.
			lat += l
			flush()
			return lat, err
		}
		m.qpos++
		m.progress++
		m.pending.remove(gpp)
		lat += l
		scan--
		if moved {
			m.copied.add(gpp)
			m.report.PagesCopied++
			m.report.Rounds[len(m.report.Rounds)-1].Pages++
			budget--
		}
	}
	flush()
	return lat, nil
}

// finishRound closes the current round. It either converges into the
// stop-and-copy (freezing the VM) or promotes the dirty set to the next
// round's queue. fin reports that this pump quantum is over.
func (h *Hypervisor) finishRound(m *Migration, now arch.Cycles, lat *arch.Cycles) (bool, error) {
	c := h.machine.Counters(m.driver)
	// Convergence watchdog, active only when link outages are configured
	// (fault-free runs keep the legacy round count exactly): a dirty set
	// that has stopped shrinking for two consecutive rounds means outages
	// are eating the copy bandwidth faster than pre-copy drains it, so
	// another round would only re-dirty more pages. Degrade gracefully to
	// the stop-and-copy now rather than burning the round budget.
	stuck := false
	if h.inj.LinkFaults() {
		if m.round >= 2 && len(m.dirtyList) >= m.lastDirty {
			m.stallRounds++
		} else {
			m.stallRounds = 0
		}
		m.lastDirty = len(m.dirtyList)
		stuck = m.stallRounds >= 2
	}
	if !stuck && len(m.dirtyList) > m.spec.burst() && m.round < m.spec.maxRounds() {
		// Another pre-copy round over the dirty set.
		//hatric:alloc-ok reuses the queue's capacity; grows only while the dirty set still grows
		m.queue = append(m.queue[:0], m.dirtyList...)
		m.qpos = 0
		for _, g := range m.queue {
			m.pending.add(g)
		}
		m.dirtyList = m.dirtyList[:0]
		m.dirty.clear()
		m.round++
		m.progress++
		c.MigrationRounds++
		//hatric:alloc-ok per-round report bookkeeping, a handful of entries per storm
		m.report.Rounds = append(m.report.Rounds, RoundStats{})
		return false, nil
	}

	// Stop-and-copy: the VM freezes while the remaining dirty pages move
	// and their translation coherence completes. The freeze is the
	// downtime; every vCPU of the VM pays it.
	if stuck && m.round < m.spec.maxRounds() {
		m.report.EarlyStopCopy = true
	}
	var down arch.Cycles
	//hatric:alloc-ok one stop-and-copy snapshot per migration, not per-reference work
	final := append([]arch.GPP(nil), m.dirtyList...)
	m.dirtyList = m.dirtyList[:0]
	m.dirty.clear()
	for i, gpp := range final {
		l, moved, err := h.migratePage(m, gpp, now+down, true)
		if err != nil {
			// Capacity ran dry mid-freeze: charge the partial freeze to
			// the driver, requeue the rest, and retry on a later pump.
			// The requeue goes through enqueueDirty — the one dirty-set
			// bookkeeping path — so report.Redirtied and the per-round
			// Redirtied stats count these re-entries like any other.
			*lat += down + l
			for _, g := range final[i:] {
				if !m.dirty.has(g) {
					m.enqueueDirty(g)
				}
			}
			return true, err
		}
		down += l
		if moved {
			m.report.PagesCopied++
			m.report.FinalDirty++
		}
	}
	//hatric:alloc-ok final-round report bookkeeping, once per migration
	m.report.Rounds = append(m.report.Rounds,
		RoundStats{Pages: m.report.FinalDirty, Cycles: down, Final: true})
	m.report.Downtime = down
	m.report.Finished = now + down
	m.report.Completed = true
	m.phase = migrationDone
	m.progress++
	h.unfinishedMigrations--
	*lat += down
	c.MigrationRounds++ // the final round counts too
	c.MigrationsCompleted++
	c.MigrationDowntimeCycles += uint64(down)
	for _, t := range h.vms[m.spec.VM].CPUs {
		if t != m.driver {
			h.machine.Charge(t, down)
		}
	}
	return true, nil
}

// migratePage remaps one page of the migrating VM to the destination tier
// through remap, like every other remap. moved is false when the page no
// longer needs a transfer (evicted, or already at the destination since
// it was queued). force re-copies a page even if it already sits in the
// destination tier: a re-dirtied page's earlier transfer raced a guest
// write, so the engine discards the stale copy, transfers again into a
// fresh frame, and flips the translation again — which is what keeps the
// remap burst (and its coherence storm) honest in every round, not just
// the first.
func (h *Hypervisor) migratePage(m *Migration, gpp arch.GPP, now arch.Cycles, force bool) (arch.Cycles, bool, error) {
	vm := h.vms[m.spec.VM]
	oldSPP, present, ok := vm.Nested.Translate(gpp)
	if !ok || !present {
		return 0, false, nil
	}
	fromTier := h.mem.Layout.TierOf(oldSPP)
	if fromTier == m.spec.Dest && !force {
		return 0, false, nil
	}
	var lat arch.Cycles
	// Destination capacity: promoting into the die-stacked tier may need
	// evictions, which the hand takes from the *other* VMs (the migrating
	// VM's resident set is frozen).
	for m.spec.Dest == arch.TierHBM && h.mem.FreeFrames(arch.TierHBM) == 0 {
		evLat, err := h.evictOne(m.driver, m.spec.VM, now+lat, true)
		if err != nil {
			return lat, false, err
		}
		lat += evLat
	}
	frame, got := h.mem.AllocFrame(m.spec.Dest)
	if !got {
		//hatric:alloc-ok cold error exit; destination-tier exhaustion ends the storm
		return lat, false, fmt.Errorf("hv: migration out of %v frames", m.spec.Dest)
	}
	lat += h.mem.CopyPage(now+lat, oldSPP, frame)
	if m.link != nil {
		// Remote migration: the page also crosses the inter-host link.
		lat += m.link.Access(now+lat, arch.PageSize)
	}
	// A KSM-shared page's old frame belongs to the shared-frame table:
	// dropping this VM's sharer reference (which frees the frame only when
	// it was the last) replaces the direct free, and the migrated copy is
	// a private page again.
	wasShared := h.ksmUnshare(m.spec.VM, gpp)
	if !wasShared {
		h.mem.FreeFrame(oldSPP)
	}
	pteSPA, err := vm.Nested.Remap(gpp, frame, true)
	if err != nil {
		return lat, false, err
	}
	// The remap of a present page: stale translations may be cached
	// anywhere on the chip, so translation coherence runs — the storm the
	// experiment measures.
	h.machine.Counters(m.driver).MigrationPagesCopied++
	lat += h.remap(m.driver, vm.ID, pteSPA, now+lat)
	// Policy bookkeeping and share accounting follow the tier transition
	// (a forced re-copy within the destination tier changes nothing). A
	// page unshared by the move was never in the VM's private residency,
	// so it only re-enters when the private copy lands die-stacked.
	if wasShared {
		if m.spec.Dest == arch.TierHBM {
			h.policies[m.spec.VM].NoteResident(gpp)
			h.qos.resident[m.spec.VM]++
		}
	} else if m.spec.Dest == arch.TierHBM && fromTier != arch.TierHBM {
		h.policies[m.spec.VM].NoteResident(gpp)
		h.qos.resident[m.spec.VM]++
	} else if m.spec.Dest == arch.TierDRAM && fromTier == arch.TierHBM {
		h.policies[m.spec.VM].Forget(gpp)
		h.qos.resident[m.spec.VM]--
	}
	return lat, true, nil
}
