package hv

import (
	"fmt"

	"hatric/internal/arch"
)

// BalloonSpec configures one balloon inflation: at cycle At the balloon
// driver inside VM VM starts handing die-stacked frames back to the host,
// Frames in total, balloonBurst per pump quantum. Every returned frame goes
// through the quota-aware eviction path (a present-to-not-present remap,
// so translation coherence runs per frame — the balloon storm), and the
// inflation never digs below the VM's reserved share. Without DeflateAt,
// deflation is implicit: the guest refaults the pages on its next touch,
// exactly like any other non-resident page. With DeflateAt set, the
// balloon actively deflates at that cycle: the driver re-faults the VM
// into the frames it gave up, in the order they were reclaimed — the
// return storm mirroring the reclaim storm.
type BalloonSpec struct {
	// VM is the virtual machine whose balloon inflates.
	VM int
	// At is the cycle the inflation is triggered.
	At arch.Cycles
	// Frames is the inflation target: how many die-stacked frames to
	// reclaim.
	Frames int
	// DeflateAt, when nonzero, schedules the deflation: starting at this
	// cycle the driver re-faults the VM into the frames the inflation
	// reclaimed (balloonBurst per quantum), counting each return in
	// BalloonReport.Returned and stats.Counters.BalloonReturns. Zero
	// keeps the legacy inflate-only behavior bit-identically.
	DeflateAt arch.Cycles
}

// balloonBurst bounds a balloon's reclaims (and returns) per pump quantum
// so the storm interleaves with guest execution.
const balloonBurst = 8

// BalloonReport is the outcome of one balloon inflation.
type BalloonReport struct {
	VM     int
	Target int
	// Reclaimed is how many frames the inflation actually returned.
	Reclaimed int
	// Shortfall is Target minus Reclaimed: frames the balloon could not
	// take because the VM hit its reserved share (or ran out of
	// evictable pages). The reservation guarantee is deliberate — a
	// quota-protected VM never balloons below its quota.
	Shortfall         int
	Started, Finished arch.Cycles
	Completed         bool

	// Returned counts frames a scheduled deflation handed back to the VM
	// through the re-fault path (zero without BalloonSpec.DeflateAt).
	Returned int
}

type balloonPhase int

const (
	balloonPending balloonPhase = iota
	balloonInflating
	// balloonInflated waits for DeflateAt (scheduled deflations only).
	balloonInflated
	balloonDeflating
	balloonDone
)

// Balloon is the driver state of one scheduled inflation. Like a
// migration, it is pumped from the simulator's loop on the VM's first CPU
// (the balloon driver vCPU).
type Balloon struct {
	spec   BalloonSpec
	phase  balloonPhase
	driver int
	report BalloonReport

	// evicted records the reclaimed pages in reclaim order (only when a
	// deflation is scheduled); epos is the next page to return.
	evicted []arch.GPP
	epos    int
	// progress advances with every unit of forward progress — reclaims,
	// returns, phase transitions — including progress that consumes no
	// driver cycles (already-resident pages skipped during deflation);
	// the simulator's drain loop keys its stall detection on it.
	progress uint64
}

// Spec returns the balloon's configuration.
func (b *Balloon) Spec() BalloonSpec { return b.spec }

// DriverCPU returns the physical CPU the balloon driver runs on.
func (b *Balloon) DriverCPU() int { return b.driver }

// Done reports whether the inflation has completed.
func (b *Balloon) Done() bool { return b.phase == balloonDone }

// Report returns the inflation's outcome so far.
func (b *Balloon) Report() BalloonReport { return b.report }

// Progress returns a counter that advances with every unit of forward
// progress, including progress that consumes no driver cycles.
func (b *Balloon) Progress() uint64 { return b.progress }

// NextTrigger returns the cycle the balloon is waiting for (its inflate
// or deflate trigger), or 0 when it is actively pumping or done; the
// simulator's drain loop fast-forwards the driver's clock to it.
func (b *Balloon) NextTrigger() arch.Cycles {
	switch b.phase {
	case balloonPending:
		return b.spec.At
	case balloonInflated:
		return b.spec.DeflateAt
	}
	return 0
}

// ScheduleBalloon registers a balloon inflation to be triggered at
// spec.At. The driver vCPU is the VM's first CPU.
func (h *Hypervisor) ScheduleBalloon(spec BalloonSpec) (*Balloon, error) {
	if spec.VM < 0 || spec.VM >= len(h.vms) {
		return nil, fmt.Errorf("hv: balloon on unknown VM %d", spec.VM)
	}
	if spec.Frames <= 0 {
		return nil, fmt.Errorf("hv: balloon needs a positive frame target")
	}
	if len(h.vms[spec.VM].CPUs) == 0 {
		return nil, fmt.Errorf("hv: VM %d has no CPUs to drive a balloon", spec.VM)
	}
	b := &Balloon{
		spec:   spec,
		driver: h.vms[spec.VM].CPUs[0],
		report: BalloonReport{VM: spec.VM, Target: spec.Frames},
	}
	h.balloons = append(h.balloons, b)
	h.unfinishedBalloons++
	return b, nil
}

// UnfinishedBalloons reports how many scheduled inflations have not yet
// completed.
func (h *Hypervisor) UnfinishedBalloons() int { return h.unfinishedBalloons }

// HasBalloons reports whether any balloon is scheduled (done or not).
func (h *Hypervisor) HasBalloons() bool { return len(h.balloons) > 0 }

// Balloons returns every scheduled balloon.
func (h *Hypervisor) Balloons() []*Balloon { return h.balloons }

// BalloonReports returns the report of every scheduled balloon, in
// scheduling order.
func (h *Hypervisor) BalloonReports() []BalloonReport {
	out := make([]BalloonReport, len(h.balloons))
	for i, b := range h.balloons {
		out[i] = b.report
	}
	return out
}

// PumpBalloons advances every balloon whose driver is cpu: it triggers
// pending inflations whose time has come and reclaims up to balloonBurst
// frames per active balloon, each through the targeted eviction path of
// the balloon's own VM. Returns the cycles the driver vCPU stalls.
//
//hatric:hotpath
func (h *Hypervisor) PumpBalloons(cpu int, now arch.Cycles) arch.Cycles {
	var lat arch.Cycles
	for _, b := range h.balloons {
		if b.driver != cpu || b.phase == balloonDone {
			continue
		}
		if b.phase == balloonPending {
			if now < b.spec.At {
				continue
			}
			b.phase = balloonInflating
			b.report.Started = now
		}
		if b.phase == balloonInflating {
			lat += h.pumpBalloon(b, now+lat)
		}
		if b.phase == balloonInflated && now+lat >= b.spec.DeflateAt {
			b.phase = balloonDeflating
			b.progress++
		}
		if b.phase == balloonDeflating {
			lat += h.pumpDeflate(b, now+lat)
		}
	}
	return lat
}

// pumpBalloon performs one burst quantum of inflation b. Each reclaim is a
// targeted eviction of the balloon VM's own pages; reclamation stops — and
// the inflation completes with a shortfall — the moment the VM would drop
// below its reserved share or runs out of evictable pages.
func (h *Hypervisor) pumpBalloon(b *Balloon, now arch.Cycles) arch.Cycles {
	var lat arch.Cycles
	vmIdx := b.spec.VM
	c := h.machine.Counters(b.driver)
	for n := 0; n < balloonBurst; n++ {
		if b.report.Reclaimed >= b.spec.Frames {
			break
		}
		if h.qos.resident[vmIdx] <= h.qos.reserved[vmIdx] {
			h.finishInflate(b, now+lat) // reservation floor: stop here
			return lat
		}
		victim, evLat, err := h.evictFrom(b.driver, vmIdx, vmIdx, now+lat, true)
		if err != nil {
			h.finishInflate(b, now+lat) // nothing evictable left
			return lat
		}
		lat += evLat
		b.report.Reclaimed++
		b.progress++
		c.BalloonReclaims++
		if b.spec.DeflateAt > 0 {
			//hatric:alloc-ok deflation bookkeeping, bounded by the balloon target and amortized across the storm
			b.evicted = append(b.evicted, victim)
		}
	}
	if b.report.Reclaimed >= b.spec.Frames {
		h.finishInflate(b, now+lat)
	}
	return lat
}

// pumpDeflate performs one burst quantum of deflation: the driver
// re-faults the VM into the frames the inflation reclaimed, in reclaim
// order. Pages the guest already re-faulted on its own are skipped — the
// balloon only returns what is still missing.
func (h *Hypervisor) pumpDeflate(b *Balloon, now arch.Cycles) arch.Cycles {
	var lat arch.Cycles
	vmIdx := b.spec.VM
	c := h.machine.Counters(b.driver)
	for n := 0; n < balloonBurst; n++ {
		if b.epos >= len(b.evicted) {
			h.finishBalloon(b, now+lat)
			return lat
		}
		gpp := b.evicted[b.epos]
		b.epos++
		b.progress++
		if _, present, ok := h.vms[vmIdx].Nested.Translate(gpp); !ok || present {
			continue // unmapped, or the guest already re-faulted it in
		}
		fLat, err := h.HandleFault(b.driver, vmIdx, gpp, now+lat)
		lat += fLat
		if err != nil {
			// Out of frames to return into: end the deflation; whatever
			// remains deflates implicitly through guest re-faults.
			h.finishBalloon(b, now+lat)
			return lat
		}
		b.report.Returned++
		c.BalloonReturns++
	}
	if b.epos >= len(b.evicted) {
		h.finishBalloon(b, now+lat)
	}
	return lat
}

// finishInflate ends the reclaim phase: straight to done for the legacy
// inflate-only balloon, or on to the deflation wait when one is
// scheduled.
func (h *Hypervisor) finishInflate(b *Balloon, now arch.Cycles) {
	if b.spec.DeflateAt > 0 {
		b.phase = balloonInflated
		b.progress++
		return
	}
	h.finishBalloon(b, now)
}

func (h *Hypervisor) finishBalloon(b *Balloon, now arch.Cycles) {
	b.phase = balloonDone
	b.report.Shortfall = b.spec.Frames - b.report.Reclaimed
	b.report.Finished = now
	b.report.Completed = true
	b.progress++
	h.unfinishedBalloons--
}
