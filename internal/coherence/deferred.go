package coherence

import (
	"hatric/internal/arch"
	"hatric/internal/cache"
)

// Epoch-deferred coherence for the parallel simulator.
//
// In the sim package's opt-in parallel mode the machine advances in
// fixed-length cycle epochs: within an epoch every pCPU executes on its own
// worker against worker-local state only (private caches, translation
// structures, counters, clocks), and every operation that would touch a
// cross-shard structure — the shared LLC, the coherence directory, the
// memory devices, another CPU's caches or translation structures — is not
// performed but appended to this log. At the epoch barrier each CPU's
// events are merged in (cycle, cpu) order and each event is replayed
// through the unmodified serial Read/Write paths against the then-quiescent
// shared structures. Replay order is a pure function of the per-CPU event
// streams (each already cycle-sorted, because a CPU's clock is monotonic),
// so the merged order — and therefore every directory transition,
// invalidation wave, and translation relay — is independent of how pCPUs
// were sharded across workers.
//
// Storage is one append buffer, a lane, per worker, not one per CPU. A
// worker steps its CPUs one after another and brackets each CPU's epoch
// with Begin/End, so each CPU's events form one contiguous, cycle-sorted
// segment of its worker's lane, and CPU hands that segment to the merge
// unchanged. A lane's capacity therefore follows its worker's busiest
// epoch, not the sum of every CPU's own busiest epoch. Each event is one
// 16-byte record: the cycle, plus one word packing the op, the kind and a
// 48-bit payload. Lanes are padded so that no two share a host cache
// line: two workers append to neighbouring lanes at once, and every
// append writes its lane's length. Reset keeps capacity, so steady-state
// epochs append into existing capacity and the parallel zero-allocation
// gate holds.

// DeferredOp identifies what a logged event defers. Codes below OpSimBase
// are owned by this package (the hierarchy's own shared-state operations);
// the embedding simulator defines its own codes at OpSimBase and above for
// hypervisor work that must also serialize at the barrier (faults, storm
// daemons, copy-on-write breaks, migration dirty tracking).
type DeferredOp uint8

const (
	// OpRead defers a coherent read that missed the private hierarchy.
	OpRead DeferredOp = iota
	// OpWrite defers a coherent write that could not complete privately.
	OpWrite
	// OpTSFill defers NoteTranslationFill (directory sharer-bit update).
	OpTSFill
	// OpTSEvict defers NoteTranslationEviction (eager-mode demotion).
	OpTSEvict

	// OpSimBase is the first op code available to the embedding simulator.
	OpSimBase DeferredOp = 16
)

// PayloadBits is the width of a DeferredEvent's payload: the SPA of a
// hierarchy op, or the simulator-defined argument of an OpSimBase+ op.
const PayloadBits = 48

// MaxPayload is the largest payload a DeferredEvent holds.
const MaxPayload = 1<<PayloadBits - 1

// A DeferredEvent's word is op<<opShift | kind<<PayloadBits | payload.
const opShift = 56

// DeferredEvent is one logged cross-shard effect. Cycle is the issuing
// CPU's clock when the event was logged (the `now` the barrier replay
// uses).
type DeferredEvent struct {
	Cycle arch.Cycles
	word  uint64
}

// Op returns what the event defers.
func (e DeferredEvent) Op() DeferredOp { return DeferredOp(e.word >> opShift) }

// Kind returns the line kind a hierarchy op was issued with.
func (e DeferredEvent) Kind() cache.IsPTKind { return cache.IsPTKind(e.word >> PayloadBits) }

// Payload returns the SPA of a hierarchy op, or the argument of a
// simulator op.
func (e DeferredEvent) Payload() uint64 { return e.word & MaxPayload }

// cacheLine is the host cache-line size the lanes are padded by.
const cacheLine = 64

// deferredLane is one worker's append buffers for an epoch.
type deferredLane struct {
	events []DeferredEvent
	// marks holds order-free words (the simulator's accessed-bit log).
	marks []uint64
	// closed is len(events) at the last End or Reset; Begin checks that
	// nothing was appended since.
	closed int
	_      [cacheLine]byte
}

// span is one CPU's segment of its lane's events.
type span struct{ lo, hi int }

// DeferredLog collects every CPU's deferred events for one epoch, one lane
// per worker. Workers append only to their own lanes, so the log needs no
// locking; the barrier drains it single-threaded.
type DeferredLog struct {
	lanes []deferredLane
	// laneOf maps each CPU to its lane, which is also its worker.
	laneOf []int
	// seg is each CPU's segment of its lane this epoch.
	seg []span
	// last tracks each CPU's most recent operation cycle, so hierarchy
	// entry points without a `now` parameter (NoteTranslationFill,
	// NoteTranslationEviction) can stamp their events with the cycle of
	// the access that triggered them — for a CPU that has done nothing
	// yet this epoch, a cycle from an earlier one.
	last []arch.Cycles
}

// NewDeferredLog builds a log for an ncpus-machine run by `lanes` workers;
// CPU c belongs to lane c mod lanes.
func NewDeferredLog(ncpus, lanes int) *DeferredLog {
	d := &DeferredLog{
		lanes:  make([]deferredLane, lanes),
		laneOf: make([]int, ncpus),
		seg:    make([]span, ncpus),
		last:   make([]arch.Cycles, ncpus),
	}
	for cpu := range d.laneOf {
		d.laneOf[cpu] = cpu % lanes
	}
	return d
}

// Lane returns the lane, and so the worker, that cpu belongs to.
func (d *DeferredLog) Lane(cpu int) int { return d.laneOf[cpu] }

// Begin opens cpu's segment of its lane. It panics if an event reached
// the lane outside a Begin/End bracket, which would land in no CPU's
// segment.
func (d *DeferredLog) Begin(cpu int) {
	l := &d.lanes[d.laneOf[cpu]]
	if len(l.events) != l.closed {
		panic("coherence: deferred event appended outside a Begin/End bracket")
	}
}

// End closes cpu's segment: every event appended to its lane since Begin.
func (d *DeferredLog) End(cpu int) {
	l := &d.lanes[d.laneOf[cpu]]
	d.seg[cpu] = span{l.closed, len(l.events)}
	l.closed = len(l.events)
}

// Stamp records cpu's current cycle for events logged without one.
func (d *DeferredLog) Stamp(cpu int, now arch.Cycles) { d.last[cpu] = now }

// Last returns the most recent cycle stamped for cpu.
func (d *DeferredLog) Last(cpu int) arch.Cycles { return d.last[cpu] }

// Append logs one deferred event on cpu's stream. It panics on a payload
// wider than PayloadBits: sim.New rejects any machine that could build
// one, so only a bug gets here with it.
//
// Called from the parallel per-reference hot path; the append grows each
// lane to its high-water mark during warm-up epochs and then reuses the
// capacity, which is exactly the contract
// sim.TestSteadyStateZeroAllocsParallel gates.
//
//hatric:hotpath
func (d *DeferredLog) Append(cpu int, op DeferredOp, payload uint64, kind cache.IsPTKind, cycle arch.Cycles) {
	if payload > MaxPayload {
		panic("coherence: deferred-event payload exceeds 48 bits")
	}
	l := &d.lanes[d.laneOf[cpu]]
	//hatric:alloc-ok amortized capacity growth during warm-up; steady-state epochs append within capacity (parallel zero-alloc gate)
	l.events = append(l.events, DeferredEvent{
		Cycle: cycle,
		word:  uint64(op)<<opShift | uint64(kind)<<PayloadBits | payload,
	})
}

// Mark logs one order-free word on cpu's lane: an effect the barrier may
// apply in any order, such as setting an accessed bit.
//
//hatric:hotpath
func (d *DeferredLog) Mark(cpu int, w uint64) {
	l := &d.lanes[d.laneOf[cpu]]
	//hatric:alloc-ok amortized capacity growth during warm-up; steady-state epochs append within capacity (parallel zero-alloc gate)
	l.marks = append(l.marks, w)
}

// CPU returns cpu's event stream for this epoch, in log (= cycle) order.
func (d *DeferredLog) CPU(cpu int) []DeferredEvent {
	s := d.seg[cpu]
	return d.lanes[d.laneOf[cpu]].events[s.lo:s.hi]
}

// Lanes returns the number of lanes.
func (d *DeferredLog) Lanes() int { return len(d.lanes) }

// Marks returns the words marked on lane this epoch.
func (d *DeferredLog) Marks(lane int) []uint64 { return d.lanes[lane].marks }

// Capacity returns the event capacity lane holds.
func (d *DeferredLog) Capacity(lane int) int { return cap(d.lanes[lane].events) }

// Reset clears every lane for the next epoch, keeping capacity.
func (d *DeferredLog) Reset() {
	for i := range d.lanes {
		l := &d.lanes[i]
		l.events, l.marks, l.closed = l.events[:0], l.marks[:0], 0
	}
	clear(d.seg)
}
