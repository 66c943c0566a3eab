package coherence

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"hatric/internal/arch"
	"hatric/internal/cache"
)

// logged is one event as a test appended it.
type logged struct {
	cycle   arch.Cycles
	op      DeferredOp
	kind    cache.IsPTKind
	payload uint64
}

// randomEvent draws an event; every fourth one sits at the limits of the
// record's fields.
func randomEvent(rng *rand.Rand) logged {
	if rng.Intn(4) == 0 {
		return logged{math.MaxUint64, math.MaxUint8, cache.KindNestedPT, MaxPayload}
	}
	return logged{
		cycle:   arch.Cycles(rng.Uint64()),
		op:      DeferredOp(rng.Intn(math.MaxUint8 + 1)),
		kind:    cache.IsPTKind(rng.Intn(int(cache.KindNestedPT) + 1)),
		payload: rng.Uint64() & MaxPayload,
	}
}

// checkStreams asserts that CPU(c) returns exactly want[c], in order.
func checkStreams(t *testing.T, d *DeferredLog, want [][]logged) {
	t.Helper()
	for cpu, w := range want {
		got := d.CPU(cpu)
		if len(got) != len(w) {
			t.Fatalf("CPU %d: %d events, want %d", cpu, len(got), len(w))
		}
		for i, ev := range got {
			if g := (logged{ev.Cycle, ev.Op(), ev.Kind(), ev.Payload()}); g != w[i] {
				t.Fatalf("CPU %d event %d: got %+v, want %+v", cpu, i, g, w[i])
			}
		}
	}
}

// TestDeferredLogSegments: 8 CPUs on 2 and on 3 lanes, each lane's CPUs
// bracketed one after another while the lanes interleave, every event
// seeded at random. CPU(c) must hand back exactly c's events in append
// order, each field round-tripped, for several epochs separated by Reset.
func TestDeferredLogSegments(t *testing.T) {
	const ncpus = 8
	for _, lanes := range []int{2, 3} {
		t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(lanes)))
			d := NewDeferredLog(ncpus, lanes)
			for epoch := 0; epoch < 4; epoch++ {
				want := make([][]logged, ncpus)
				// next[l] is the next CPU lane l brackets; -1 once done.
				next := make([]int, lanes)
				for l := range next {
					next[l] = l
					d.Begin(l)
				}
				for open := lanes; open > 0; {
					l := rng.Intn(lanes)
					cpu := next[l]
					if cpu < 0 {
						continue
					}
					if rng.Intn(8) == 0 {
						d.End(cpu)
						if next[l] += lanes; next[l] >= ncpus {
							next[l], open = -1, open-1
						} else {
							d.Begin(next[l])
						}
						continue
					}
					ev := randomEvent(rng)
					d.Append(cpu, ev.op, ev.payload, ev.kind, ev.cycle)
					want[cpu] = append(want[cpu], ev)
				}
				checkStreams(t, d, want)
				d.Reset()
				checkStreams(t, d, make([][]logged, ncpus))
			}
		})
	}
}

// TestDeferredLogConcurrentLanes: one goroutine per lane, as the parallel
// engine's workers run, appending to neighbouring lanes at once. Run under
// -race it checks that lanes share nothing a worker writes.
func TestDeferredLogConcurrentLanes(t *testing.T) {
	const ncpus, lanes, perCPU = 8, 2, 2000
	d := NewDeferredLog(ncpus, lanes)
	var wg sync.WaitGroup
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			for cpu := l; cpu < ncpus; cpu += lanes {
				d.Begin(cpu)
				for i := 0; i < perCPU; i++ {
					d.Stamp(cpu, arch.Cycles(i))
					d.Append(cpu, OpRead, uint64(cpu)<<32|uint64(i), cache.KindData, d.Last(cpu))
					d.Mark(cpu, uint64(cpu))
				}
				d.End(cpu)
			}
		}(l)
	}
	wg.Wait()
	for cpu := 0; cpu < ncpus; cpu++ {
		ev := d.CPU(cpu)
		if len(ev) != perCPU {
			t.Fatalf("CPU %d: %d events, want %d", cpu, len(ev), perCPU)
		}
		for i, e := range ev {
			if e.Payload() != uint64(cpu)<<32|uint64(i) || e.Cycle != arch.Cycles(i) {
				t.Fatalf("CPU %d event %d: payload %#x cycle %d", cpu, i, e.Payload(), e.Cycle)
			}
		}
	}
	for l := 0; l < lanes; l++ {
		if n := len(d.Marks(l)); n != perCPU*ncpus/lanes {
			t.Errorf("lane %d: %d marks, want %d", l, n, perCPU*ncpus/lanes)
		}
	}
}

// TestDeferredLogRejectsMisuse: an event appended outside a Begin/End
// bracket belongs to no CPU's segment, so the lane's next Begin panics;
// a payload wider than PayloadBits panics in Append.
func TestDeferredLogRejectsMisuse(t *testing.T) {
	panics := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	d := NewDeferredLog(4, 2)
	d.Begin(0)
	d.Append(0, OpRead, 1, cache.KindData, 1)
	d.End(0)
	d.Append(2, OpRead, 2, cache.KindData, 2) // lane 0, outside any bracket
	d.Begin(1)                                // lane 1 is untouched
	d.End(1)
	panics("Begin after an unbracketed append", func() { d.Begin(2) })

	d.Reset()
	d.Begin(0)
	panics("Append of a 49-bit payload", func() { d.Append(0, OpWrite, MaxPayload+1, cache.KindData, 0) })
}

// TestDeferredLogReuseAllocatesNothing: once an epoch has grown the
// lanes, an identical epoch after Reset appends within their capacity.
func TestDeferredLogReuseAllocatesNothing(t *testing.T) {
	const ncpus = 8
	d := NewDeferredLog(ncpus, 2)
	epoch := func() {
		for lane := 0; lane < d.Lanes(); lane++ {
			for cpu := lane; cpu < ncpus; cpu += d.Lanes() {
				d.Begin(cpu)
				for i := 0; i < 100*(cpu+1); i++ {
					d.Append(cpu, OpTSFill, uint64(i), cache.KindGuestPT, arch.Cycles(i))
					d.Mark(cpu, uint64(i))
				}
				d.End(cpu)
			}
		}
		d.Reset()
	}
	epoch()
	if n := testing.AllocsPerRun(1, epoch); n != 0 {
		t.Errorf("a repeated epoch allocated %.0f times", n)
	}
}
