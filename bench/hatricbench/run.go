package main

import "fmt"

// measurement accumulates one workload's runs and failures. Every
// operation (the verification pass, each timed, traced or serial-engine
// run) is one attempt; an attempt that errs or fails a check is one
// failure, and no further attempts follow it.
type measurement struct {
	p                 pair
	v                 verified
	attempted, failed int
	errs              []error

	samples []sample // untraced timed runs, with their set-up times
	traced  []sample // runs under the CPU profiler
	// serial are runs of a parallel workload's cells on the serial engine,
	// with their own fingerprints, for sim.parallel_speedup.
	serial   []sample
	serialFP [2]uint64
	profile  *profileSummary
	genNs    float64
}

func (m *measurement) ok() bool { return m.failed == 0 }

// attempt runs one operation and records its outcome. A panic on the
// calling goroutine is recorded as a failure like an error.
func (m *measurement) attempt(op func() error) bool {
	m.attempted++
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("%s: panic: %v", m.p.name, r)
			}
		}()
		return op()
	}()
	if err != nil {
		m.failed++
		m.errs = append(m.errs, err)
		return false
	}
	return true
}

func (m *measurement) verify() bool {
	return m.attempt(func() (err error) {
		m.v, err = verify(m.p)
		return err
	})
}

// timed makes one timed run, preceded by a batch of set-up timings, so
// that set-up time is sampled over the whole measurement like the runs.
func (m *measurement) timed() {
	m.attempt(func() error {
		setup, err := setupSeconds(m.p)
		if err != nil {
			return err
		}
		s, err := timedRun(m.p, &m.v.fingerprints)
		if err == nil {
			s.SetupS = setup
			m.samples = append(m.samples, s)
		}
		return err
	})
}

// serialRuns is how many serial-engine runs sim.parallel_speedup compares
// a parallel workload's own runs against.
const serialRuns = 2

// parallel reports whether the workload runs on the epoch-barrier engine.
func (m *measurement) parallel() bool { return m.p.cells[0].ParallelCPUs > 0 }

// round makes one round of the traced pass: an untraced run if plain, a
// run under the CPU profiler if traced, and, for a parallel workload, a
// serial-engine run while fewer than serialRuns exist. Putting them in one
// round lets host.trace_overhead and sim.parallel_speedup compare runs
// made under the same host load.
func (m *measurement) round(plain, traced bool) {
	if m.profile == nil {
		m.profile = newProfileSummary()
		m.genNs = genNsPerRef(m.p.cells[0])
	}
	if plain && m.ok() {
		m.timed()
	}
	if traced && m.ok() {
		m.attempt(func() error {
			s, err := profiledRun(m.p, &m.v.fingerprints, m.profile)
			if err == nil {
				m.traced = append(m.traced, s)
			}
			return err
		})
	}
	if m.parallel() && len(m.serial) < serialRuns && m.ok() {
		serial := m.p
		for i := range serial.cells {
			serial.cells[i].ParallelCPUs = 0
		}
		m.attempt(func() error {
			s, err := timedRun(serial, &m.serialFP)
			if err == nil {
				m.serial = append(m.serial, s)
			}
			return err
		})
	}
}

// tracing reports whether the traced pass still needs rounds to reach
// minSamples profile samples and, for a parallel workload, serialRuns
// serial-engine runs.
func (m *measurement) tracing(minSamples float64) bool {
	return m.ok() && (m.profile == nil || m.profile.Samples < minSamples || m.parallel() && len(m.serial) < serialRuns)
}

func values(ss []sample, f func(sample) float64) []float64 {
	vals := make([]float64, len(ss))
	for i, s := range ss {
		vals[i] = f(s)
	}
	return vals
}

func medianOf(ss []sample, f func(sample) float64) float64 { return quartiles(values(ss, f)).Median }

func refsPerSec(s sample) float64 { return s.RefsPerSec }
func setupS(s sample) float64     { return s.SetupS }
func allocMB(s sample) float64    { return s.AllocMB }

// endToEnd returns the host end-to-end metrics, or nil when verification
// failed: medians over the timed runs.
func (m *measurement) endToEnd() []metric {
	if m.v.results[0] == nil {
		return nil
	}
	return []metric{
		{"refs_per_sec", medianOf(m.samples, refsPerSec), "refs/s"},
		{"setup_s", medianOf(m.samples, setupS), "s"},
		{"alloc_mb", medianOf(m.samples, allocMB), "MB"},
	}
}

// perLayer returns the modeled end-to-end results followed by the
// per-layer metrics, or nil when the traced pass did not run. The modeled
// results repeat exactly for a seed but move by tens of percent from seed
// to seed on paging_storm, so they carry no regression bound and are
// reported with the layers.
func (m *measurement) perLayer() []metric {
	sw, hw := m.v.results[0], m.v.results[1]
	if m.profile == nil || sw == nil {
		return nil
	}
	plain := medianOf(m.samples, refsPerSec)
	// A serial workload runs on the serial engine, so its speed-up over
	// that engine is 1 by definition.
	speedup := 1.0
	if m.parallel() {
		speedup = ratio(plain, medianOf(m.serial, refsPerSec))
	}
	out := []metric{
		{"hatric_mcycles", float64(hw.Runtime) / 1e6, "Mcycles"},
		{"hatric_speedup", ratio(float64(sw.Runtime), float64(hw.Runtime)), "x"},
		{"hatric_energy_ratio", ratio(hw.Energy.TotalPJ, sw.Energy.TotalPJ), "x"},
	}
	out = append(out, m.profile.hostLayers()...)
	out = append(out,
		metric{"host.trace_overhead", 1 - ratio(medianOf(m.traced, refsPerSec), plain), "fraction"},
		metric{"workload.gen_ns_per_ref", m.genNs, "ns/ref"},
		metric{"sim.cpu_per_wall", medianOf(m.samples, func(s sample) float64 { return s.CPUPerWall }), "ratio"},
		metric{"sim.parallel_speedup", speedup, "x"},
	)
	for i, proto := range protocols {
		out = append(out, modeledLayers(proto, m.v.results[i])...)
	}
	return out
}

// report assembles the workload's part of the full set's JSON output.
func (m *measurement) report() workloadReport {
	wr := workloadReport{
		Name:         m.p.name,
		Attempted:    m.attempted,
		Failed:       m.failed,
		Fingerprints: map[string]string{},
		Timed:        m.samples,
		RefsPerSec:   quartiles(values(m.samples, refsPerSec)),
		SetupS:       quartiles(values(m.samples, setupS)),
		AllocMB:      quartiles(values(m.samples, allocMB)),
		Traced:       m.traced,
		Serial:       m.serial,
		Profile:      m.profile,
		EndToEnd:     m.endToEnd(),
		PerLayer:     m.perLayer(),
	}
	for _, e := range m.errs {
		wr.Errors = append(wr.Errors, e.Error())
	}
	for i, proto := range protocols {
		wr.Fingerprints[proto] = fmt.Sprintf("%016x", m.v.fingerprints[i])
	}
	wr.EndToEnd = append(wr.EndToEnd, metric{"failed_share", ratio(float64(m.failed), float64(m.attempted)), "fraction"})
	return wr
}
