package core

import (
	"testing"

	"hatric/internal/arch"
	"hatric/internal/coherence"
	"hatric/internal/faults"
)

// TestSoftwareIPIRetryStorm pins the sw fault site's cost model: at loss
// rate 1.0 every cross-CPU IPI is dropped MaxRetries times, each retry
// charging the initiator a backed-off timeout plus a re-send, with the
// loss and retry counters tracking every event.
func TestSoftwareIPIRetryStorm(t *testing.T) {
	const timeout = arch.Cycles(1_000)
	const retries = 3
	m := newFakeMachine(4)
	m.inj = faults.NewInjector(faults.Config{
		IPILossRate: 1, IPITimeoutCycles: timeout, MaxRetries: retries,
	}, 1)
	base := NewSoftware(newFakeMachine(4)).OnRemap(0, 0)
	init := NewSoftware(m).OnRemap(0, 0)

	ic := m.cnt[0]
	targets := uint64(3) // 4 CPUs, initiator flushes locally
	if ic.IPIsLost != targets*retries || ic.ShootdownRetries != targets*retries {
		t.Errorf("lost=%d retries=%d, want %d each", ic.IPIsLost, ic.ShootdownRetries, targets*retries)
	}
	if want := targets + targets*retries; ic.IPIs != want {
		t.Errorf("IPIs = %d, want %d (originals + re-sends)", ic.IPIs, want)
	}
	// Per target: timeout + 2*timeout + 4*timeout backoff, plus a re-send
	// charge per retry.
	perTarget := timeout + 2*timeout + 4*timeout + arch.Cycles(retries)*m.cost.IPISendPerTarget
	if want := base + 3*perTarget; init != want {
		t.Errorf("initiator cycles = %d, want %d (base %d + retry storms %d)",
			init, want, base, 3*perTarget)
	}
}

// TestSoftwareRetryBounded: the retry loop stops re-sending once delivery
// succeeds, so at rate zero the fault path is entirely inert even with an
// injector present (another site enabled).
func TestSoftwareRetryBounded(t *testing.T) {
	m := newFakeMachine(4)
	m.inj = faults.NewInjector(faults.Config{AckLossRate: 1}, 1) // IPI site off
	base := NewSoftware(newFakeMachine(4)).OnRemap(0, 0)
	init := NewSoftware(m).OnRemap(0, 0)
	if init != base {
		t.Errorf("IPI site at rate 0 changed the cost: %d vs %d", init, base)
	}
	if m.cnt[0].IPIsLost != 0 || m.cnt[0].ShootdownRetries != 0 {
		t.Errorf("IPI site at rate 0 moved counters")
	}
}

// TestHATRICAckReissue pins the hatric fault site: a lost invalidation
// acknowledgment makes the directory reissue the relay after its ack
// timeout, charging the target the wait plus a directory round trip.
func TestHATRICAckReissue(t *testing.T) {
	const ackTO = arch.Cycles(500)
	for _, variant := range []string{"hatric", "hatric-pf"} {
		m := newFakeMachine(2)
		m.inj = faults.NewInjector(faults.Config{AckLossRate: 1, AckTimeoutCycles: ackTO}, 1)
		fillAll(m, 1, 0x100)
		p := mustNew(t, variant, m)
		p.(coherence.TranslationHook).OnPTInvalidation(1, arch.SPA(1<<3))
		c := m.cnt[1]
		if c.AcksLost != 1 || c.RelayReissues != 1 {
			t.Errorf("%s: lost=%d reissues=%d, want 1 each", variant, c.AcksLost, c.RelayReissues)
		}
		if want := ackTO + 2*m.cost.DirHop; m.charged[1] != want {
			t.Errorf("%s: target charged %d, want %d", variant, m.charged[1], want)
		}
	}
}

// TestFaultFreeProtocolsInert: with no injector the fault branches cost
// nothing and move nothing — the provably-inert contract at the protocol
// layer.
func TestFaultFreeProtocolsInert(t *testing.T) {
	m := newFakeMachine(2)
	fillAll(m, 1, 0x100)
	NewSoftware(m).OnRemap(0, 0)
	h := NewHATRIC(m, 2)
	h.OnPTInvalidation(1, arch.SPA(1<<3))
	for cpu := 0; cpu < 2; cpu++ {
		c := m.cnt[cpu]
		if c.IPIsLost+c.ShootdownRetries+c.AcksLost+c.RelayReissues != 0 {
			t.Errorf("cpu %d: fault counters moved without an injector", cpu)
		}
	}
}
