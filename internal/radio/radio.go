// Package radio models the sensor node's duty-cycled radio and its
// energy accounting.
//
// The paper measures probing energy Phi as radio on-time (seconds per
// epoch, Table I); this package tracks on-time attributed to probing and
// to data upload separately, and can convert on-time to Joules using a
// CC2420/TelosB-style current model for reports that want absolute
// energy.
package radio

import (
	"fmt"

	"rushprobe/internal/simtime"
)

// State is the radio's operating state.
type State int

// Radio states. Listening and transmitting draw nearly identical current
// on the CC2420 (the SNIP design assumption), so both count as "on".
const (
	Off State = iota + 1
	Listening
	Transmitting
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case Off:
		return "off"
	case Listening:
		return "listening"
	case Transmitting:
		return "transmitting"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Purpose attributes radio on-time to an activity.
type Purpose int

// On-time purposes: probing (duty-cycled beacon/listen, the paper's Phi)
// and upload (data transfer during probed contact time).
const (
	Probing Purpose = iota + 1
	Uploading
)

// PowerModel converts on-time to energy. Values are currents in amperes
// at a supply voltage, the standard way TelosB-class node energy is
// reported.
type PowerModel struct {
	// VoltageV is the supply voltage.
	VoltageV float64
	// ActiveA is the current drawn while the radio is listening or
	// transmitting (CC2420: RX 18.8 mA, TX ~17.4 mA at 0 dBm — close
	// enough that SNIP treats them as equal).
	ActiveA float64
	// SleepA is the current drawn while the radio is off (leakage).
	SleepA float64
}

// TelosB returns the standard TelosB/CC2420 power model.
func TelosB() PowerModel {
	return PowerModel{VoltageV: 3.0, ActiveA: 0.0188, SleepA: 0.0000051}
}

// EnergyJ returns the energy in Joules for the given on-time and
// off-time.
func (p PowerModel) EnergyJ(onSeconds, offSeconds float64) float64 {
	return p.VoltageV * (p.ActiveA*onSeconds + p.SleepA*offSeconds)
}

// Meter accumulates radio on-time by purpose. It is the single source of
// truth for Phi in the simulator.
type Meter struct {
	state      State
	purpose    Purpose
	since      simtime.Instant
	probingS   float64
	uploadingS float64
}

// NewMeter returns a Meter with the radio off at time zero.
func NewMeter() *Meter {
	return &Meter{state: Off}
}

// State returns the current radio state.
func (m *Meter) State() State { return m.state }

// TurnOn switches the radio on at the given instant for the given
// purpose. Turning on an already-on radio re-attributes subsequent
// on-time to the new purpose (accumulating time owed to the old one).
func (m *Meter) TurnOn(at simtime.Instant, st State, purpose Purpose) {
	if st != Listening && st != Transmitting {
		st = Listening
	}
	m.accumulate(at)
	m.state = st
	m.purpose = purpose
	m.since = at
}

// TurnOff switches the radio off at the given instant.
func (m *Meter) TurnOff(at simtime.Instant) {
	m.accumulate(at)
	m.state = Off
	m.since = at
}

// accumulate charges elapsed on-time to the active purpose.
func (m *Meter) accumulate(at simtime.Instant) {
	if m.state == Off {
		return
	}
	elapsed := at.Sub(m.since).Seconds()
	if elapsed <= 0 {
		return
	}
	switch m.purpose {
	case Uploading:
		m.uploadingS += elapsed
	default:
		m.probingS += elapsed
	}
}

// ProbingOnTime returns accumulated probing on-time (Phi) in seconds,
// including any in-progress probing interval up to now.
func (m *Meter) ProbingOnTime(now simtime.Instant) float64 {
	total := m.probingS
	if m.state != Off && m.purpose == Probing {
		if dt := now.Sub(m.since).Seconds(); dt > 0 {
			total += dt
		}
	}
	return total
}

// UploadOnTime returns accumulated upload on-time in seconds, including
// any in-progress upload interval up to now.
func (m *Meter) UploadOnTime(now simtime.Instant) float64 {
	total := m.uploadingS
	if m.state != Off && m.purpose == Uploading {
		if dt := now.Sub(m.since).Seconds(); dt > 0 {
			total += dt
		}
	}
	return total
}

// Snapshot returns both accumulated figures without an open interval
// (call after TurnOff, or accept the closed portion only).
func (m *Meter) Snapshot() (probingS, uploadingS float64) {
	return m.probingS, m.uploadingS
}

// ResetCounters zeroes accumulated on-time (used at epoch boundaries to
// restart per-epoch budget accounting) while preserving radio state. Any
// in-progress interval restarts its attribution at the given instant.
func (m *Meter) ResetCounters(at simtime.Instant) {
	m.accumulate(at)
	m.probingS = 0
	m.uploadingS = 0
	m.since = at
}

// DutyCycler drives a radio on/off with SNIP's fixed Ton and derived
// Toff = Ton/d - Ton. It does not own a clock; the caller (the DES node)
// asks for the schedule. It is a small value type, so building one per
// beacon costs no allocation.
type DutyCycler struct {
	ton  float64
	duty float64
}

// NewDutyCycler returns a cycler with on-period ton (seconds) and duty
// cycle d in (0, 1]. It returns an error for out-of-range parameters.
func NewDutyCycler(ton, d float64) (DutyCycler, error) {
	if ton <= 0 {
		return DutyCycler{}, fmt.Errorf("radio: Ton must be positive, got %g", ton)
	}
	if d <= 0 || d > 1 {
		return DutyCycler{}, fmt.Errorf("radio: duty cycle must be in (0, 1], got %g", d)
	}
	return DutyCycler{ton: ton, duty: d}, nil
}

// Ton returns the on-period in seconds.
func (dc DutyCycler) Ton() simtime.Duration { return simtime.Duration(dc.ton) }

// Duty returns the duty cycle.
func (dc DutyCycler) Duty() float64 { return dc.duty }

// Cycle returns the full cycle length Tcycle = Ton/d.
func (dc DutyCycler) Cycle() simtime.Duration {
	return simtime.Duration(dc.ton / dc.duty)
}

// Toff returns the off-period Tcycle - Ton.
func (dc DutyCycler) Toff() simtime.Duration {
	return dc.Cycle() - dc.Ton()
}
