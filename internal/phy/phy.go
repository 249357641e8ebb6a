// Package phy models the IEEE 802.11a physical-layer timing used throughout
// the paper's evaluation: 9 µs backoff slots at a 54 Mbps data rate, and the
// per-packet airtimes the paper quotes (≈330 µs for a 1500 B video packet
// plus ACK, ≈120 µs for a 100 B control packet plus ACK, and ≈70 µs for an
// empty priority-claiming frame).
//
// Airtime here means the full channel occupancy attributable to one packet:
// data frame, SIFS, ACK, and the inter-frame guard before the next access.
// The paper folds all of that into a single per-packet figure, and so do we.
package phy

import (
	"fmt"
	"math"

	"rtmac/internal/sim"
)

// IEEE 802.11a OFDM timing constants.
const (
	// SlotTime is one backoff slot (802.11a: 9 µs).
	SlotTime sim.Time = 9
	// SIFS is the short inter-frame space (802.11a: 16 µs).
	SIFS sim.Time = 16
	// DIFS is the distributed inter-frame space: SIFS + 2 slots (34 µs).
	DIFS = SIFS + 2*SlotTime
	// PLCPOverhead is the OFDM preamble plus SIGNAL field (20 µs).
	PLCPOverhead sim.Time = 20
	// OFDMSymbol is the duration of one OFDM symbol (4 µs).
	OFDMSymbol sim.Time = 4
)

// Frame-format constants (bytes).
const (
	// MACDataOverheadBytes is the MAC header (24 B data + 2 B QoS omitted;
	// legacy 802.11a header 24 B + 4 B FCS = 28 B) plus LLC/SNAP (8 B).
	MACDataOverheadBytes = 36
	// ACKBytes is an ACK control frame (14 B including FCS).
	ACKBytes = 14
	// ServiceTailBits is the PLCP SERVICE field (16 bits) plus tail (6 bits)
	// prepended/appended to every PSDU before OFDM encoding.
	ServiceTailBits = 22
)

// FrameAirtime returns the channel time of a single PPDU carrying psduBytes
// at rateMbps, per the 802.11a encoding rules (preamble + ceil(bits/bits-per-
// symbol) OFDM symbols).
func FrameAirtime(psduBytes int, rateMbps float64) sim.Time {
	if psduBytes < 0 {
		panic(fmt.Sprintf("phy: negative frame size %d", psduBytes))
	}
	if rateMbps <= 0 {
		panic(fmt.Sprintf("phy: non-positive rate %v", rateMbps))
	}
	bits := float64(8*psduBytes + ServiceTailBits)
	bitsPerSymbol := rateMbps * float64(OFDMSymbol) // Mbps * µs = bits
	symbols := math.Ceil(bits / bitsPerSymbol)
	return PLCPOverhead + sim.Time(symbols)*OFDMSymbol
}

// ExchangeAirtime returns the full channel occupancy of transmitting one data
// packet with the given payload at rateMbps: data frame, SIFS, ACK (sent at
// the 24 Mbps control rate), and a trailing DIFS guard.
func ExchangeAirtime(payloadBytes int, rateMbps float64) sim.Time {
	data := FrameAirtime(payloadBytes+MACDataOverheadBytes, rateMbps)
	ack := FrameAirtime(ACKBytes, 24)
	return data + SIFS + ack + DIFS
}

// Profile bundles the timing parameters of one workload scenario. The zero
// value is not meaningful; use one of the constructors.
type Profile struct {
	// Name identifies the profile in reports.
	Name string
	// Slot is the backoff slot duration.
	Slot sim.Time
	// DataAirtime is the full channel occupancy of one data packet
	// (data + ACK + guard).
	DataAirtime sim.Time
	// EmptyAirtime is the channel occupancy of an empty priority-claiming
	// packet (no payload, no ACK required).
	EmptyAirtime sim.Time
	// Interval is the per-packet relative deadline T; packets arriving at
	// the start of an interval must be delivered within it.
	Interval sim.Time
}

// Validate reports whether the profile is internally consistent.
func (p Profile) Validate() error {
	switch {
	case p.Slot <= 0:
		return fmt.Errorf("phy: profile %q: slot %v must be positive", p.Name, p.Slot)
	case p.DataAirtime <= 0:
		return fmt.Errorf("phy: profile %q: data airtime %v must be positive", p.Name, p.DataAirtime)
	case p.EmptyAirtime <= 0:
		return fmt.Errorf("phy: profile %q: empty airtime %v must be positive", p.Name, p.EmptyAirtime)
	case p.Interval < p.DataAirtime:
		return fmt.Errorf("phy: profile %q: interval %v shorter than one packet airtime %v",
			p.Name, p.Interval, p.DataAirtime)
	case p.Slot > p.Interval:
		return fmt.Errorf("phy: profile %q: slot %v longer than the interval %v", p.Name, p.Slot, p.Interval)
	case p.EmptyAirtime > p.DataAirtime:
		// An empty frame carries no payload and no ACK. A longer one breaks
		// DB-DP's end-of-interval swap handshake (core panics with an
		// inconsistent swap on the 24-link control network at 330 µs).
		return fmt.Errorf("phy: profile %q: empty airtime %v longer than the data airtime %v",
			p.Name, p.EmptyAirtime, p.DataAirtime)
	}
	return nil
}

// SlotsPerInterval returns how many whole data transmissions fit in one
// interval, ignoring backoff overhead — the "up to 60 transmissions" /
// "16 available transmissions" figures the paper quotes for LDF.
func (p Profile) SlotsPerInterval() int {
	return int(p.Interval / p.DataAirtime)
}

// Video returns the paper's real-time video-delivery profile (§VI-A):
// 1500 B payload, 20 ms deadline, ≈330 µs per packet, so up to 60
// transmissions per interval under a centralized scheduler.
func Video() Profile {
	return Profile{
		Name:         "video",
		Slot:         SlotTime,
		DataAirtime:  330,
		EmptyAirtime: 70,
		Interval:     20 * sim.Millisecond,
	}
}

// Control returns the paper's ultra-low-latency control profile (§VI-B):
// 100 B payload, 2 ms deadline, ≈120 µs per packet, so 16 transmissions per
// interval under a centralized scheduler.
func Control() Profile {
	return Profile{
		Name:         "control",
		Slot:         SlotTime,
		DataAirtime:  120,
		EmptyAirtime: 70,
		Interval:     2 * sim.Millisecond,
	}
}

// Custom returns a profile computed from first principles for the given
// payload, data rate, and deadline. Empty-frame airtime is the no-payload
// exchange without an ACK.
func Custom(name string, payloadBytes int, rateMbps float64, deadline sim.Time) Profile {
	return Profile{
		Name:         name,
		Slot:         SlotTime,
		DataAirtime:  ExchangeAirtime(payloadBytes, rateMbps),
		EmptyAirtime: FrameAirtime(MACDataOverheadBytes, rateMbps) + DIFS,
		Interval:     deadline,
	}
}
