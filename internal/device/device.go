// Package device models the user equipment (UE): position, transmit power,
// firefly oscillator state, PS counter, service interest, and optional
// mobility. A Device is pure state plus local behaviour — all interaction
// with other devices goes through the rach transport, keeping the protocol
// layers honestly distributed (a device only ever acts on messages it
// received).
package device

import (
	"fmt"

	"repro/internal/geo"
	"repro/internal/oscillator"
	"repro/internal/units"
)

// Service tags a device's application-level interest (the paper: "a device
// search[es] another device with same interest"). Different RACH codec
// schemes indicate different services; two devices discover each other at
// the application level when their Service tags match.
type Service int

// Device is one UE in the simulation.
type Device struct {
	// ID is the device's index in the deployment.
	ID int
	// Pos is the current position in metres.
	Pos geo.Point
	// TxPower is the PS transmit power (Table I: 23 dBm).
	TxPower units.DBm
	// Osc is the firefly oscillator driving PS emission. The paper's
	// "counter [that] increase[s] by a fix rate" and resets on threshold
	// is exactly the oscillator phase.
	Osc *oscillator.Oscillator
	// Service is the device's service interest tag.
	Service Service
}

// String implements fmt.Stringer.
func (d *Device) String() string {
	return fmt.Sprintf("UE%d@%v svc=%d", d.ID, d.Pos, d.Service)
}

// waypointSource is the randomness the random-waypoint model needs.
type waypointSource interface {
	Uniform(lo, hi float64) float64
}

// RandomWaypoint is the classic random-waypoint model, provided for the
// paper's future-work extension ("more realistic scenarios of D2D LTE-A
// networks"): pick a uniform destination in the area, move toward it at the
// given speed, pick a new destination on arrival.
type RandomWaypoint struct {
	// Area bounds the walk.
	Area geo.Rect
	// SpeedPerSlot is the distance covered per slot, in metres (for a
	// 1 ms slot, 0.0014 m/slot ≈ 5 km/h pedestrian speed).
	SpeedPerSlot float64
	// Src supplies destination draws.
	Src waypointSource

	dest    geo.Point
	hasDest bool
}

// NewRandomWaypoint returns a walker over area at the given speed.
func NewRandomWaypoint(area geo.Rect, speedPerSlot float64, src waypointSource) *RandomWaypoint {
	return &RandomWaypoint{Area: area, SpeedPerSlot: speedPerSlot, Src: src}
}

// Step advances the position by one slot and returns the new position,
// clamped into Area.
func (w *RandomWaypoint) Step(cur geo.Point) geo.Point {
	if !w.hasDest || cur.Dist(w.dest) < w.SpeedPerSlot {
		w.dest = geo.Point{
			X: w.Src.Uniform(w.Area.MinX, w.Area.MaxX),
			Y: w.Src.Uniform(w.Area.MinY, w.Area.MaxY),
		}
		w.hasDest = true
	}
	dir := w.dest.Sub(cur).Unit()
	next := cur.Add(dir.Scale(w.SpeedPerSlot))
	return w.Area.Clamp(next)
}
