// Package units provides the physical quantity types and conversions shared
// by the radio, ranging and protocol layers: decibel-milliwatts, milliwatts,
// plain decibel ratios, metres and simulation slots.
//
// Power is carried as dBm throughout the simulator (the natural unit for
// link-budget arithmetic: path loss and shadowing are additive in dB).
// Conversions to and from linear milliwatts are provided for the rare spots
// that need linear combining.
package units

import (
	"fmt"
	"math"
)

// DBm is a power level in decibel-milliwatts.
type DBm float64

// DB is a dimensionless power ratio in decibels (gains and losses).
type DB float64

// MilliWatt is a linear power in milliwatts.
type MilliWatt float64

// Metre is a distance in metres.
type Metre float64

// Slot is a simulation time expressed in integer slots. Table I of the paper
// fixes the slot duration at 1 ms (the LTE slot), so a Slot is also a
// millisecond of simulated time.
type Slot int64

// SlotDuration is the wall-clock meaning of one Slot per Table I.
const SlotDurationMS = 1.0

// MilliWatts converts a dBm level to linear milliwatts.
func (p DBm) MilliWatts() MilliWatt {
	return MilliWatt(math.Pow(10, float64(p)/10))
}

// DBm converts a linear milliwatt power to dBm. Zero or negative power maps
// to -Inf dBm, the additive identity for "no signal".
func (m MilliWatt) DBm() DBm {
	if m <= 0 {
		return DBm(math.Inf(-1))
	}
	return DBm(10 * math.Log10(float64(m)))
}

// Add applies a gain (positive) or loss (negative) in dB to a dBm level.
func (p DBm) Add(g DB) DBm { return p + DBm(g) }

// Sub applies a loss in dB to a dBm level.
func (p DBm) Sub(l DB) DBm { return p - DBm(l) }

// AtLeast reports whether the level meets a detection threshold.
func (p DBm) AtLeast(threshold DBm) bool { return p >= threshold }

func (p DBm) String() string       { return fmt.Sprintf("%.2f dBm", float64(p)) }
func (g DB) String() string        { return fmt.Sprintf("%.2f dB", float64(g)) }
func (m MilliWatt) String() string { return fmt.Sprintf("%.4g mW", float64(m)) }
func (d Metre) String() string     { return fmt.Sprintf("%.2f m", float64(d)) }

// LinearRatio converts a dB ratio to its linear equivalent.
func (g DB) LinearRatio() float64 { return math.Pow(10, float64(g)/10) }

// DBFromLinear converts a linear power ratio to dB. Non-positive ratios map
// to -Inf dB.
func DBFromLinear(r float64) DB {
	if r <= 0 {
		return DB(math.Inf(-1))
	}
	return DB(10 * math.Log10(r))
}
