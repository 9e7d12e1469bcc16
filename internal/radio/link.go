package radio

import (
	"math"

	"repro/internal/units"
)

// Thermal-noise and SINR helpers. The paper detects a PS against a flat
// −95 dBm threshold (Table I); these helpers ground that number: −95 dBm is
// within a couple of dB of the thermal noise floor of an LTE PRACH
// occasion (1.08 MHz) plus a 9 dB UE noise figure plus a modest detection
// SNR, so the flat threshold and an SINR-based detector nearly coincide in
// the interference-free case. The SINR path is used by the interference
// studies.

// BoltzmannNoiseDBmPerHz is thermal noise density kT at 290 K in dBm/Hz.
const BoltzmannNoiseDBmPerHz = -174.0

// NoiseFloor returns the thermal noise power over the given bandwidth with
// the given receiver noise figure.
func NoiseFloor(bandwidthHz, noiseFigureDB float64) units.DBm {
	return units.DBm(BoltzmannNoiseDBmPerHz + 10*math.Log10(bandwidthHz) + noiseFigureDB)
}

// PRACHBandwidthHz is the LTE PRACH occasion bandwidth (6 resource blocks).
const PRACHBandwidthHz = 1.08e6

// SINR computes the signal-to-interference-plus-noise ratio of a wanted
// signal against a set of interferer powers and a noise floor, combining in
// the linear domain.
func SINR(signal units.DBm, interferers []units.DBm, noise units.DBm) units.DB {
	denom := noise.MilliWatts()
	for _, i := range interferers {
		denom += i.MilliWatts()
	}
	if denom <= 0 {
		return units.DB(math.Inf(1))
	}
	return units.DBFromLinear(float64(signal.MilliWatts()) / float64(denom))
}

// Detectable reports whether a PS with the given SINR clears the detection
// requirement (in dB).
func Detectable(sinr units.DB, requiredDB float64) bool {
	return float64(sinr) >= requiredDB
}
