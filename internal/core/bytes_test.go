package core

import (
	"testing"

	"repro/internal/rach"
)

// Byte accounting tests: the byte-denominated reading of Fig. 4.

func TestBytesChargedForAllProtocols(t *testing.T) {
	for _, p := range []Protocol{FST{}, ST{}, Centralized{}} {
		env := mustEnv(t, fastConfig(25, 1))
		res := p.Run(env)
		if !res.Converged {
			t.Fatalf("%s did not converge", p.Name())
		}
		bytes := res.Counters.TxBytes[rach.RACH1] + res.Counters.TxBytes[rach.RACH2]
		if bytes == 0 {
			t.Errorf("%s: no payload bytes charged", p.Name())
		}
		// Every transmission carries at least the 4-byte pulse framing.
		if bytes < 4*res.Counters.TotalTx() {
			t.Errorf("%s: %d bytes for %d messages — below the minimum framing",
				p.Name(), bytes, res.Counters.TotalTx())
		}
	}
}

func TestSTBytesSplitAcrossCodecs(t *testing.T) {
	env := mustEnv(t, fastConfig(25, 2))
	res := ST{}.Run(env)
	if res.Counters.TxBytes[rach.RACH1] == 0 || res.Counters.TxBytes[rach.RACH2] == 0 {
		t.Errorf("ST should carry bytes on both codecs: %+v", res.Counters.TxBytes)
	}
	// RACH2 control messages are bigger than pulses on average.
	avg1 := float64(res.Counters.TxBytes[rach.RACH1]) / float64(res.Counters.Tx[rach.RACH1])
	avg2 := float64(res.Counters.TxBytes[rach.RACH2]) / float64(res.Counters.Tx[rach.RACH2])
	if avg2 <= avg1 {
		t.Errorf("merge messages (%.1f B) should outweigh pulses (%.1f B)", avg2, avg1)
	}
}

func TestPayloadBytesTable(t *testing.T) {
	if rach.PayloadBytes(rach.KindPulse) >= rach.PayloadBytes(rach.KindReport) {
		t.Error("a pulse must be smaller than a report")
	}
	if rach.PayloadBytes(rach.Kind(99)) == 0 {
		t.Error("unknown kinds still carry framing bytes")
	}
}
