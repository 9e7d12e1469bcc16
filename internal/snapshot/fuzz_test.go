package snapshot

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// FuzzSnapshotDecode hammers the checkpoint parser with corrupted, truncated
// and version-skewed inputs. Invariants: Decode never panics, and anything it
// accepts is internally consistent enough to re-encode and decode again to
// the same state bytes (so a fuzz-found "valid" snapshot cannot smuggle
// unserializable or schema-violating state into the restore path).
func FuzzSnapshotDecode(f *testing.F) {
	valid, err := Encode(testState())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	st, err := Encode(testSTState())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(st)
	// The committed v4 checkpoint fixture: a real FST run's state.
	fixture, err := os.ReadFile("../core/testdata/checkpoint_v4.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)
	// Truncations and bit flips of a real snapshot.
	f.Add(valid[:len(valid)/2])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	// Hand-built envelopes: version skew, digest mismatch, garbage state.
	f.Add([]byte(`{"schema":2,"digest":"","state":{}}`))
	f.Add([]byte(`{"schema":1,"digest":"deadbeef","state":{"protocol":"ST","slot":1,"n":1}}`))
	f.Add([]byte(`{"schema":1}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`[]`))

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := Decode(data)
		if err != nil {
			return // malformed input is allowed to fail, not to panic
		}
		reenc, err := Encode(st)
		if err != nil {
			t.Fatalf("accepted snapshot failed to re-encode: %v", err)
		}
		st2, err := Decode(reenc)
		if err != nil {
			t.Fatalf("re-encoded snapshot failed to decode: %v", err)
		}
		a, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(st2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatal("decode/encode/decode is not a fixed point")
		}
	})
}
