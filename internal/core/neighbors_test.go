package core

import (
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/geo"
	"repro/internal/snapshot"
)

// tableEnv deploys four devices 10 m apart, well inside each other's
// candidate radius, with service tags alternating 0, 1, 0, 1.
func tableEnv(t *testing.T) *Env {
	t.Helper()
	cfg := PaperConfig(4, 1)
	cfg.Services = 2
	positions := []geo.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 0, Y: 10}, {X: 10, Y: 10}}
	env, err := NewEnvAt(cfg, positions)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// heardEntry returns device i's entry for peer p when i heard p.
func heardEntry(env *Env, i, p int) (int, bool) {
	e, ok := env.nbr.idx.Entry(i, p)
	return e, ok && env.nbr.heard(e)
}

// TestNeighborTableObserve pins both discovery levels a received PS feeds:
// the dB-mean RSSI toward the sender, and application-level discovery of
// senders sharing the receiver's service tag.
func TestNeighborTableObserve(t *testing.T) {
	env := tableEnv(t)
	hear(env, 0, 2, -80)
	hear(env, 0, 2, -90)
	hear(env, 0, 1, -70)

	e, ok := heardEntry(env, 0, 2)
	if !ok {
		t.Fatal("peer 2 not discovered")
	}
	if rssi := env.nbr.mean(e); math.Abs(float64(rssi)+85) > 1e-12 {
		t.Errorf("mean RSSI = %v, want -85", rssi)
	}
	var svc []int
	for _, p := range env.Peers(0) {
		if env.Devices[p.Peer].Service == env.Devices[0].Service {
			svc = append(svc, p.Peer)
		}
	}
	if len(svc) != 1 || svc[0] != 2 {
		t.Errorf("service peers of device 0 = %v, want [2]: peer 1 has another service", svc)
	}
	if _, ok := heardEntry(env, 0, 3); ok {
		t.Error("unheard peer reported")
	}
	if _, ok := heardEntry(env, 2, 0); ok {
		t.Error("device 0 hearing 2 filled 2's table")
	}
}

// TestNeighborTableMean pins the per-entry accumulation: the count, the dB
// mean and the latest sample the FST baseline ranks by.
func TestNeighborTableMean(t *testing.T) {
	env := tableEnv(t)
	hear(env, 1, 3, -80)
	hear(env, 1, 3, -84)
	ps := env.Peers(1)
	if len(ps) != 1 || ps[0].Peer != 3 || ps[0].Count != 2 || ps[0].Last != -84 {
		t.Fatalf("table of device 1 = %+v, want peer 3, count 2, last -84", ps)
	}
	e, _ := heardEntry(env, 1, 3)
	if got := float64(env.nbr.mean(e)); math.Abs(got+82) > 1e-12 {
		t.Errorf("mean = %v, want -82", got)
	}
}

// TestNeighborTableUnheardEntry pins that a row entry nothing was heard on
// is not part of the table: no lookup finds it, no walk lists it, and it
// counts toward no link total.
func TestNeighborTableUnheardEntry(t *testing.T) {
	env := tableEnv(t)
	if _, ok := env.nbr.idx.Entry(0, 1); !ok {
		t.Fatal("device 1 is not in device 0's candidate row")
	}
	if _, ok := heardEntry(env, 0, 1); ok {
		t.Error("a fresh entry reads as heard")
	}
	if ps := env.Peers(0); len(ps) != 0 {
		t.Errorf("fresh table lists %+v", ps)
	}
	if n := env.DiscoveredLinks(); n != 0 {
		t.Errorf("fresh tables hold %d links", n)
	}
	if w := fstLinkWeight(env, 0, 1); w != 0 {
		t.Errorf("link weight over an unheard pair = %v, want 0", w)
	}
}

// goldenResume decodes the committed checkpoint fixture (FST, n=40, seed
// 12345, the default area) and returns it with the config it came from.
func goldenResume(t *testing.T) (Config, *snapshot.State) {
	t.Helper()
	data, err := os.ReadFile(goldenCheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	st, err := snapshot.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	cfg := PaperConfig(40, 12345)
	cfg.MaxSlots = 100000
	cfg.Resume = st
	return cfg, st
}

// TestResumeRejectsForeignTables pins that NewEnv refuses a checkpoint whose
// discovery tables this deployment could not have produced. At a 2000 m area
// the fixture's peers are out of radio reach, and resuming anyway would run
// the protocol on links the radios cannot carry; a device's rows out of peer
// order, or a row for a peer never heard, are not a captured table.
func TestResumeRejectsForeignTables(t *testing.T) {
	cfg, _ := goldenResume(t)
	if _, err := NewEnv(cfg); err != nil {
		t.Fatalf("resume at the checkpoint's own deployment: %v", err)
	}
	// firstPair returns the first device with at least two rows.
	firstPair := func(pt *snapshot.PeerTable) int {
		for i := 0; i+1 < len(pt.Off); i++ {
			if pt.Off[i+1]-pt.Off[i] >= 2 {
				return pt.Off[i]
			}
		}
		t.Fatal("the fixture has no device with two peers")
		return 0
	}
	cases := []struct {
		name string
		edit func(*Config, *snapshot.State)
		want string
	}{
		{"wider area", func(c *Config, _ *snapshot.State) { c.Area = geo.Square(2000) }, "candidate radius"},
		{"rows out of order", func(_ *Config, st *snapshot.State) {
			k := firstPair(&st.Peers)
			st.Peers.Peer[k], st.Peers.Peer[k+1] = st.Peers.Peer[k+1], st.Peers.Peer[k]
		}, "not a captured table row"},
		{"unheard row", func(_ *Config, st *snapshot.State) { st.Peers.Count[firstPair(&st.Peers)] = 0 }, "not a captured table row"},
	}
	for _, c := range cases {
		cfg, st := goldenResume(t)
		c.edit(&cfg, st)
		_, err := NewEnv(cfg)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: NewEnv error = %v, want one naming %q", c.name, err, c.want)
		}
	}
}

// TestSnapshotNeighborsSymmetric pins the merge protocol's input: after ST's
// discovery, every row ascends by peer; (i, p, w) is listed exactly when
// (p, i, w) is, with the same weight bits; w is the mean of the two
// directions' mean RSSI when both were heard and the one direction's mean
// otherwise; and, under a presumed-dead mask, dead and presumed devices are
// absent at both ends.
func TestSnapshotNeighborsSymmetric(t *testing.T) {
	cfg := PaperConfig(40, 12345)
	cfg.MaxSlots = 250 // discovery takes the first two 100-slot periods
	env := mustEnv(t, cfg)
	ST{}.Run(env)
	n := len(env.Devices)

	check := func(label string, presumed []bool) {
		usable := func(i int) bool { return presumed == nil || (env.Alive[i] && !presumed[i]) }
		out := snapshotNeighbors(env, presumed)
		if len(out) != n {
			t.Fatalf("%s: %d rows for n=%d", label, len(out), n)
		}
		want, oneWay, got := 0, 0, 0
		for i := 0; i < n; i++ {
			for p := 0; p < n; p++ {
				_, there := heardEntry(env, i, p)
				_, back := heardEntry(env, p, i)
				if usable(i) && usable(p) && (there || back) {
					want++
					if there != back {
						oneWay++
					}
				}
			}
		}
		for i, row := range out {
			got += len(row)
			for k, nb := range row {
				p := nb.Peer
				if k > 0 && p <= row[k-1].Peer {
					t.Fatalf("%s: row %d does not ascend by peer: %v", label, i, row)
				}
				if !usable(i) || !usable(p) {
					t.Fatalf("%s: unusable pair (%d, %d) listed", label, i, p)
				}
				e, there := heardEntry(env, i, p)
				m, back := heardEntry(env, p, i)
				var w float64
				switch {
				case there && back:
					w = (float64(env.nbr.mean(e)) + float64(env.nbr.mean(m))) / 2
				case there:
					w = float64(env.nbr.mean(e))
				case back:
					w = float64(env.nbr.mean(m))
				default:
					t.Fatalf("%s: pair (%d, %d) listed but never heard", label, i, p)
				}
				if math.Float64bits(nb.Weight) != math.Float64bits(w) {
					t.Errorf("%s: weight of (%d, %d) = %v, want %v", label, i, p, nb.Weight, w)
				}
				found := false
				for _, r := range out[p] {
					if r.Peer == i {
						found = math.Float64bits(r.Weight) == math.Float64bits(nb.Weight)
					}
				}
				if !found {
					t.Errorf("%s: (%d, %d, %v) has no mirror with the same weight", label, i, p, nb.Weight)
				}
			}
		}
		if got != want {
			t.Errorf("%s: %d entries listed, want %d (one per direction of each usable heard pair)", label, got, want)
		}
		if oneWay == 0 || oneWay == want {
			t.Errorf("%s: %d of %d entries heard one way: the fixture must exercise both weight cases", label, oneWay, want)
		}
	}

	check("all", nil)
	presumed := make([]bool, n)
	presumed[3], presumed[17] = true, true
	env.Alive[11] = false
	check("masked", presumed)
	if out := snapshotNeighbors(env, presumed); len(out[3]) != 0 || len(out[11]) != 0 || len(out[17]) != 0 {
		t.Error("masked devices kept their rows")
	}
}
