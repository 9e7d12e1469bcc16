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
	svc := env.servicePeers(0, env.Peers(0))
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
// the protocol on links the radios cannot carry; a changed service
// assignment, or an edited service-peer list, breaks the rule that service
// peers are exactly the heard peers sharing the tag.
func TestResumeRejectsForeignTables(t *testing.T) {
	cfg, _ := goldenResume(t)
	if _, err := NewEnv(cfg); err != nil {
		t.Fatalf("resume at the checkpoint's own deployment: %v", err)
	}
	cases := []struct {
		name string
		edit func(*Config, *snapshot.State)
		want string
	}{
		{"wider area", func(c *Config, _ *snapshot.State) { c.Area = geo.Square(2000) }, "candidate radius"},
		{"other services", func(c *Config, _ *snapshot.State) { c.Services = 3 }, "service peers"},
		{"edited service peers", func(_ *Config, st *snapshot.State) {
			for i := range st.Devices {
				if sp := st.Devices[i].ServicePeers; len(sp) > 0 {
					st.Devices[i].ServicePeers = sp[1:]
					return
				}
			}
			t.Fatal("the fixture has no service peers")
		}, "service peers"},
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
