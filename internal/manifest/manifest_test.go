package manifest

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestDefaultMatchesPaperConfig(t *testing.T) {
	m := Default(50, 7)
	cfg, err := m.ToConfig()
	if err != nil {
		t.Fatal(err)
	}
	want := core.PaperConfig(50, 7)
	if cfg.TxPower != want.TxPower || cfg.Threshold != want.Threshold ||
		cfg.ShadowSigmaDB != want.ShadowSigmaDB || cfg.PeriodSlots != want.PeriodSlots ||
		cfg.Coupling != want.Coupling || cfg.MaxSlots != want.MaxSlots ||
		cfg.FstRoundSlots != want.FstRoundSlots || cfg.CaptureMarginDB != want.CaptureMarginDB {
		t.Errorf("default manifest diverges from PaperConfig:\n%+v\n%+v", cfg, want)
	}
	if cfg.Area != want.Area {
		t.Errorf("area %+v, want %+v", cfg.Area, want.Area)
	}
}

func TestRoundTripJSON(t *testing.T) {
	m := Default(100, 3)
	m.Fading = "rician"
	m.PathLoss = "winner-b1"
	m.AreaSide = 250
	m.ClockDriftPPM = 20
	m.SINRDetection = true

	var b strings.Builder
	if err := m.Write(&b); err != nil {
		t.Fatal(err)
	}
	back, err := Read(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back != m {
		t.Errorf("round trip changed the manifest:\n%+v\n%+v", back, m)
	}
}

func TestReadRejectsUnknownFields(t *testing.T) {
	js := `{"version":1,"n":10,"seed":1,"totally_unknown_knob":5}`
	if _, err := Read(strings.NewReader(js)); err == nil {
		t.Error("unknown fields must be rejected")
	}
}

func TestToConfigValidation(t *testing.T) {
	cases := []func(*Manifest){
		func(m *Manifest) { m.Version = 99 },
		func(m *Manifest) { m.Fading = "quantum" },
		func(m *Manifest) { m.PathLoss = "vacuum" },
		func(m *Manifest) { m.CouplingA = 0 },
		func(m *Manifest) { m.CouplingEps = -1 },
		func(m *Manifest) { m.N = 0 },
		func(m *Manifest) { m.PeriodSlots = 1 },
	}
	for i, mutate := range cases {
		m := Default(20, 1)
		mutate(&m)
		if _, err := m.ToConfig(); err == nil {
			t.Errorf("case %d: invalid manifest accepted", i)
		}
	}
}

// A negative capture margin reaches core.Config.Validate, which rejects it.
// toConfigWith sets one JSON key of the default manifest to value and
// returns ToConfig's error for the result.
func toConfigWith(t *testing.T, key string, value any) error {
	t.Helper()
	var b strings.Builder
	if err := Default(20, 1).Write(&b); err != nil {
		t.Fatal(err)
	}
	var fields map[string]any
	if err := json.Unmarshal([]byte(b.String()), &fields); err != nil {
		t.Fatal(err)
	}
	fields[key] = value
	raw, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Read(strings.NewReader(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.ToConfig()
	return err
}

func TestToConfigRejectsNegativeCaptureMargin(t *testing.T) {
	if err := toConfigWith(t, "capture_margin_db", -1); err == nil || !strings.Contains(err.Error(), "CaptureMarginDB -1 < 0") {
		t.Errorf("ToConfig with capture_margin_db -1: err = %v, want the CaptureMarginDB < 0 rejection", err)
	}
}

func TestToConfigRejectsNegativeShadowSigma(t *testing.T) {
	if err := toConfigWith(t, "shadow_sigma_db", -5); err == nil || !strings.Contains(err.Error(), "ShadowSigmaDB -5 < 0") {
		t.Errorf("ToConfig with shadow_sigma_db -5: err = %v, want the ShadowSigmaDB < 0 rejection", err)
	}
}

func TestToConfigRejectsNegativeSyncWindow(t *testing.T) {
	if err := toConfigWith(t, "sync_window_slots", -1); err == nil || !strings.Contains(err.Error(), "SyncWindowSlots -1 < 0") {
		t.Errorf("ToConfig with sync_window_slots -1: err = %v, want the SyncWindowSlots < 0 rejection", err)
	}
}

func TestToConfigRejectsNegativeClockDrift(t *testing.T) {
	if err := toConfigWith(t, "clock_drift_ppm", -20); err == nil || !strings.Contains(err.Error(), "ClockDriftPPM -20 < 0") {
		t.Errorf("ToConfig with clock_drift_ppm -20: err = %v, want the ClockDriftPPM < 0 rejection", err)
	}
}

func TestSaveLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	m := Default(30, 9)
	m.MeshCoupling = true
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Errorf("file round trip changed the manifest")
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file should error")
	}
}

func TestManifestDrivesIdenticalRun(t *testing.T) {
	// The reproducibility contract: a run from the manifest equals a run
	// from the equivalent in-code config.
	m := Default(25, 11)
	cfg, err := m.ToConfig()
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxSlots = 60000
	envA, err := core.NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	direct := core.PaperConfig(25, 11)
	direct.MaxSlots = 60000
	envB, err := core.NewEnv(direct)
	if err != nil {
		t.Fatal(err)
	}
	a := core.ST{}.Run(envA)
	b := core.ST{}.Run(envB)
	if a.ConvergenceSlots != b.ConvergenceSlots || a.Counters != b.Counters {
		t.Errorf("manifest-driven run differs:\n%v\n%v", a, b)
	}
}

func TestAllPathLossAndFadingVariantsLoad(t *testing.T) {
	for _, pl := range []string{"dual-slope", "winner-b1", "log-distance-outdoor", "log-distance-indoor"} {
		for _, fad := range []string{"none", "rayleigh", "rician"} {
			m := Default(10, 1)
			m.PathLoss = pl
			m.Fading = fad
			if _, err := m.ToConfig(); err != nil {
				t.Errorf("%s/%s: %v", pl, fad, err)
			}
		}
	}
}

func TestDigestStableAndSensitive(t *testing.T) {
	a := Default(40, 12345)
	d1, err := a.Digest()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := a.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Error("digest must be deterministic")
	}
	if len(d1) != 64 {
		t.Errorf("digest %q is not sha256 hex", d1)
	}
	b := Default(40, 12345)
	b.Seed = 54321
	d3, err := b.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if d3 == d1 {
		t.Error("different configurations must digest differently")
	}
}
