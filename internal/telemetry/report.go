package telemetry

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/units"
)

// ReportSchema versions the machine-readable run report so downstream
// tooling can reject reports written by an incompatible layout. Schema 2
// added the fault-layer fields: per-sample alive/repairs counts and the
// summary's recovery scalars. Schema 3 added the engine-attribution
// RunStats section and the Build provenance block.
const ReportSchema = 3

// BuildInfo identifies the binary that produced a run: module version plus
// VCS revision/time/dirty from the embedded Go build info. Zero-valued
// fields are omitted (e.g. a non-VCS build). Defined here rather than in
// internal/manifest so manifest (which imports core, which imports
// telemetry) can provide the collector without an import cycle — and kept
// out of the Manifest struct itself, whose canonical JSON is digested:
// embedding build info there would give byte-identical configs different
// identities per binary.
type BuildInfo struct {
	// GoVersion is the toolchain that built the binary.
	GoVersion string `json:"go_version,omitempty"`
	// Module is the main module path@version.
	Module string `json:"module,omitempty"`
	// Revision and RevisionTime are the VCS commit stamped at build time.
	Revision     string `json:"revision,omitempty"`
	RevisionTime string `json:"revision_time,omitempty"`
	// Dirty reports uncommitted changes at build time.
	Dirty bool `json:"dirty,omitempty"`
}

// String renders the build info as the one-line `d2dsim -version` output.
func (b BuildInfo) String() string {
	s := b.Module
	if s == "" {
		s = "d2dsim"
	}
	if b.Revision != "" {
		rev := b.Revision
		if len(rev) > 12 {
			rev = rev[:12]
		}
		s += " " + rev
		if b.Dirty {
			s += "+dirty"
		}
		if b.RevisionTime != "" {
			s += " (" + b.RevisionTime + ")"
		}
	}
	if b.GoVersion != "" {
		s += " " + b.GoVersion
	}
	return s
}

// ResultSummary is the flat, JSON-stable view of a run's end-of-run
// scalars. It mirrors core.Result without importing core (telemetry is a
// substrate package; core imports it, never the reverse) — cmd/d2dsim fills
// it from the Result it already holds.
type ResultSummary struct {
	// Converged reports whether network-wide synchrony was reached.
	Converged bool `json:"converged"`
	// ConvergenceSlots is the synchrony-detection slot (or the slot cap).
	ConvergenceSlots units.Slot `json:"convergence_slots"`
	// TotalTx is the total control-message transmission count.
	TotalTx uint64 `json:"total_tx"`
	// Rach1Tx and Rach2Tx split TotalTx per codec.
	Rach1Tx uint64 `json:"rach1_tx"`
	// Rach2Tx is the RACH2 (merge/handshake) transmission count.
	Rach2Tx uint64 `json:"rach2_tx"`
	// Collisions counts contention groups lost to collision arbitration.
	Collisions uint64 `json:"collisions"`
	// Ops counts brightness-ranking operations.
	Ops uint64 `json:"ops"`
	// DiscoveredLinks counts directed neighbour-table entries.
	DiscoveredLinks int `json:"discovered_links"`
	// ServiceDiscovery is the same-service pair discovery ratio.
	ServiceDiscovery float64 `json:"service_discovery"`
	// ActiveSlots and TotalSlots are the engine's stepped/covered spans.
	ActiveSlots uint64 `json:"active_slots"`
	// TotalSlots is the slot span the run covered.
	TotalSlots uint64 `json:"total_slots"`
	// EnergyMJ is the run's total battery cost in millijoules.
	EnergyMJ float64 `json:"energy_mj"`
	// TreeEdges and TreePhases summarize the spanning forest (ST/BS).
	TreeEdges int `json:"tree_edges"`
	// TreePhases is the number of fragment merge phases run.
	TreePhases int `json:"tree_phases"`
	// Recoveries, RecoverySlots and Repairs summarize the self-healing
	// layer on faulted runs (zero, and omitted, without a fault plan).
	Recoveries int `json:"recoveries,omitempty"`
	// RecoverySlots is the cumulative fault-to-re-convergence time.
	RecoverySlots units.Slot `json:"recovery_slots,omitempty"`
	// Repairs counts completed tree-repair rounds.
	Repairs int `json:"repairs,omitempty"`
}

// Report is the machine-readable run report `d2dsim -report` emits: enough
// to identify the run (protocol + config digest + embedded manifest),
// reproduce it, and plot its trajectory (the probe series).
type Report struct {
	// Schema is ReportSchema at write time.
	Schema int `json:"schema"`
	// Protocol names the protocol that produced the run.
	Protocol string `json:"protocol"`
	// ConfigDigest is the SHA-256 digest of the canonical manifest JSON
	// (plus the embedded plans, when there are any), the stable identity of
	// the run configuration.
	ConfigDigest string `json:"config_digest,omitempty"`
	// Manifest embeds the full manifest JSON so the report alone suffices
	// to re-execute the run (`d2dsim -config`).
	Manifest json.RawMessage `json:"manifest,omitempty"`
	// Faults and Net embed the fault and asynchrony plans the run attached
	// (`d2dsim -faults`, `-net`), absent when it attached none.
	// ConfigDigest covers them too.
	Faults json.RawMessage `json:"faults,omitempty"`
	// Net is the asynchrony plan JSON (see Faults).
	Net json.RawMessage `json:"net,omitempty"`
	// Result carries the end-of-run scalars.
	Result ResultSummary `json:"result"`
	// SampleEverySlots is the probe sampling interval.
	SampleEverySlots units.Slot `json:"sample_every_slots"`
	// DroppedSamples counts ring overwrites: the series' first
	// DroppedSamples points were lost, the retained series is the tail.
	DroppedSamples int `json:"dropped_samples"`
	// Series is the retained probe time series, oldest first.
	Series []Sample `json:"series"`
	// RunStats is the engine time-attribution section (present when the
	// run collected runstats; schema 3).
	RunStats *RunStatsReport `json:"runstats,omitempty"`
	// Build identifies the producing binary (schema 3).
	Build *BuildInfo `json:"build,omitempty"`
}

// BuildReport assembles a Report from a finished run's telemetry.
func (r *Run) BuildReport(protocol string, res ResultSummary) Report {
	return Report{
		Schema:           ReportSchema,
		Protocol:         protocol,
		Result:           res,
		SampleEverySlots: r.SampleEvery(),
		DroppedSamples:   r.Dropped(),
		Series:           r.Samples(),
	}
}

// WriteFile marshals the report (indented, trailing newline) to path.
func (rep Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadReport reads and validates a report written by WriteFile.
func LoadReport(path string) (Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return Report{}, fmt.Errorf("telemetry: parse %s: %w", path, err)
	}
	if rep.Schema != ReportSchema {
		return Report{}, fmt.Errorf("telemetry: report schema %d, want %d", rep.Schema, ReportSchema)
	}
	return rep, nil
}
