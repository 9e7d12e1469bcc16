// Content-addressed result caching. A protocol run is a pure function of its
// model-relevant configuration — every stochastic draw is derived from
// (Seed, stream name, cursor) — so a Result can be keyed by a digest of that
// configuration and replayed instead of re-simulated. The sweep drivers use
// this to make re-runs (same manifest, tweaked post-processing, resumed CI
// jobs) close to free: a fully warm cache turns a sweep into hash lookups.
//
// The key is honest about what it cannot see. Knobs that provably do not
// change the Result (Workers, PrefixSlot, the observability hooks' cadence
// fields) are excluded, so a cached row serves any worker count.
// CheckpointEvery IS included: checkpoint boundaries are stepped slots, so
// they show in Result.ActiveSlots. Configurations the digest cannot
// represent — live hooks a cached hit could not replay (telemetry, traces,
// checkpoint streams), mid-run Resume states, stream forks — refuse caching
// outright rather than risk a false hit.
package experiments

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/asyncnet"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/units"
)

// cacheSchema versions the digest layout and the disk envelope together:
// bump it whenever the manifest fields, the probe grid or the Result shape
// change meaning, and every previously stored entry silently misses.
const cacheSchema = 3

// pathLossProbes are the distances (metres) at which the path-loss model is
// fingerprinted. PathLoss is an interface with no canonical serialization;
// Name() plus the loss curve sampled on a fixed grid spanning both slopes of
// the paper's dual-slope model (break at 6 m) and the deployment scales the
// sweeps use identifies a model numerically — two models that agree on all
// fourteen probes and the name are interchangeable for any practical config.
var pathLossProbes = []float64{0.5, 1, 2, 4, 6, 8, 10, 20, 50, 100, 200, 500, 1000, 2000}

// cacheManifest is the canonical serialization the key digests: every Config
// field that feeds the simulation model, plus the protocol. Field order is
// fixed by the struct; encoding/json emits struct fields in declaration
// order, so the digest is byte-stable across runs and Go versions.
type cacheManifest struct {
	Schema   int    `json:"schema"`
	Protocol string `json:"protocol"`

	N    int        `json:"n"`
	Area [4]float64 `json:"area"`
	Seed int64      `json:"seed"`

	TxPower       float64   `json:"tx_power"`
	Threshold     float64   `json:"threshold"`
	ShadowSigmaDB float64   `json:"shadow_sigma_db"`
	Fading        string    `json:"fading"`
	PathLossName  string    `json:"path_loss"`
	PathLossProbe []float64 `json:"path_loss_probe"`

	PeriodSlots       int     `json:"period_slots"`
	CouplingAlpha     float64 `json:"coupling_alpha"`
	CouplingBeta      float64 `json:"coupling_beta"`
	JumpsPerCycle     int     `json:"jumps_per_cycle"`
	ListenPhase       float64 `json:"listen_phase"`
	CaptureMarginDB   float64 `json:"capture_margin_db"`
	ClockDriftPPM     float64 `json:"clock_drift_ppm"`
	Preambles         int     `json:"preambles"`
	CorrelatedChannel bool    `json:"correlated_channel"`
	CoherenceSlots    int     `json:"coherence_slots"`
	SINRDetection     bool    `json:"sinr_detection"`
	SyncWindowSlots   int64   `json:"sync_window_slots"`
	StableRounds      int     `json:"stable_rounds"`
	MaxSlots          int64   `json:"max_slots"`
	CheckpointEvery   int64   `json:"checkpoint_every"`

	DiscoveryPeriods  int  `json:"discovery_periods"`
	MergeEveryPeriods int  `json:"merge_every_periods"`
	ConnectRetryLimit int  `json:"connect_retry_limit"`
	FstRoundSlots     int  `json:"fst_round_slots"`
	Services          int  `json:"services"`
	MeshCoupling      bool `json:"mesh_coupling"`

	FailAt  int64 `json:"fail_at"`
	FailSet []int `json:"fail_set,omitempty"`

	Faults          *faults.Plan   `json:"faults,omitempty"`
	WatchdogPeriods int            `json:"watchdog_periods"`
	Net             *asyncnet.Plan `json:"net,omitempty"`
}

// CacheKey digests the model-relevant configuration of one (config,
// protocol) run into a content address. ok is false when the configuration
// is not representable — a cached Result could not stand in for the run:
//
//   - Resume / ForkStreams: the run starts mid-trajectory or branches its
//     randomness; the key has no way to address the prior history.
//   - Telemetry, RunStats, FireTrace, ProgressTrace, EventTrace,
//     OnCheckpoint, OnPrefix: a cache hit skips the run, so live observers
//     would silently see nothing (for RunStats: a hit records no engine
//     time, so an attached accumulator would report a run that never
//     executed).
func CacheKey(cfg core.Config, protocol string) (key string, ok bool) {
	if cfg.Resume != nil || cfg.ForkStreams != "" {
		return "", false
	}
	if cfg.Telemetry != nil || cfg.RunStats != nil || cfg.FireTrace != nil || cfg.ProgressTrace != nil ||
		cfg.EventTrace != nil || cfg.OnCheckpoint != nil || cfg.OnPrefix != nil {
		return "", false
	}
	if cfg.PathLoss == nil {
		return "", false
	}
	m := cacheManifest{
		Schema:   cacheSchema,
		Protocol: protocol,

		N:    cfg.N,
		Area: [4]float64{cfg.Area.MinX, cfg.Area.MinY, cfg.Area.MaxX, cfg.Area.MaxY},
		Seed: cfg.Seed,

		TxPower:       float64(cfg.TxPower),
		Threshold:     float64(cfg.Threshold),
		ShadowSigmaDB: cfg.ShadowSigmaDB,
		Fading:        cfg.Fading.String(),
		PathLossName:  cfg.PathLoss.Name(),
		PathLossProbe: make([]float64, len(pathLossProbes)),

		PeriodSlots:       cfg.PeriodSlots,
		CouplingAlpha:     cfg.Coupling.Alpha,
		CouplingBeta:      cfg.Coupling.Beta,
		JumpsPerCycle:     cfg.JumpsPerCycle,
		ListenPhase:       cfg.ListenPhase,
		CaptureMarginDB:   cfg.CaptureMarginDB,
		ClockDriftPPM:     cfg.ClockDriftPPM,
		Preambles:         cfg.Preambles,
		CorrelatedChannel: cfg.CorrelatedChannel,
		CoherenceSlots:    cfg.CoherenceSlots,
		SINRDetection:     cfg.SINRDetection,
		SyncWindowSlots:   cfg.SyncWindowSlots,
		StableRounds:      cfg.StableRounds,
		MaxSlots:          int64(cfg.MaxSlots),
		CheckpointEvery:   int64(cfg.CheckpointEvery),

		DiscoveryPeriods:  cfg.DiscoveryPeriods,
		MergeEveryPeriods: cfg.MergeEveryPeriods,
		ConnectRetryLimit: cfg.ConnectRetryLimit,
		FstRoundSlots:     cfg.FstRoundSlots,
		Services:          cfg.Services,
		MeshCoupling:      cfg.MeshCoupling,

		FailAt:  int64(cfg.FailAt),
		FailSet: cfg.FailSet,

		Faults:          cfg.Faults,
		WatchdogPeriods: cfg.WatchdogPeriods,
		Net:             cfg.Net,
	}
	for i, d := range pathLossProbes {
		m.PathLossProbe[i] = float64(cfg.PathLoss.Loss(units.Metre(d)))
	}
	raw, err := json.Marshal(m)
	if err != nil {
		return "", false // unreachable for the concrete types above
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), true
}

// diskEntry is the versioned on-disk envelope of one cached result. The key
// is stored redundantly (it is also the file name) so a moved or corrupted
// file cannot serve under the wrong address.
type diskEntry struct {
	Schema int         `json:"schema"`
	Key    string      `json:"key"`
	Result core.Result `json:"result"`
}

// ResultCache is a content-addressed store of run Results: an in-memory LRU
// tier fronting an optional directory tier that persists across processes.
// Safe for concurrent use by the sweep worker pools. Stored Results are
// returned by value but share slice backing (TreeEdges) — callers must treat
// hits as read-only, which the sweep aggregators do.
type ResultCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List               // front = most recent
	items map[string]*list.Element // value: *cacheItem
	dir   string
	hits  uint64
	miss  uint64
	evict uint64
}

type cacheItem struct {
	key string
	res core.Result
}

// NewResultCache returns a cache holding up to capacity Results in memory
// (<=0 means 1024). dir, when non-empty, adds the persistent tier: every Put
// is also written to dir/<key>.json (atomically, via rename), and a memory
// miss falls through to a disk read. The directory is created on first use.
func NewResultCache(capacity int, dir string) *ResultCache {
	if capacity <= 0 {
		capacity = 1024
	}
	return &ResultCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element),
		dir:   dir,
	}
}

// Stats reports lookup hits (either tier) and misses.
func (c *ResultCache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.miss
}

// Evictions reports entries the in-memory LRU tier dropped to stay within
// capacity (disk-tier copies survive). A non-zero count on a sweep means
// the memory tier is undersized for the working set.
func (c *ResultCache) Evictions() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evict
}

// Get returns the cached Result under key, consulting memory first and then
// the directory tier. A disk hit is promoted into memory.
func (c *ResultCache) Get(key string) (core.Result, bool) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		res := el.Value.(*cacheItem).res
		c.hits++
		c.mu.Unlock()
		return res, true
	}
	c.mu.Unlock()
	if res, ok := c.readDisk(key); ok {
		c.put(key, res, false) // promote; already on disk
		c.mu.Lock()
		c.hits++
		c.mu.Unlock()
		return res, true
	}
	c.mu.Lock()
	c.miss++
	c.mu.Unlock()
	return core.Result{}, false
}

// Put stores res under key in memory and, when configured, on disk. Write
// errors on the disk tier are deliberately swallowed: the cache is an
// accelerator, never a correctness dependency, and a read-only cache
// directory must not fail a sweep.
func (c *ResultCache) Put(key string, res core.Result) {
	c.put(key, res, true)
}

func (c *ResultCache) put(key string, res core.Result, persist bool) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheItem).res = res
	} else {
		c.items[key] = c.ll.PushFront(&cacheItem{key: key, res: res})
		for c.ll.Len() > c.cap {
			old := c.ll.Back()
			c.ll.Remove(old)
			delete(c.items, old.Value.(*cacheItem).key)
			c.evict++
		}
	}
	c.mu.Unlock()
	if persist && c.dir != "" {
		c.writeDisk(key, res)
	}
}

func (c *ResultCache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

func (c *ResultCache) readDisk(key string) (core.Result, bool) {
	if c.dir == "" {
		return core.Result{}, false
	}
	raw, err := os.ReadFile(c.path(key))
	if err != nil {
		return core.Result{}, false
	}
	var e diskEntry
	if json.Unmarshal(raw, &e) != nil || e.Schema != cacheSchema || e.Key != key {
		return core.Result{}, false
	}
	return e.Result, true
}

func (c *ResultCache) writeDisk(key string, res core.Result) {
	if os.MkdirAll(c.dir, 0o755) != nil {
		return
	}
	raw, err := json.Marshal(diskEntry{Schema: cacheSchema, Key: key, Result: res})
	if err != nil {
		return
	}
	// Atomic publish: a concurrent reader sees the old entry or the new one,
	// never a torn file. The tmp name carries the pid so concurrent sweeps
	// sharing a directory do not trample each other's staging files.
	tmp := c.path(key) + fmt.Sprintf(".tmp%d", os.Getpid())
	if os.WriteFile(tmp, raw, 0o644) != nil {
		return
	}
	if os.Rename(tmp, c.path(key)) != nil {
		os.Remove(tmp)
	}
}
