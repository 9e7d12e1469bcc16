// Environment geometry memoization. Building an Env is dominated by the
// transport's link-geometry pass: one spatial-grid query per device plus a
// log10 (path loss → mean received power) per directed candidate pair. Within
// a sweep that cost is paid over and over for the same world — the FST and ST
// member of a job pair, every fault-plan variant of a branch fan-out, every
// re-run of a cached sweep — because the deployment is a pure function of
// (N, Seed, Area) and the link means are a pure function of the deployment
// and the channel's deterministic half.
//
// GeometryCache memoizes exactly that pure function. Positions are NOT
// cached: the deployment draw must still run so the "deployment" stream
// cursor advances exactly as in an unmemoized run (snapshots record absolute
// cursors; skipping draws would corrupt byte-identity). Only the built
// LinkIndex is kept. It is immutable, so every env of the world receives the
// same index and reads it concurrently without a copy.
package core

import (
	"sync"

	"repro/internal/geo"
	"repro/internal/rach"
	"repro/internal/radio"
)

// geoKey identifies one deployment-and-mean-geometry world. Every field that
// feeds the index build is present: N/Seed/Area determine the positions,
// TxPower and the candidate margin (2·ShadowSigmaDB) with Threshold determine
// the candidate radius, and TxPower again the cached mean powers.
//
// The path-loss model is deliberately absent — PathLoss is an interface and
// has no canonical identity. The contract is therefore scope, not hashing: a
// GeometryCache must only be shared across runs using the same PathLoss model
// (the sweep runners create one cache per sweep, where the model is fixed by
// construction). Sharing a cache across models is a misuse that the result
// cache's probe-based fingerprint would catch, but this layer cannot.
type geoKey struct {
	n             int
	seed          int64
	area          geo.Rect
	txPower       float64
	threshold     float64
	shadowSigmaDB float64
}

// GeometryCache memoizes transport link-geometry indices across the runs of
// one sweep. It is safe for concurrent use by the sweep worker pool: the
// first lookup of a world builds its index, and concurrent lookups of the
// same world wait for that build instead of repeating it, so the counters are
// a function of the sweep alone, not of goroutine scheduling. The zero value
// is not usable; call NewGeometryCache.
type GeometryCache struct {
	mu      sync.Mutex
	entries map[geoKey]*geoEntry
	hits    uint64
	misses  uint64
}

// geoEntry is one world's memoized index. ready closes once the first
// caller's build finished.
type geoEntry struct {
	ready chan struct{}
	idx   *rach.LinkIndex
}

// NewGeometryCache returns an empty cache.
func NewGeometryCache() *GeometryCache {
	return &GeometryCache{entries: make(map[geoKey]*geoEntry)}
}

// Stats reports how many transport constructions reused a memoized index
// (hits) versus ran the full geometry pass (misses).
func (g *GeometryCache) Stats() (hits, misses uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.hits, g.misses
}

// newTransport builds the env's transport, sharing the memoized index for
// cfg's world when present and memoizing the build on first sight. positions
// must be the stream-drawn deployment for cfg — the caller guarantees this by
// bypassing the cache for caller-supplied deployments (NewEnvAt) and for the
// direct-geometry test path, so the index is never disabled here.
func (g *GeometryCache) newTransport(cfg Config, ch *radio.Channel, positions []geo.Point) *rach.Transport {
	key := geoKey{
		n:             cfg.N,
		seed:          cfg.Seed,
		area:          cfg.Area,
		txPower:       float64(cfg.TxPower),
		threshold:     float64(cfg.Threshold),
		shadowSigmaDB: cfg.ShadowSigmaDB,
	}
	g.mu.Lock()
	e, found := g.entries[key]
	if !found {
		e = &geoEntry{ready: make(chan struct{})}
		g.entries[key] = e
		g.misses++
	}
	g.mu.Unlock()

	if found {
		<-e.ready
		g.mu.Lock()
		g.hits++
		g.mu.Unlock()
		return rach.NewTransport(ch, positions, cfg.TxPower, cfg.Threshold, 2*cfg.ShadowSigmaDB, e.idx)
	}
	tr := rach.NewTransport(ch, positions, cfg.TxPower, cfg.Threshold, 2*cfg.ShadowSigmaDB, nil)
	e.idx = tr.LinkIndex()
	close(e.ready)
	return tr
}
