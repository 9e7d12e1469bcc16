package core

import (
	"fmt"

	"repro/internal/rach"
	"repro/internal/snapshot"
	"repro/internal/units"
)

// neighborTable holds every device's neighbour table — the RSSI record of
// the proximity signals it received — flat over the link index's CSR rows:
// entry e of device i's row holds what i heard from idx.Peer(e). Every PS
// travels along a candidate pair, so each row has a slot for every sender
// the device can hear. RSSI averages in the dB domain, where shadowing is
// Gaussian; last is the latest sample, which the FST baseline ranks links
// by. A PS carries its sender's fixed service tag, so service discovery
// needs no state: p is a service peer of i iff i heard p and their tags
// match.
//
// Only record writes the table. Phase C gives each receiver's row one
// writer, so per-device link counts are safe where a shared total would
// race; totals sum them on the loop goroutine.
//
// The per-entry arrays are run state, allocated by alloc when a run's
// engine is built (or a resume installs a checkpoint's tables), not by
// NewEnv, which would otherwise spend about a sixth of its time on a warm
// geometry cache zeroing them (20 B per candidate pair, 13 MB at n=1000).
// Until then every entry reads as unheard.
type neighborTable struct {
	idx   *rach.LinkIndex
	count []int32     // observations per entry
	sum   []float64   // dB sum per entry
	last  []units.DBm // latest sample per entry
	links []int32     // per device: entries heard at least once
}

func newNeighborTable(idx *rach.LinkIndex, n int) *neighborTable {
	return &neighborTable{idx: idx, links: make([]int32, n)}
}

// alloc allocates the per-entry arrays, once.
func (t *neighborTable) alloc() {
	if t.count == nil {
		pairs := t.idx.Pairs()
		t.count, t.sum, t.last = make([]int32, pairs), make([]float64, pairs), make([]units.DBm, pairs)
	}
}

// record files one delivered PS in the receiver's table (after alloc).
func (t *neighborTable) record(d *rach.Delivery) {
	e, ok := t.idx.EntryOf(d)
	if !ok {
		panic(fmt.Sprintf("core: delivery %d→%d outside the link index", d.Msg.From, d.To))
	}
	if t.count[e] == 0 {
		t.links[d.To]++
	}
	t.count[e]++
	t.sum[e] += float64(d.Msg.RSSI)
	t.last[e] = d.Msg.RSSI
}

func (t *neighborTable) heard(e int) bool { return t.count != nil && t.count[e] > 0 }

// mean returns entry e's mean observed RSSI; e must have been heard.
func (t *neighborTable) mean(e int) units.DBm { return units.DBm(t.sum[e] / float64(t.count[e])) }

// servicePeers returns the ids of the peers in ps sharing device i's
// service tag — i's application-level discovery.
func (e *Env) servicePeers(i int, ps []snapshot.PeerStat) []int {
	var out []int
	for _, p := range ps {
		if e.Devices[p.Peer].Service == e.Devices[i].Service {
			out = append(out, p.Peer)
		}
	}
	return out
}

// restoreTables fills the fresh tables from a resume snapshot, rejecting
// tables this deployment could not have produced: a peer outside the
// device's candidate row (the snapshot came from another deployment), a
// peer list that is not strictly ascending or holds an entry never heard,
// or service peers other than the heard peers sharing the device's tag.
func (e *Env) restoreTables(st *snapshot.State) error {
	t := e.nbr
	t.alloc()
	for i, ds := range st.Devices {
		// The peers, the row's by-id list and the service peers all ascend
		// by peer: one merge walk matches them.
		row, q := t.idx.ByID(i), 0
		svc, sp, same := e.Devices[i].Service, ds.ServicePeers, true
		for k, p := range ds.Peers {
			if p.Count < 1 || (k > 0 && p.Peer <= ds.Peers[k-1].Peer) {
				return fmt.Errorf("core: resume snapshot: device %d peer entry %d (peer %d, count %d) is not a captured table row", i, k, p.Peer, p.Count)
			}
			for q < len(row) && t.idx.Peer(int(row[q])) < p.Peer {
				q++
			}
			if q == len(row) || t.idx.Peer(int(row[q])) != p.Peer {
				return fmt.Errorf("core: resume snapshot: device %d heard %d, which is not within its candidate radius in this deployment", i, p.Peer)
			}
			x := row[q]
			t.count[x], t.sum[x], t.last[x] = int32(p.Count), p.SumDB, units.DBm(p.Last)
			if e.Devices[p.Peer].Service == svc {
				if same = same && len(sp) > 0 && sp[0] == p.Peer; same {
					sp = sp[1:]
				}
			}
		}
		if !same || len(sp) > 0 {
			return fmt.Errorf("core: resume snapshot: device %d service peers %v, its peers and service tags imply %v", i, ds.ServicePeers, e.servicePeers(i, ds.Peers))
		}
		t.links[i] = int32(len(ds.Peers))
	}
	return nil
}

// DiscoveredLinks returns the directed neighbour-table entries across alive
// devices — a powered-off device's stale table is not discovery coverage the
// network currently holds.
func (e *Env) DiscoveredLinks() int {
	total := 0
	for i, l := range e.nbr.links {
		if e.Alive[i] {
			total += int(l)
		}
	}
	return total
}

// Peers returns device i's neighbour table in peer-id order: per peer heard,
// the observation count, the dB sum and the latest sample (its checkpoint
// form).
func (e *Env) Peers(i int) []snapshot.PeerStat {
	t := e.nbr
	var out []snapshot.PeerStat
	for _, x := range t.idx.ByID(i) {
		if t.heard(int(x)) {
			out = append(out, snapshot.PeerStat{Peer: t.idx.Peer(int(x)), Count: int(t.count[x]),
				SumDB: t.sum[x], Last: float64(t.last[x])})
		}
	}
	return out
}
