// Package rach models the control-message substrate of Section III/IV: the
// Proximity Signal (PS) carried on a pair of RACH codecs, and a broadcast
// transport that delivers PSs to every device whose sampled received power
// meets the detection threshold.
//
// The paper multiplexes two codecs over the LTE-A random access channel:
// RACH1 carries the regular firefly keep-alive/synchronization pulses, RACH2
// carries the inter-subtree merge handshake (H_Connect) and other events.
// OFDMA keeps preambles orthogonal, so codecs never interfere — the
// transport therefore never models cross-codec collisions, exactly as the
// paper assumes. Different codecs can also encode different service
// interests, which is how service discovery rides on the same mechanism.
package rach

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/units"
	"repro/internal/xrand"
)

// Codec identifies which RACH preamble family a PS uses.
type Codec int

const (
	// RACH1 is the keep-alive / synchronization codec.
	RACH1 Codec = iota
	// RACH2 is the merge / "other event" codec.
	RACH2
	numCodecs
)

// String implements fmt.Stringer.
func (c Codec) String() string {
	switch c {
	case RACH1:
		return "RACH1"
	case RACH2:
		return "RACH2"
	default:
		return fmt.Sprintf("RACH(%d)", int(c))
	}
}

// Kind further qualifies a PS for the protocol state machines.
type Kind int

const (
	// KindPulse is a firefly synchronization pulse.
	KindPulse Kind = iota
	// KindReport is a convergecast report toward a fragment head.
	KindReport
	// KindDecision is a head's merge decision flooded down the fragment.
	KindDecision
	// KindConnect is an H_Connect merge probe across a fragment boundary.
	KindConnect
	// KindAccept is the reciprocal H_Connect acknowledgement.
	KindAccept
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindPulse:
		return "pulse"
	case KindReport:
		return "report"
	case KindDecision:
		return "decision"
	case KindConnect:
		return "connect"
	case KindAccept:
		return "accept"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Message is one PS as seen by a receiver.
type Message struct {
	// From is the transmitting device id.
	From int
	// Codec is the RACH codec family the PS used.
	Codec Codec
	// Kind qualifies the message for the protocol layer.
	Kind Kind
	// Service is the transmitting device's service interest tag; devices
	// filter application-level discovery on it.
	Service int
	// Slot is the transmission slot.
	Slot units.Slot
	// RSSI is the received power observed by this receiver — the basis
	// for edge weights and RSSI ranging.
	RSSI units.DBm
}

// Delivery pairs a receiver with the message instance it observed.
type Delivery struct {
	To  int
	Msg Message
	// link is 1 + the sender-row LinkIndex entry the delivery travelled
	// along when the transport resolved it over its index, else 0, so the
	// zero value never reads as entry 0 (LinkIndex.EntryOf).
	link int32
}

// PayloadBytes returns the over-the-air payload size of a message kind, per
// the LTE-A framing the protocols assume: a bare sync pulse is a RACH
// preamble plus the service tag (the paper's codec trick encodes the
// service in the preamble choice, so the pulse itself carries almost
// nothing); control messages carry identifiers and a weight.
func PayloadBytes(kind Kind) uint64 {
	switch kind {
	case KindPulse:
		return 4 // preamble id + service tag
	case KindReport:
		return 12 // reporter id + best edge (peer id + weight)
	case KindDecision:
		return 8 // chosen edge (two ids)
	case KindConnect, KindAccept:
		return 8 // fragment id + head id
	default:
		return 4
	}
}

// Counters tallies transmissions and receptions per codec, and the
// transmitted payload bytes per codec.
type Counters struct {
	Tx      [numCodecs]uint64
	Rx      [numCodecs]uint64
	TxBytes [numCodecs]uint64
}

// TotalTx returns the total transmissions across codecs — the paper's
// "total number of exchange messages".
func (c Counters) TotalTx() uint64 { return c.Tx[RACH1] + c.Tx[RACH2] }

// TotalRx returns the total receptions across codecs.
func (c Counters) TotalRx() uint64 { return c.Rx[RACH1] + c.Rx[RACH2] }

// Transport broadcasts PSs over a radio channel to a fixed deployment. It
// owns the message counters for an experiment run.
type Transport struct {
	// Channel produces received-power samples.
	Channel *radio.Channel
	// Threshold is the PS detection threshold (Table I: -95 dBm).
	Threshold units.DBm
	// TxPower is the common device transmit power (Table I: 23 dBm).
	TxPower units.DBm
	// CaptureMarginDB controls same-slot same-codec collision resolution
	// in BroadcastAll: a receiver decodes the strongest arriving PS only
	// when it exceeds the second strongest by this margin ("capture
	// effect"); otherwise all colliding PSs are lost at that receiver.
	// This is the "intra-group proximity signal interference due to
	// misalignment of devices" the paper notes. It must be ≥ 0; zero
	// disables the margin (strongest always captures).
	CaptureMarginDB float64
	// Preambles is the per-codec PRACH preamble pool size. Each sender in
	// a BroadcastAll draws one preamble uniformly; distinct preambles are
	// orthogonal (LTE Zadoff–Chu sequences), so collisions and capture
	// only play out among senders sharing a preamble, and a receiver can
	// decode several PSs in one slot. Values < 2 model a single shared
	// sequence (the default, and the paper's intra-codec reading).
	// Preambles > 1 requires PreambleSrc.
	Preambles int
	// PreambleSrc supplies the preamble draws.
	PreambleSrc *xrand.Stream
	// LinkSampler, when non-nil, replaces Channel.Sample for
	// link-addressed transmissions: it receives (from, to, distance,
	// slot) and returns the received power. This is where spatially
	// correlated shadowing (radio.ShadowMap) and time-correlated block
	// fading (radio.BlockFading) plug in; the default Channel draws both
	// terms i.i.d. per sample.
	LinkSampler func(from, to int, d units.Metre, slot units.Slot) units.DBm
	// SINRMode switches BroadcastAll's same-preamble resolution from the
	// capture-margin rule to a physical SINR detector: the strongest
	// arrival decodes iff its power over (noise + all other same-preamble
	// arrivals) meets RequiredSNRDB. Sub-threshold arrivals still count
	// as interference — the part the capture model approximates away.
	SINRMode bool
	// NoiseFloor is the receiver noise power for SINRMode (LTE PRACH:
	// radio.NoiseFloor(radio.PRACHBandwidthHz, 9) ≈ −104.7 dBm).
	NoiseFloor units.DBm
	// RequiredSNRDB is the detection SINR requirement for SINRMode.
	RequiredSNRDB float64
	// SenderStreams, when non-nil, holds one random stream per device;
	// broadcast channel draws for a transmission from device i come from
	// SenderStreams[i] instead of the shared Channel streams. This makes
	// the per-sender candidate evaluation of a BroadcastAll independent of
	// global draw order, so distinct senders can be evaluated concurrently
	// with bit-identical results. A non-nil LinkSampler takes precedence.
	// The merge handshakes keep the shared streams: they run in the
	// sequential protocol phase.
	SenderStreams []*xrand.Stream

	positions  []geo.Point
	grid       *geo.Grid
	idx        *LinkIndex
	reach      units.Metre
	counters   Counters
	collisions uint64
	scratch    []int

	// Reused delivery-path buffers (the zero-allocation broadcast path).
	// Slices returned by BroadcastAll/Resolve alias dels and are valid until
	// the next transmission on this transport.
	dels      []Delivery
	plan      BroadcastPlan
	groups    groupedArrivals
	groupsAlt groupedArrivals // counting-sort buffer of the preamble pass
	recvCount []int32         // counting-sort bucket offsets, len N+1
	preCount  []int32
	interf    []units.DBm
}

// NewTransport builds a transport for the given deployment. The candidate
// radius is the deterministic coverage radius stretched by marginDB of
// shadowing/fading headroom: devices beyond it are never probed (their mean
// path loss leaves them marginDB below threshold), devices inside it get a
// fresh channel sample per PS.
//
// idx is the deployment's link index when one is already built, nil to build
// it here: the grid query plus one log10 per directed candidate pair that
// dominates environment construction. A supplied idx must describe exactly
// the deployment, channel model and powers passed here (take it from
// LinkIndex of a transport built with identical inputs). The index is never
// mutated, so transports of one deployment share it read-only, and every
// lookup, row and draw is bit-identical to a freshly built one. The spatial
// grid is built either way: the direct fallback paths and beyond-radius
// queries need it.
func NewTransport(ch *radio.Channel, positions []geo.Point, txPower, threshold units.DBm, marginDB float64, idx *LinkIndex) *Transport {
	// Stretch the budget by marginDB to keep strong positive fades in.
	reach := radio.MaxRange(ch.Model, txPower.Add(units.DB(marginDB)), threshold, 1e6)
	cell := float64(reach)
	if cell <= 0 {
		cell = 1
	}
	t := &Transport{
		Channel:   ch,
		Threshold: threshold,
		TxPower:   txPower,
		positions: positions,
		grid:      geo.NewGrid(positions, cell),
		reach:     reach,
	}
	if idx == nil {
		idx = buildLinkIndex(t.grid, positions, float64(reach), ch, txPower)
	}
	t.idx = idx
	return t
}

// LinkIndex returns the transport's link-geometry index, nil when it is
// disabled. The index is shared read-only: callers must not modify it.
func (t *Transport) LinkIndex() *LinkIndex { return t.idx }

// DisableLinkIndex drops the transport back to direct per-call geometry (grid
// scan + distance + path loss on every sample). The two paths are bit
// identical; this exists so differential tests can run the reference side,
// and as an escape hatch if the O(Σ degree) cache memory is ever unwelcome.
func (t *Transport) DisableLinkIndex() { t.idx = nil }

// LinkGeometry returns the cached distance and deterministic mean received
// power for the ordered pair (from, to). ok is false when the pair is beyond
// the candidate radius or the cache is disabled; callers then fall back to
// computing the pair geometry directly.
func (t *Transport) LinkGeometry(from, to int) (d units.Metre, meanRx units.DBm, ok bool) {
	if t.idx != nil {
		if e, ok := t.idx.Entry(from, to); ok {
			return t.idx.dist[e], t.idx.meanRx[e], true
		}
	}
	return 0, 0, false
}

// N returns the number of devices on the transport.
func (t *Transport) N() int { return len(t.positions) }

// Position returns device i's position.
func (t *Transport) Position(i int) geo.Point { return t.positions[i] }

// Counters returns a copy of the current counters.
func (t *Transport) Counters() Counters { return t.counters }

// Collisions returns the cumulative number of contention groups (receiver ×
// preamble) in which no PS decoded because of same-slot interference — the
// capture margin unmet, or the SINR requirement failed with more than one
// arrival present. It is a pure observation of arbitration decisions already
// made, kept outside Counters so the differential fingerprints and goldens
// that compare Counters by value are untouched.
func (t *Transport) Collisions() uint64 { return t.collisions }

// RestoreCounters overwrites the counters and collision tally with saved
// values, for checkpoint restore.
func (t *Transport) RestoreCounters(c Counters, collisions uint64) {
	t.counters = c
	t.collisions = collisions
}

// BroadcastAll transmits one PS from every listed sender in the same slot
// and the same codec, resolving same-slot collisions per receiver with the
// capture model: among the above-threshold arrivals at a receiver, only the
// strongest is decoded, and only if it exceeds the runner-up by
// CaptureMarginDB (single arrivals always decode). Each sender is charged
// one transmission; only decoded PSs count as receptions. A one-sender wave
// cannot collide: every above-threshold arrival is delivered (plain
// threshold mode).
//
// BroadcastAll is the sequential composition of the three-step plan API:
// PlanBroadcastAll, EvalSender for each sender in order, Resolve. Callers
// that want to evaluate senders concurrently (the core run engine) drive
// the steps themselves.
func (t *Transport) BroadcastAll(senders []int, codec Codec, kind Kind, service func(sender int) int, slot units.Slot) []Delivery {
	p := t.PlanBroadcastAll(senders, codec, kind, service, slot)
	for k := range senders {
		t.scratch = p.EvalSender(k, t.scratch)
	}
	return p.Resolve()
}

// arrival is one candidate reception produced by EvalSender: the receiver,
// the delivery's link (Delivery.link) and the sampled received power. An
// arrival whose Rayleigh gain is deferred has u > 0: rssi then holds the
// power before fading and u the fading uniform, and the exact received
// power rssi + RayleighPowerDBAt(u) is paid for only when Resolve needs it.
// u = 0 marks rssi exact (RayleighUniform never returns 0).
type arrival struct {
	recv int32
	link int32
	rssi units.DBm
	u    float64
}

// exact returns the arrival's received power, computing a deferred gain
// exactly as radio.Channel.SampleAtLeast does.
func (a *arrival) exact() units.DBm {
	if a.u == 0 {
		return a.rssi
	}
	return a.rssi.Add(units.DB(xrand.RayleighPowerDBAt(a.u)))
}

// bounds returns lo ≤ exact() ≤ hi from the gain's bound tables, without a
// logarithm: float addition rounds monotonically, so bounding the gain
// bounds the rounded sum.
func (a *arrival) bounds() (lo, hi units.DBm) {
	if a.u == 0 {
		return a.rssi, a.rssi
	}
	gl, gh := xrand.RayleighPowerDBBounds(a.u)
	return a.rssi.Add(units.DB(gl)), a.rssi.Add(units.DB(gh))
}

// BroadcastPlan carries one same-slot broadcast wave through its three
// steps: sequential planning (transmission accounting and preamble draws
// from the shared stream), per-sender candidate evaluation (safe to run
// concurrently across distinct senders when the transport's channel draws
// are per-sender or stateless), and sequential resolution (collision
// arbitration, reception accounting, delivery ordering). The sequential
// composition of the steps is exactly BroadcastAll.
type BroadcastPlan struct {
	t        *Transport
	senders  []int
	codec    Codec
	kind     Kind
	service  func(sender int) int
	slot     units.Slot
	capture  bool  // capture/SINR grouping; false = one sender, plain threshold mode
	deferred bool  // EvalSender defers Rayleigh gains (see PlanBroadcastAll)
	preamble []int // per sender index, capture mode only; nil = all zero
	arrivals [][]arrival
}

// PlanBroadcastAll begins a broadcast wave: it charges one transmission per
// sender and performs all draws that must come from shared streams (the
// preamble assignment), leaving the per-sender channel evaluation to
// EvalSender. The returned plan is transport-owned and valid until the next
// wave; its buffers (per-sender arrival lists, preamble draws) are reused
// across waves so the steady state plans without allocating.
func (t *Transport) PlanBroadcastAll(senders []int, codec Codec, kind Kind, service func(sender int) int, slot units.Slot) *BroadcastPlan {
	p := &t.plan
	p.t = t
	p.senders = senders
	p.codec, p.kind, p.service, p.slot = codec, kind, service, slot
	// A single sender cannot collide: it falls back to plain threshold
	// delivery, which draws no preamble.
	p.capture = len(senders) != 1
	// Under the capture rule only each group's winner has its power read;
	// the rest are only compared, which Resolve mostly settles on bounds.
	// Every other mode reads every arrival's power: a one-sender wave
	// delivers them all, SINR sums them, a LinkSampler or Rician fading
	// draws no uniform to defer.
	p.deferred = p.capture && !t.SINRMode && t.LinkSampler == nil && t.SenderStreams != nil &&
		t.idx != nil && t.Channel.Fading == radio.FadingRayleigh
	if cap(p.arrivals) >= len(senders) {
		p.arrivals = p.arrivals[:len(senders)]
	} else {
		p.arrivals = append(p.arrivals[:cap(p.arrivals)],
			make([][]arrival, len(senders)-cap(p.arrivals))...)
	}
	t.counters.Tx[codec] += uint64(len(senders))
	t.counters.TxBytes[codec] += uint64(len(senders)) * PayloadBytes(kind)
	p.preamble = p.preamble[:0]
	if p.capture {
		// Preamble assignment: senders sharing a preamble contend;
		// distinct preambles are orthogonal. A nil/empty preamble list
		// means every sender shares preamble 0.
		pool := t.Preambles
		if pool >= 2 && t.PreambleSrc != nil {
			for range senders {
				p.preamble = append(p.preamble, t.PreambleSrc.Intn(pool))
			}
		}
	}
	return p
}

// EvalSender samples the channel from the k-th sender of the plan to every
// candidate neighbour, recording the arrivals the resolution step will
// arbitrate. scratch is the caller's candidate buffer (grown as needed and
// returned); concurrent callers must pass distinct buffers. Distinct k may
// be evaluated concurrently iff the transport's draws are per-sender
// (SenderStreams) or stateless (LinkSampler); with the default shared
// Channel streams the evaluation order is the draw order, so senders must
// be evaluated sequentially in index order.
func (p *BroadcastPlan) EvalSender(k int, scratch []int) []int {
	t := p.t
	s := p.senders[k]
	arr := p.arrivals[k][:0]
	if p.deferred {
		p.arrivals[k] = t.evalDeferred(s, arr)
		return scratch
	}
	// The capture model drops sub-threshold arrivals outright; the SINR
	// model keeps them — they still interfere.
	keep := t.Threshold
	if p.capture && t.SINRMode {
		keep = units.DBm(math.Inf(-1))
	}
	if t.idx != nil {
		ids, dist, mean := t.idx.Row(s)
		link := int32(t.idx.off[s]) + 1
		for q, j := range ids {
			if rx, ok := t.sample(s, int(j), dist[q], mean[q], keep, p.slot); ok {
				arr = append(arr, arrival{recv: j, link: link + int32(q), rssi: rx})
			}
		}
		p.arrivals[k] = arr
		return scratch
	}
	src := t.positions[s]
	scratch = t.grid.Neighbors(src, float64(t.reach), s, scratch[:0])
	for _, j := range scratch {
		d := units.Metre(src.Dist(t.positions[j]))
		var mean units.DBm
		if t.LinkSampler == nil {
			mean = t.Channel.MeanReceivedPower(t.TxPower, d)
		}
		if rx, ok := t.sample(s, j, d, mean, keep, p.slot); ok {
			arr = append(arr, arrival{recv: int32(j), rssi: rx})
		}
	}
	p.arrivals[k] = arr
	return scratch
}

// evalDeferred is EvalSender's capture-wave loop over sender s's row,
// appending its arrivals to arr. It draws each candidate's shadowing and
// fading uniform from s's stream exactly as radio.Channel.SampleAtLeast
// does, and decides the threshold on the gain's bounds: below it on the
// upper bound, the candidate is dropped; at or above it on the lower bound,
// the arrival is kept with its gain deferred. Only a candidate whose bounds
// straddle the threshold pays for its exact power here.
func (t *Transport) evalDeferred(s int, arr []arrival) []arrival {
	ids, _, mean := t.idx.Row(s)
	link := int32(t.idx.off[s]) + 1
	src := t.SenderStreams[s]
	sigma := t.Channel.ShadowSigmaDB
	thr := t.Threshold
	for q, j := range ids {
		p := mean[q]
		if sigma != 0 {
			p = p.Add(units.DB(src.LogNormalDB(sigma)))
		}
		u := src.RayleighUniform()
		gl, gh := xrand.RayleighPowerDBBounds(u)
		if !p.Add(units.DB(gh)).AtLeast(thr) {
			continue
		}
		a := arrival{recv: j, link: link + int32(q), rssi: p, u: u}
		if !p.Add(units.DB(gl)).AtLeast(thr) {
			if a.rssi, a.u = a.exact(), 0; !a.rssi.AtLeast(thr) {
				continue
			}
		}
		arr = append(arr, a)
	}
	return arr
}

// groupedArrival is Resolve's flat contention record: one evaluated arrival
// tagged with its contention group (receiver, preamble) and its sender.
// Within a group, records keep the senders' plan order, the contender order
// the previous map-of-slices grouping produced.
type groupedArrival struct {
	arrival
	preamble int32
	sender   int32
}

type groupedArrivals []groupedArrival

// groupArrivals fills t.groups with the wave's arrivals ordered by
// (receiver, preamble, sender index) without a comparison sort: stable
// counting-sort passes scatter them straight from the per-sender lists,
// visited in sender-index order — by receiver alone when every sender
// shares preamble 0, else by preamble into groupsAlt and then by receiver
// (an LSD radix sort), in O(arrivals + N + pool). A wave at n=5000 carries
// ~60k arrivals; the comparison sort's A·log A interface calls dominated
// the whole slot, and a per-wave map of per-group slices (the original
// grouping) allocates — this is the shape that is both fast and
// allocation-free. Both buffers grow amortized.
func (p *BroadcastPlan) groupArrivals() groupedArrivals {
	t := p.t
	total := 0
	for _, arr := range p.arrivals {
		total += len(arr)
	}
	g := slices.Grow(t.groups[:0], total)[:total]
	t.groups = g
	recv := zeroed(&t.recvCount, len(t.positions)+1)
	if len(p.preamble) == 0 {
		for _, arr := range p.arrivals {
			for i := range arr {
				recv[arr[i].recv+1]++
			}
		}
		prefixSum(recv)
		for k, s := range p.senders {
			for _, a := range p.arrivals[k] {
				g[recv[a.recv]] = groupedArrival{arrival: a, sender: int32(s)}
				recv[a.recv]++
			}
		}
		return g
	}
	pre := zeroed(&t.preCount, t.Preambles+1)
	for k, arr := range p.arrivals {
		pre[p.preamble[k]+1] += int32(len(arr))
	}
	prefixSum(pre)
	alt := slices.Grow(t.groupsAlt[:0], total)[:total]
	t.groupsAlt = alt
	for k, s := range p.senders {
		q := p.preamble[k]
		for _, a := range p.arrivals[k] {
			alt[pre[q]] = groupedArrival{arrival: a, preamble: int32(q), sender: int32(s)}
			pre[q]++
		}
	}
	for i := range alt {
		recv[alt[i].recv+1]++
	}
	prefixSum(recv)
	for i := range alt {
		g[recv[alt[i].recv]] = alt[i]
		recv[alt[i].recv]++
	}
	return g
}

// zeroed returns (*buf)[:n] cleared, growing *buf when it is shorter.
func zeroed(buf *[]int32, n int) []int32 {
	if cap(*buf) < n {
		*buf = make([]int32, n)
	}
	c := (*buf)[:n]
	clear(c)
	return c
}

// prefixSum turns per-bucket counts, shifted up by one, into each bucket's
// start offset.
func prefixSum(c []int32) {
	for i := 1; i < len(c); i++ {
		c[i] += c[i-1]
	}
}

// Resolve arbitrates the evaluated arrivals into deliveries: in capture
// mode it groups arrivals per (receiver, preamble) and applies the capture
// or SINR rule, so deliveries come out sorted by receiver; a one-sender
// wave delivers every above-threshold arrival in the sender's neighbour
// order, one delivery per receiver. Decoded PSs are charged to the reception counters here. The
// returned slice aliases a transport-owned buffer and is valid until the
// next transmission.
func (p *BroadcastPlan) Resolve() []Delivery {
	t := p.t
	out := t.dels[:0]
	if !p.capture {
		s := p.senders[0]
		for _, a := range p.arrivals[0] {
			t.counters.Rx[p.codec]++
			out = append(out, Delivery{
				To: int(a.recv),
				Msg: Message{
					From: s, Codec: p.codec, Kind: p.kind,
					Service: p.service(s), Slot: p.slot, RSSI: a.rssi,
				},
				link: a.link,
			})
		}
		t.dels = out
		return out
	}
	g := p.groupArrivals()
	for lo := 0; lo < len(g); {
		hi := lo + 1
		for hi < len(g) && g[hi].recv == g[lo].recv && g[hi].preamble == g[lo].preamble {
			hi++
		}
		arr := g[lo:hi]
		var win int
		if t.SINRMode {
			win = t.sinrWinner(arr)
		} else {
			win = t.captureWinner(arr)
		}
		if win >= 0 {
			a := &arr[win]
			t.counters.Rx[p.codec]++
			out = append(out, Delivery{
				To: int(a.recv),
				Msg: Message{
					From: int(a.sender), Codec: p.codec, Kind: p.kind,
					Service: p.service(int(a.sender)), Slot: p.slot, RSSI: a.exact(),
				},
				link: a.link,
			})
		}
		lo = hi
	}
	t.dels = out
	return out
}

// strongest returns the index of the first strongest arrival of a contention
// group and the index of a strongest other one (−1 for a lone arrival), on
// exact powers.
func strongest(arr []groupedArrival) (best, second int) {
	best, second = 0, -1
	for i := 1; i < len(arr); i++ {
		switch {
		case arr[i].rssi > arr[best].rssi:
			second = best
			best = i
		case second == -1 || arr[i].rssi > arr[second].rssi:
			second = i
		}
	}
	return best, second
}

// captureWinner applies the capture rule to one contention group: the
// strongest arrival decodes iff it exceeds the runner-up by
// CaptureMarginDB. It returns the winner's index, or −1 for a collision
// (counted). The rule is first decided on the arrivals' power bounds, which
// settle it for all but a few groups without a logarithm. With B and S the
// exact best and runner-up powers, B ≤ the largest upper bound and S ≥ the
// second-largest lower bound, so a bound gap short of the margin is a
// collision; and an arrival whose lower bound exceeds every other upper
// bound is the unique best, with B − S at least that excess, so an excess
// that meets the margin is a capture. Float subtraction rounds
// monotonically, so each decision is the one the exact powers give. Groups
// the bounds leave open have every gain computed and the rule applied
// exactly.
func (t *Transport) captureWinner(arr []groupedArrival) int {
	if len(arr) == 1 {
		return 0
	}
	margin := t.CaptureMarginDB
	// b holds the largest lower bound lo1, lo2 is the second largest; hi1
	// is the largest upper bound, held by h, and hi2 the second largest.
	b, h := 0, 0
	lo1, hi1 := arr[0].bounds()
	lo2, hi2 := units.DBm(math.Inf(-1)), units.DBm(math.Inf(-1))
	for i := 1; i < len(arr); i++ {
		l, u := arr[i].bounds()
		if l > lo1 {
			lo2, lo1, b = lo1, l, i
		} else if l > lo2 {
			lo2 = l
		}
		if u > hi1 {
			hi2, hi1, h = hi1, u, i
		} else if u > hi2 {
			hi2 = u
		}
	}
	if float64(hi1-lo2) < margin {
		t.collisions++
		return -1
	}
	other := hi1 // the largest upper bound among arrivals other than b
	if h == b {
		other = hi2
	}
	if lo1 > other && float64(lo1-other) >= margin {
		return b
	}
	for i := range arr {
		arr[i].rssi, arr[i].u = arr[i].exact(), 0
	}
	best, second := strongest(arr)
	if second >= 0 && float64(arr[best].rssi-arr[second].rssi) < margin {
		t.collisions++
		return -1
	}
	return best
}

// sinrWinner applies the SINR detector to one contention group of exact
// powers: the strongest arrival decodes iff its power over noise plus every
// other arrival meets RequiredSNRDB. It returns the winner's index, or −1
// when detection fails — a collision (counted) when contenders were
// present; a lone sub-threshold arrival failing SINR is noise.
func (t *Transport) sinrWinner(arr []groupedArrival) int {
	best, _ := strongest(arr)
	interferers := t.interf[:0]
	for i := range arr {
		if i != best {
			interferers = append(interferers, arr[i].rssi)
		}
	}
	t.interf = interferers
	if !radio.Detectable(radio.SINR(arr[best].rssi, interferers, t.NoiseFloor), t.RequiredSNRDB) {
		if len(arr) > 1 {
			t.collisions++
		}
		return -1
	}
	return best
}

// sample draws one link-addressed received-power observation and reports
// whether it meets keep: through the LinkSampler when configured, from the
// sender's own stream when SenderStreams is set, and from the shared i.i.d.
// Channel otherwise. The channel branches add their draws to the pair's
// deterministic mean received power; the LinkSampler branch ignores it and
// takes the distance — correlated-shadowing samplers key off the pair, not
// the mean. The channel branches go through radio.Channel.SampleAtLeast,
// which skips the fading transform of a sample certain to miss keep; keep =
// −Inf has every sample computed in full.
func (t *Transport) sample(from, to int, d units.Metre, mean, keep units.DBm, slot units.Slot) (units.DBm, bool) {
	if t.LinkSampler != nil {
		rx := t.LinkSampler(from, to, d, slot)
		return rx, rx.AtLeast(keep)
	}
	var src *xrand.Stream
	if t.SenderStreams != nil {
		src = t.SenderStreams[from]
	}
	return t.Channel.SampleAtLeast(src, mean, keep)
}

// MeanRSSI returns the expected (path-loss-only) received power between two
// devices — what multi-sample RSSI averaging converges to, and the natural
// deterministic edge weight for verification against reference MSTs.
func (t *Transport) MeanRSSI(from, to int) units.DBm {
	if _, mean, ok := t.LinkGeometry(from, to); ok {
		return mean
	}
	d := units.Metre(t.positions[from].Dist(t.positions[to]))
	return t.Channel.MeanReceivedPower(t.TxPower, d)
}

// DeterministicNeighbors returns the ids of devices whose *mean* received
// power from device i meets the threshold — the zero-fading adjacency used
// to build the reference graph G(V,E).
func (t *Transport) DeterministicNeighbors(i int) []int {
	detReach := radio.MaxRange(t.Channel.Model, t.TxPower, t.Threshold, 1e6)
	if t.idx != nil && detReach <= t.reach {
		// The cached candidate row is a radius-reach grid query in cell-scan
		// order; restricting it to Dist2 ≤ detReach² yields exactly the ids,
		// in exactly the order, a direct radius-detReach query would return
		// (both scans walk cells lexicographically from the same centre, and
		// within-cell bucket order is fixed). The distance filter must use
		// Dist2 like the grid does — the cached hypot distance can round the
		// other way at the boundary.
		src := t.positions[i]
		r2 := float64(detReach) * float64(detReach)
		ids, _, mean := t.idx.Row(i)
		var out []int
		for q, j := range ids {
			if src.Dist2(t.positions[j]) <= r2 && mean[q].AtLeast(t.Threshold) {
				out = append(out, int(j))
			}
		}
		return out
	}
	cands := t.grid.Neighbors(t.positions[i], float64(detReach), i, nil)
	out := cands[:0]
	for _, j := range cands {
		if t.MeanRSSI(i, j).AtLeast(t.Threshold) {
			out = append(out, j)
		}
	}
	return out
}
