package main

import (
	"fmt"
	"sort"
	"time"

	"manetkit/internal/emunet"
	"manetkit/internal/harness"
	"manetkit/internal/mnet"
	"manetkit/internal/mono"
	"manetkit/internal/system"
	"manetkit/internal/testbed"
	"manetkit/internal/vclock"
)

// frameRec is one control frame as a node's NIC saw it arrive.
type frameRec struct {
	at      time.Duration // virtual time since testbed.Epoch
	src     mnet.Addr
	dst     mnet.Addr
	payload []byte
}

// recording is everything one node (self) received over a stretch of
// virtual time — the input of every single-node replay.
type recording struct {
	family string
	self   mnet.Addr
	frames []frameRec
	from   time.Duration // virtual instant (since testbed.Epoch) recording began
	length time.Duration // virtual instant it ended; a replay runs this long
}

// recorder captures the control frames delivered to one node. It is a
// Network.SetTap hook and is installed only in set-up and traced phases.
type recorder struct {
	clk  *vclock.Virtual
	self mnet.Addr
	rec  *recording
}

func newRecorder(clk *vclock.Virtual, family string, self mnet.Addr) *recorder {
	return &recorder{clk: clk, self: self, rec: &recording{family: family, self: self, from: clk.Now().Sub(testbed.Epoch)}}
}

func (r *recorder) observe(f emunet.Frame, receiver mnet.Addr) {
	if receiver != r.self || f.Corrupted || !system.IsControlFrame(f.Payload) {
		return
	}
	r.rec.frames = append(r.rec.frames, frameRec{
		at:      r.clk.Now().Sub(testbed.Epoch),
		src:     f.Src,
		dst:     f.Dst,
		payload: append([]byte(nil), f.Payload...),
	})
}

func (r *recorder) finish() *recording {
	r.rec.length = r.clk.Now().Sub(testbed.Epoch)
	return r.rec
}

// span is the stretch of virtual time the recorder was listening for: a
// recording started after a warm-up covers less than its length.
func (rec *recording) span() time.Duration { return rec.length - rec.from }

// senders lists the distinct frame sources of a recording, sorted.
func (rec *recording) senders() []mnet.Addr {
	seen := map[mnet.Addr]bool{}
	var out []mnet.Addr
	for i := range rec.frames {
		if s := rec.frames[i].src; !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// digest folds the recording into two integers: how many frames, and an
// order-sensitive hash of their instants, sources and bytes.
func (rec *recording) digest() (frames int64, hash int64) {
	h := uint64(14695981039346656037)
	mix := func(b byte) { h = (h ^ uint64(b)) * 1099511628211 }
	for i := range rec.frames {
		f := &rec.frames[i]
		for s := uint(0); s < 64; s += 8 {
			mix(byte(uint64(f.at) >> s))
		}
		for _, b := range f.src {
			mix(b)
		}
		for _, b := range f.payload {
			mix(b)
		}
	}
	return int64(len(rec.frames)), int64(h >> 1)
}

// replayNet is a fresh medium holding the replayed node and one phantom
// NIC per recorded sender. Only phantom→self links exist: what the node
// transmits leaves its NIC and reaches nobody, as on a radio with no
// listeners, so both sides pay for emission but not for fan-out.
type replayNet struct {
	clk      *vclock.Virtual
	net      *emunet.Network
	phantoms map[mnet.Addr]*emunet.NIC
}

func (rn *replayNet) addPhantoms(rec *recording) error {
	rn.phantoms = make(map[mnet.Addr]*emunet.NIC)
	for _, a := range rec.senders() {
		nic, err := rn.net.Attach(a)
		if err != nil {
			return err
		}
		if err := rn.net.SetDirectedLink(a, rec.self, emunet.DefaultQuality()); err != nil {
			return err
		}
		rn.phantoms[a] = nic
	}
	return nil
}

// play re-sends every recorded frame from its phantom at its original
// virtual instant, advancing the clock in between so that timers, deferred
// route computation and the node's own emissions happen inside the call.
// It returns how many timers fired and how many sends failed.
func (rn *replayNet) play(rec *recording) (fired, failed int) {
	for i := range rec.frames {
		f := &rec.frames[i]
		fired += rn.clk.RunUntil(testbed.Epoch.Add(f.at))
		if err := rn.phantoms[f.src].Send(f.dst, f.payload); err != nil {
			failed++
		}
	}
	fired += rn.clk.RunUntil(testbed.Epoch.Add(rec.length))
	return fired, failed
}

// playUntil is play in instalments, for the output checks: it replays the
// frames from index next that fall before the virtual instant until, runs
// the clock up to it, and returns the index to resume from.
func (rn *replayNet) playUntil(rec *recording, next int, until time.Duration) int {
	for ; next < len(rec.frames) && rec.frames[next].at < until; next++ {
		f := &rec.frames[next]
		rn.clk.RunUntil(testbed.Epoch.Add(f.at))
		_ = rn.phantoms[f.src].Send(f.dst, f.payload)
	}
	rn.clk.RunUntil(testbed.Epoch.Add(until))
	return next
}

// kitReplay is a single-node MANETKit stack (System CF plus the family's
// units) ready to receive a recording.
type kitReplay struct {
	replayNet
	c   *testbed.Cluster
	fam *harness.FamilyNode
}

// newKitReplay builds the stack; the family deploy is timed on its own.
func newKitReplay(rec *recording) (*kitReplay, time.Duration, error) {
	c, err := testbed.New(0, testbed.Options{Seed: 1})
	if err != nil {
		return nil, 0, err
	}
	node, err := c.AddNode(rec.self)
	if err != nil {
		return nil, 0, err
	}
	sw := startWatch()
	fam, err := harness.DeployFamily(c, node, rec.family)
	deploy := sw.elapsed()
	if err != nil {
		c.Close()
		return nil, 0, err
	}
	k := &kitReplay{replayNet: replayNet{clk: c.Clock, net: c.Net}, c: c, fam: fam}
	if err := k.addPhantoms(rec); err != nil {
		c.Close()
		return nil, 0, err
	}
	return k, deploy, nil
}

// monoRouter is what both monolithic protocols offer for route checks.
type monoRouter interface {
	Lookup(dst mnet.Addr) (mono.Hop, bool)
	Stop()
}

// monoReplay is the monolithic counterpart on an identical medium.
type monoReplay struct {
	replayNet
	proto monoRouter
}

func newMonoReplay(rec *recording) (*monoReplay, error) {
	clk := vclock.NewVirtual(testbed.Epoch)
	m := &monoReplay{replayNet: replayNet{clk: clk, net: emunet.New(clk, 1)}}
	nic, err := m.net.Attach(rec.self)
	if err != nil {
		return nil, err
	}
	switch rec.family {
	case "olsr":
		o := mono.NewOLSR(nic, clk, mono.OLSRConfig{HelloInterval: harness.HelloInterval, TCInterval: harness.TCInterval})
		o.Start()
		m.proto = o
	case "dymo":
		d := mono.NewDYMO(nic, clk, mono.DYMOConfig{RouteLifetime: harness.RouteLifetime})
		d.Start()
		m.proto = d
	default:
		return nil, fmt.Errorf("replay: no monolithic %q", rec.family)
	}
	if err := m.addPhantoms(rec); err != nil {
		return nil, err
	}
	return m, nil
}

// hop is one usable route: where to send next and how far the destination
// is.
type hop struct {
	next   mnet.Addr
	metric int
}

// routeSet is a node's usable routes by destination.
type routeSet map[mnet.Addr]hop

// routes looks every candidate destination up in the kit stack's RIBs.
func (k *kitReplay) routes(candidates []mnet.Addr) routeSet {
	out := routeSet{}
	for _, name := range sortedRIBs(k.fam.RIBs) {
		for _, dst := range candidates {
			if _, p, err := k.fam.RIBs[name].Lookup(dst); err == nil {
				out[dst] = hop{p.NextHop, p.Metric}
			}
		}
	}
	return out
}

func (m *monoReplay) routes(candidates []mnet.Addr) routeSet {
	out := routeSet{}
	for _, dst := range candidates {
		if h, ok := m.proto.Lookup(dst); ok {
			out[dst] = hop{h.NextHop, h.Metric}
		}
	}
	return out
}

// diffRoutes names every destination on which the two sides disagree:
// reachable on one side only, at a different distance, or through something
// that is not a neighbour. On a grid most destinations have several
// shortest paths and the two implementations break ties differently (kit:
// smallest next hop; mono: map order), so equal next hops are required only
// where the distance leaves no choice, that is for the neighbours
// themselves.
func diffRoutes(rec *recording, kit, mon routeSet, candidates []mnet.Addr) []string {
	neighbour := map[mnet.Addr]bool{}
	for _, a := range rec.senders() {
		neighbour[a] = true
	}
	var out []string
	for _, dst := range candidates {
		k, kok := kit[dst]
		m, mok := mon[dst]
		switch {
		case kok != mok:
			out = append(out, fmt.Sprintf("%s: route to %v: kit has=%v mono has=%v", rec.family, dst, kok, mok))
		case !kok:
		case k.metric != m.metric:
			out = append(out, fmt.Sprintf("%s: distance to %v: kit %d, mono %d", rec.family, dst, k.metric, m.metric))
		case !neighbour[k.next] || !neighbour[m.next]:
			out = append(out, fmt.Sprintf("%s: next hop to %v is not a neighbour: kit %v, mono %v", rec.family, dst, k.next, m.next))
		case k.metric == 1 && k.next != m.next:
			out = append(out, fmt.Sprintf("%s: next hop to neighbour %v: kit %v, mono %v", rec.family, dst, k.next, m.next))
		}
	}
	return out
}
