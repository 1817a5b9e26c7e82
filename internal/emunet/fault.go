package emunet

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"manetkit/internal/mnet"
)

// FaultPlan is a seeded, scripted schedule of medium-level faults: network
// partitions that later heal, node crash+restart (Detach/Reattach with the
// deployment layer invoked for state loss), and windows of frame
// corruption, duplication and reordering injected into the delivery path.
//
// All fault timing runs on the network's clock, and all fault randomness
// comes from a dedicated generator seeded by Seed — independent of the
// medium's loss process — so a plan replayed against an identically seeded
// Network produces byte-identical Stats and firing logs. Build a plan with
// the fluent helpers, then Apply it:
//
//	plan := emunet.NewFaultPlan(7).
//		Partition(15*time.Second, 25*time.Second, groupA, groupB).
//		Crash(27*time.Second, 33*time.Second, addrs[2]).
//		CorruptFrames(36*time.Second, 44*time.Second, 0.25)
//	inj := plan.Apply(net)
//	... drive the clock ...
//	for _, line := range inj.Log() { fmt.Println(line) }
type FaultPlan struct {
	// Seed drives the fault randomness (corruption positions, duplication
	// and reorder draws). Zero means 1.
	Seed int64
	// OnCrash, when non-nil, runs right after a Crash event detaches the
	// node — the deployment layer's chance to halt the node's protocols.
	OnCrash func(addr mnet.Addr)
	// OnRestart, when non-nil, runs right after the node is re-attached —
	// the deployment layer's chance to flush protocol state (the "with
	// state loss" half of crash+restart) and restart its protocols.
	OnRestart func(addr mnet.Addr)

	events []planEvent
}

type planEvent struct {
	at  time.Duration
	run func(n *Network, inj *Injector)
}

// NewFaultPlan returns an empty plan with the given fault seed.
func NewFaultPlan(seed int64) *FaultPlan { return &FaultPlan{Seed: seed} }

// Partition cuts, at time at, every link that crosses between the given
// node groups (both directions, quality remembered), and restores the cut
// links at time heal. Nodes absent from every group keep all their links.
// A link a crash also holds down stays down until the crashed endpoint
// restarts (see Injector).
func (p *FaultPlan) Partition(at, heal time.Duration, groups ...[]mnet.Addr) *FaultPlan {
	group := make(map[mnet.Addr]int)
	for i, g := range groups {
		for _, a := range g {
			group[a] = i
		}
	}
	crosses := func(from, to mnet.Addr) bool {
		gi, iok := group[from]
		gj, jok := group[to]
		return iok && jok && gi != gj
	}
	var held [][2]mnet.Addr
	p.events = append(p.events, planEvent{at, func(n *Network, inj *Injector) {
		var cut int
		held, cut = inj.hold(n, crosses)
		inj.logf(n, "partition %s: cut %d links", describeGroups(groups), cut)
	}})
	p.events = append(p.events, planEvent{heal, func(n *Network, inj *Injector) {
		inj.logf(n, "heal: restored %d links", inj.release(n, held))
	}})
	return p
}

// Crash detaches addr from the medium at time at — its transmissions fail
// and in-flight deliveries to it are dropped — and re-attaches it at time
// restart with its crash-time links restored, except those an open
// partition still holds down. The plan's OnCrash/OnRestart hooks let the
// deployment layer stop the node's protocols and flush their state,
// completing the "restart with state loss" semantics.
func (p *FaultPlan) Crash(at, restart time.Duration, addr mnet.Addr) *FaultPlan {
	var nic *NIC
	var held [][2]mnet.Addr
	p.events = append(p.events, planEvent{at, func(n *Network, inj *Injector) {
		got, ok := n.NIC(addr)
		if !ok {
			inj.logf(n, "crash %v: skipped, not attached", addr)
			return
		}
		nic = got
		var lost int
		held, lost = inj.hold(n, func(from, to mnet.Addr) bool { return from == addr || to == addr })
		_ = n.Detach(addr)
		inj.logf(n, "crash %v: detached, %d links lost", addr, lost)
		if p.OnCrash != nil {
			p.OnCrash(addr)
		}
	}})
	p.events = append(p.events, planEvent{restart, func(n *Network, inj *Injector) {
		if nic == nil {
			inj.logf(n, "restart %v: skipped, never crashed", addr)
			return
		}
		if err := n.Reattach(nic); err != nil {
			inj.logf(n, "restart %v: %v", addr, err)
			return
		}
		restored := inj.release(n, held)
		inj.logf(n, "restart %v: re-attached, %d links restored", addr, restored)
		if p.OnRestart != nil {
			p.OnRestart(addr)
		}
	}})
	return p
}

// CorruptFrames mangles each delivered frame with probability prob during
// [from, to): one to three payload bytes are flipped and the frame's
// Corrupted bit is set (the FCS-would-have-failed marker).
func (p *FaultPlan) CorruptFrames(from, to time.Duration, prob float64) *FaultPlan {
	return p.window(from, to, "corrupt", prob, func(inj *Injector, v float64) { inj.corruptP = v })
}

// DuplicateFrames delivers an extra copy of each frame with probability
// prob during [from, to); the duplicate arrives one propagation delay late.
func (p *FaultPlan) DuplicateFrames(from, to time.Duration, prob float64) *FaultPlan {
	return p.window(from, to, "duplicate", prob, func(inj *Injector, v float64) { inj.dupP = v })
}

// ReorderFrames delays each frame by a random jitter in (0, jitter] with
// probability prob during [from, to), letting later transmissions overtake
// it.
func (p *FaultPlan) ReorderFrames(from, to time.Duration, prob float64, jitter time.Duration) *FaultPlan {
	if jitter <= 0 {
		jitter = 5 * time.Millisecond
	}
	p.events = append(p.events, planEvent{from, func(n *Network, inj *Injector) {
		inj.reorderP, inj.jitter = prob, jitter
		inj.logf(n, "reorder window on p=%g jitter=%v", prob, jitter)
	}})
	p.events = append(p.events, planEvent{to, func(n *Network, inj *Injector) {
		inj.reorderP = 0
		inj.logf(n, "reorder window off")
	}})
	return p
}

func (p *FaultPlan) window(from, to time.Duration, kind string, prob float64, set func(*Injector, float64)) *FaultPlan {
	p.events = append(p.events, planEvent{from, func(n *Network, inj *Injector) {
		set(inj, prob)
		inj.logf(n, "%s window on p=%g", kind, prob)
	}})
	p.events = append(p.events, planEvent{to, func(n *Network, inj *Injector) {
		set(inj, 0)
		inj.logf(n, "%s window off", kind)
	}})
	return p
}

// Apply installs the plan's injector on the network and schedules every
// event on the network's clock, relative to now. It returns the Injector,
// whose Log method yields the deterministic firing log.
func (p *FaultPlan) Apply(n *Network) *Injector {
	seed := p.Seed
	if seed == 0 {
		seed = 1
	}
	inj := &Injector{
		rng:   rand.New(rand.NewSource(seed)),
		epoch: n.clock.Now(),
		held:  make(map[[2]mnet.Addr]*heldLink),
	}
	n.mu.Lock()
	n.inj = inj
	n.mu.Unlock()

	// Stable order: events scheduled in plan order; the virtual clock
	// breaks equal-deadline ties by registration sequence. Events due at or
	// before now run immediately so a window opening at t=0 covers frames
	// sent before the clock first advances.
	for _, ev := range p.events {
		ev := ev
		if ev.at <= 0 {
			ev.run(n, inj)
			continue
		}
		n.ScheduleAt(ev.at, func(net *Network) { ev.run(net, inj) })
	}
	return inj
}

// Injector is the live fault state installed by FaultPlan.Apply: the
// per-frame fault probabilities, the dedicated fault randomness, the ledger
// of links the plan holds down, and the firing log. All fields are guarded
// by the owning Network's mutex.
type Injector struct {
	rng      *rand.Rand
	epoch    time.Time
	corruptP float64
	dupP     float64
	reorderP float64
	jitter   time.Duration
	log      []string

	// held is the ledger: every directed link an open partition or a
	// crashed endpoint holds down, with its quality when it was cut and
	// the number of faults holding it. A heal or a restart restores only
	// the links nothing holds any more, so overlapping partitions and
	// crashes compose in any order.
	held map[[2]mnet.Addr]*heldLink
}

type heldLink struct {
	q     Quality
	holds int
}

// injectLocked applies per-frame faults to f, one receiver's copy of a
// transmission sent at deadline key nowAt: possibly corrupts it and, unless
// acked (the MAC-feedback path, whose 802.11 ACK exchange suppresses both),
// possibly schedules a duplicate and possibly delays f by reorder jitter.
// Caller holds the network mutex.
func (inj *Injector) injectLocked(n *Network, nowAt int64, to *neighborLink, f *Frame, delay *time.Duration, acked bool) {
	if inj.corruptP > 0 && inj.rng.Float64() < inj.corruptP {
		inj.corruptFrameLocked(n, to.to, f)
	}
	if acked {
		return
	}
	if inj.dupP > 0 && inj.rng.Float64() < inj.dupP {
		// A duplicate is its own copy of the bytes, so it decodes privately.
		dup := n.newDeliveryLocked(to.nic, f, nil, nil)
		dup.frame.Payload = append([]byte(nil), f.Payload...)
		dup.frame.shared = nil
		n.stats.Duplicated++
		inj.logf(n, "duplicate %v->%v (%dB)", f.Src, to.to, len(f.Payload))
		n.waitLocked(dup, nowAt, *delay*2)
	}
	if inj.reorderP > 0 && inj.rng.Float64() < inj.reorderP {
		// 1..jitter in whole clock ticks of the jitter's granularity.
		extra := time.Duration(inj.rng.Int63n(int64(inj.jitter))) + 1
		*delay += extra
		n.stats.Reordered++
		inj.logf(n, "reorder %v->%v +%v", f.Src, to.to, extra)
	}
}

func (inj *Injector) corruptFrameLocked(n *Network, to mnet.Addr, f *Frame) {
	if len(f.Payload) == 0 {
		return
	}
	buf := append([]byte(nil), f.Payload...)
	flips := 1 + inj.rng.Intn(3)
	if flips > len(buf) {
		flips = len(buf)
	}
	for i := 0; i < flips; i++ {
		pos := inj.rng.Intn(len(buf))
		buf[pos] ^= byte(1 + inj.rng.Intn(255))
	}
	// The mangled copy is no longer byte-identical to its siblings: detach it
	// from their decode slot so it neither poisons nor reuses their result.
	f.Payload = buf
	f.shared = nil
	f.Corrupted = true
	n.stats.Corrupted++
	inj.logf(n, "corrupt %v->%v flip %d/%dB", f.Src, to, flips, len(buf))
}

// logf appends one timestamped line to the firing log. Callers either hold
// the network mutex or run on the clock goroutine from a plan event; plan
// events take the mutex here.
func (inj *Injector) logf(n *Network, format string, args ...any) {
	line := fmt.Sprintf("t=%v ", n.clock.Now().Sub(inj.epoch)) + fmt.Sprintf(format, args...)
	inj.log = append(inj.log, line)
}

// Log returns a copy of the firing log: one line per plan event fired and
// per frame-level fault injected, in deterministic order.
func (inj *Injector) Log() []string {
	return append([]string(nil), inj.log...)
}

// hold takes one more hold on every directed link match selects, live or
// already in the ledger, cutting the live ones. It returns the selected
// links for the matching release (in no particular order: restoring is
// order-free), and how many were live.
func (inj *Injector) hold(n *Network, match func(from, to mnet.Addr) bool) ([][2]mnet.Addr, int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	cut := 0
	n.cutLocked(match, func(from mnet.Addr, l neighborLink) {
		k := [2]mnet.Addr{from, l.to}
		if inj.held[k] == nil {
			inj.held[k] = &heldLink{}
		}
		inj.held[k].q = l.q
		cut++
	})
	var links [][2]mnet.Addr
	for k, h := range inj.held {
		if match(k[0], k[1]) {
			h.holds++
			links = append(links, k)
		}
	}
	return links, cut
}

// release drops the holds hold took on links and re-installs those nothing
// holds any more, skipping endpoints that have left the network meanwhile.
// It returns the number restored.
func (inj *Injector) release(n *Network, links [][2]mnet.Addr) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	restored := 0
	for _, k := range links {
		h := inj.held[k]
		if h.holds--; h.holds > 0 {
			continue
		}
		delete(inj.held, k)
		if n.setLinkLocked(k[0], k[1], h.q) == nil {
			restored++
		}
	}
	return restored
}

func describeGroups(groups [][]mnet.Addr) string {
	parts := make([]string, len(groups))
	for i, g := range groups {
		elems := make([]string, len(g))
		for j, a := range g {
			elems[j] = a.String()
		}
		parts[i] = "{" + strings.Join(elems, ",") + "}"
	}
	return strings.Join(parts, "|")
}
