package olsr

import (
	"slices"
	"sync"

	"manetkit/internal/core"
	"manetkit/internal/event"
	"manetkit/internal/mpr"
	"manetkit/internal/packetbb"
)

// DefaultFisheyePattern is the classic fisheye TTL sequence: most TC
// emissions reach only nearby scopes; every third travels the full network.
var DefaultFisheyePattern = []uint8{2, 2, 255}

// NewFisheye builds the fisheye-routing variant component (§5.1): a CFS
// unit that both requires and provides TC_OUT, so the Framework Manager
// automatically interposes it in the TC_OUT path. It rewrites the TTL of
// locally-originated TC messages following the given pattern, refreshing
// topology frequently for nearby nodes and rarely for distant ones —
// trading optimal long-distance routes for scalability.
//
// Deploying the unit inserts the behaviour; undeploying removes it. No
// OLSR code changes in either direction.
func NewFisheye(name string, pattern []uint8) *core.Protocol {
	if name == "" {
		name = "fisheye"
	}
	if len(pattern) == 0 {
		pattern = DefaultFisheyePattern
	}
	p := core.NewProtocol(name)
	p.SetTuple(event.Tuple{
		Required: []event.Requirement{{Type: event.TCOut}},
		Provided: []event.Type{event.TCOut},
	})
	var mu sync.Mutex
	emissions := 0
	h := core.NewHandler("fisheye-ttl", event.TCOut, func(ctx *core.Context, ev *event.Event) error {
		if ev.Msg == nil {
			return nil
		}
		// Forwarded TCs (hop count > 0) pass through untouched; only the
		// local origination schedule is fisheyed.
		if ev.Msg.HopCount > 0 || ev.Msg.Originator != ctx.Node() {
			ctx.Emit(ev)
			return nil
		}
		mu.Lock()
		ttl := pattern[emissions%len(pattern)]
		emissions++
		mu.Unlock()
		out := *ev
		out.Msg = ev.Msg.Clone()
		if out.Msg.HopLimit > ttl {
			out.Msg.HopLimit = ttl
		}
		ctx.Emit(&out)
		return nil
	})
	if err := p.AddHandler(h); err != nil {
		panic(err)
	}
	return p
}

// EnablePowerAware applies the power-aware routing variant (§5.1):
//
//  1. the MPR CF's calculator is replaced by the power-aware version
//     (relay selection maximises residual battery);
//  2. a ResidualPower component is plugged into the OLSR CF — it tracks
//     the node's own battery from POWER_STATUS context events and
//     disseminates it in TC messages via the TLVResidualPower TLV;
//  3. the OLSR tuple additionally requires POWER_STATUS (declarative
//     rewire).
func (o *OLSR) EnablePowerAware() error {
	if err := o.m.SetCalculator(mpr.NewPowerAwareCalculator()); err != nil {
		return err
	}
	rp := core.NewHandler("residual-power", event.PowerStatus,
		func(ctx *core.Context, ev *event.Event) error {
			if ev.Power != nil {
				o.state.SetOwnPower(ev.Power.Fraction)
			}
			return nil
		})
	if err := o.proto.AddHandler(rp); err != nil {
		return err
	}
	t := o.proto.Tuple()
	t.Required = append(t.Required, event.Requirement{Type: event.PowerStatus})
	o.proto.SetTuple(t)
	o.setPowerAware(true)
	return nil
}

// DisablePowerAware removes the variant, restoring the greedy calculator.
func (o *OLSR) DisablePowerAware() error {
	if err := o.m.SetCalculator(mpr.NewGreedyCalculator()); err != nil {
		return err
	}
	if err := o.proto.RemoveHandler("residual-power"); err != nil {
		return err
	}
	t := o.proto.Tuple()
	t.Required = slices.DeleteFunc(slices.Clone(t.Required), func(r event.Requirement) bool { return r.Type == event.PowerStatus })
	o.proto.SetTuple(t)
	o.setPowerAware(false)
	return nil
}

func (o *OLSR) setPowerAware(on bool) {
	o.state.mu.Lock()
	o.state.powerAware = on
	o.state.mu.Unlock()
}

// PowerAware reports whether the variant is active.
func (o *OLSR) PowerAware() bool {
	o.state.mu.Lock()
	defer o.state.mu.Unlock()
	return o.state.powerAware
}

// powerTLV returns the residual-power TLV for outgoing TCs when the
// variant is enabled.
func (o *OLSR) powerTLV() (packetbb.TLV, bool) {
	o.state.mu.Lock()
	defer o.state.mu.Unlock()
	if !o.state.powerAware {
		return packetbb.TLV{}, false
	}
	pct := uint8(o.state.ownPower * 100)
	return packetbb.TLV{Type: TLVResidualPower, Value: packetbb.U8(pct)}, true
}

// NewHysteresis builds the link-hysteresis filter of Fig 5 as an
// NHOOD_CHANGE interposer: a neighbour must be observed `threshold` times
// before its appearance events pass upward, damping flapping links. Loss
// events always pass immediately.
func NewHysteresis(name string, threshold int) *core.Protocol {
	if name == "" {
		name = "hysteresis"
	}
	if threshold < 1 {
		threshold = 2
	}
	p := core.NewProtocol(name)
	p.SetTuple(event.Tuple{
		Required: []event.Requirement{{Type: event.NhoodChange}},
		Provided: []event.Type{event.NhoodChange},
	})
	var mu sync.Mutex
	seen := make(map[string]int)
	h := core.NewHandler("hysteresis-filter", event.NhoodChange, func(ctx *core.Context, ev *event.Event) error {
		if ev.Nhood == nil {
			ctx.Emit(ev)
			return nil
		}
		key := ev.Nhood.Neighbor.String()
		mu.Lock()
		defer mu.Unlock()
		switch ev.Nhood.Kind {
		case event.NeighborLost:
			delete(seen, key)
			ctx.Emit(ev)
		case event.NeighborAppeared, event.NeighborSymmetric:
			seen[key]++
			if seen[key] >= threshold {
				ctx.Emit(ev)
			}
		default:
			ctx.Emit(ev)
		}
		return nil
	})
	if err := p.AddHandler(h); err != nil {
		panic(err)
	}
	return p
}
