// Package compose stands protocol families up on a node and takes them down
// again, from declarations rather than hand-written deploy code. Each family
// declares its main unit's constructor and the helper CF it holds — MPR for
// OLSR and ZRP, Neighbour Detection for AODV, and for DYMO the MPR CF when
// one is already deployed (the paper's leaner co-deployment, §5.2),
// Neighbour Detection otherwise. Each variant declares the family it rides
// on.
//
// Helpers are shared, and their reference count is the number of deployed
// families that hold them: the first holder deploys a helper, the last one
// to leave takes it along, and removing a helper that is still held is
// refused with the holder's name. A variant leaves with its family. Every
// deploy starts its unit and undoes itself when the start fails, so a
// failed Compose leaves nothing of itself behind.
//
// The facade (manetkit.Stack), the evaluation harness and mkemu all compose
// through here, so one rule decides what every node runs.
package compose

import (
	"errors"
	"fmt"
	"strings"

	"manetkit/internal/aodv"
	"manetkit/internal/core"
	"manetkit/internal/dymo"
	"manetkit/internal/mpr"
	"manetkit/internal/neighbor"
	"manetkit/internal/olsr"
	"manetkit/internal/route"
	"manetkit/internal/system"
	"manetkit/internal/zrp"
)

// Fisheye names OLSR's fisheye TC_OUT interposer (§5.1), a variant.
const Fisheye = "fisheye"

// Spec names one family or variant and the parameters its callers set. A
// zero field takes the protocol's own default, so Spec{Family: "olsr"} is
// the composition the evaluation harness measures. Timing is not among
// them: every protocol runs on its own constants.
type Spec struct {
	Family          string  // olsr, dymo, aodv, zrp or fisheye
	HopLimit        uint8   // dymo
	PiggybackRoutes bool    // aodv
	Pattern         []uint8 // fisheye TTL pattern
}

// A decl is what a family or a variant declares. A family holds the first
// of its helpers that is already deployed, or deploys the last one.
type decl struct {
	helpers []string // a family: the helper CFs it can hold
	rides   string   // a variant: the family it rides on
	build   func(helper any, sp Spec) (*core.Protocol, any)
}

var decls = map[string]decl{
	olsr.UnitName: {helpers: []string{mpr.UnitName}, build: func(h any, _ Spec) (*core.Protocol, any) {
		o := olsr.New("", h.(*mpr.MPR))
		return o.Protocol(), o
	}},
	dymo.UnitName: {helpers: []string{mpr.UnitName, neighbor.UnitName}, build: func(h any, sp Spec) (*core.Protocol, any) {
		d := dymo.New("", dymo.Config{HopLimit: sp.HopLimit})
		if relay, ok := h.(*mpr.MPR); ok {
			d.SetFlooder(relay.Flooder())
		}
		return d.Protocol(), d
	}},
	aodv.UnitName: {helpers: []string{neighbor.UnitName}, build: func(h any, sp Spec) (*core.Protocol, any) {
		a := aodv.New("", h.(*neighbor.Detector), aodv.Config{PiggybackRoutes: sp.PiggybackRoutes})
		return a.Protocol(), a
	}},
	zrp.UnitName: {helpers: []string{mpr.UnitName}, build: func(h any, _ Spec) (*core.Protocol, any) {
		z := zrp.New("", h.(*mpr.MPR))
		return z.Protocol(), z
	}},
	Fisheye: {rides: olsr.UnitName, build: func(_ any, sp Spec) (*core.Protocol, any) {
		p := olsr.NewFisheye(Fisheye, sp.Pattern)
		return p, p
	}},
}

// helpers builds the shared helper CFs a family can hold.
var helpers = map[string]func() (*core.Protocol, any){
	mpr.UnitName: func() (*core.Protocol, any) {
		m := mpr.New("")
		return m.Protocol(), m
	},
	neighbor.UnitName: func() (*core.Protocol, any) {
		d := neighbor.New("")
		return d.Protocol(), d
	},
}

// Set is one node's compositions: the units compose deployed into its
// Framework Manager, in deployment order.
type Set struct {
	mgr   *core.Manager
	sys   *system.System
	units []*unit
}

type unit struct {
	name   string
	proto  *core.Protocol
	handle any    // *olsr.OLSR, *mpr.MPR, ...
	holds  string // a family: its helper CF
	rides  string // a variant: its family
}

// New starts an empty composition set over a node's manager and System CF.
func New(mgr *core.Manager, sys *system.System) *Set { return &Set{mgr: mgr, sys: sys} }

// Deploy deploys one unit and starts it; a unit whose start fails is
// undeployed again, so a failed Deploy leaves nothing behind.
func Deploy(mgr *core.Manager, p *core.Protocol) error {
	if err := mgr.Deploy(p); err != nil {
		return err
	}
	if err := p.Start(); err != nil {
		return errors.Join(err, mgr.Undeploy(p.Name()))
	}
	return nil
}

// Compose deploys each spec in order: a family after the helper CF it
// holds, which it deploys only if no other family already has; a variant
// only beside its family. A family or variant already composed is left as
// it is. The first spec that fails leaves nothing of itself behind and ends
// the call; the specs before it stay.
func (s *Set) Compose(specs ...Spec) error {
	for _, sp := range specs {
		if err := s.compose(sp); err != nil {
			return err
		}
	}
	return nil
}

func (s *Set) compose(sp Spec) error {
	d, ok := decls[sp.Family]
	if !ok {
		return fmt.Errorf("compose: unknown family %q", sp.Family)
	}
	if s.find(sp.Family) != nil {
		return nil
	}
	u := &unit{name: sp.Family, rides: d.rides}
	var helper any
	if d.rides != "" {
		if s.find(d.rides) == nil {
			return fmt.Errorf("compose: %s needs %s", sp.Family, d.rides)
		}
	} else {
		var h *unit
		for _, name := range d.helpers {
			if h = s.find(name); h != nil {
				break
			}
		}
		if h == nil {
			h = &unit{name: d.helpers[len(d.helpers)-1]}
			h.proto, h.handle = helpers[h.name]()
			if err := Deploy(s.mgr, h.proto); err != nil {
				return err
			}
			s.units = append(s.units, h)
		}
		u.holds, helper = h.name, h.handle
	}
	u.proto, u.handle = d.build(helper, sp)
	if err := Deploy(s.mgr, u.proto); err != nil {
		return errors.Join(err, s.release(u.holds))
	}
	s.units = append(s.units, u)
	return nil
}

// Decompose removes a family or variant by name: the variants riding on a
// family first, then its main unit (and its routes from the FIB), then the
// helper CF it held if no other family holds it. A helper CF named directly
// goes only once nothing holds it — which is when its last holder already
// took it along — so the call is refused while a holder remains and a
// no-op after. Removing what is not deployed is a no-op.
func (s *Set) Decompose(name string) error {
	u := s.find(name)
	if u == nil {
		return nil
	}
	for _, v := range s.units {
		if v.holds == name {
			return fmt.Errorf("compose: %s still holds %s", strings.ToUpper(v.name), name)
		}
	}
	// A variant holds and carries nothing, so removing one takes exactly its
	// own slot and leaves the slots below it in place.
	for i := len(s.units) - 1; i >= 0; i-- {
		if v := s.units[i]; v.rides == name {
			if err := s.Decompose(v.name); err != nil {
				return err
			}
		}
	}
	if err := s.mgr.Undeploy(u.proto.Name()); err != nil {
		return err
	}
	for i, v := range s.units {
		if v == u {
			s.units = append(s.units[:i], s.units[i+1:]...)
			break
		}
	}
	if u.holds == "" {
		return nil
	}
	s.sys.FIB().FlushProto(u.proto.Name())
	return s.release(u.holds)
}

// release removes a helper CF nothing holds any more.
func (s *Set) release(helper string) error {
	for _, v := range s.units {
		if v.holds == helper {
			return nil
		}
	}
	return s.Decompose(helper)
}

func (s *Set) find(name string) *unit {
	for _, u := range s.units {
		if u.name == name {
			return u
		}
	}
	return nil
}

func handle[T any](s *Set, name string) (h T) {
	if u := s.find(name); u != nil {
		h, _ = u.handle.(T)
	}
	return h
}

// MPR returns the deployed MPR CF, if any.
func (s *Set) MPR() *mpr.MPR { return handle[*mpr.MPR](s, mpr.UnitName) }

// OLSR returns the deployed OLSR CF, if any.
func (s *Set) OLSR() *olsr.OLSR { return handle[*olsr.OLSR](s, olsr.UnitName) }

// DYMO returns the deployed DYMO CF, if any.
func (s *Set) DYMO() *dymo.DYMO { return handle[*dymo.DYMO](s, dymo.UnitName) }

// AODV returns the deployed AODV CF, if any.
func (s *Set) AODV() *aodv.AODV { return handle[*aodv.AODV](s, aodv.UnitName) }

// ZRP returns the deployed ZRP CF, if any.
func (s *Set) ZRP() *zrp.ZRP { return handle[*zrp.ZRP](s, zrp.UnitName) }

// Units returns the composed units in deployment (and start) order.
func (s *Set) Units() []*core.Protocol {
	out := make([]*core.Protocol, len(s.units))
	for i, u := range s.units {
		out[i] = u.proto
	}
	return out
}

// RIBs returns the routing tables of the deployed families, keyed by unit
// name.
func (s *Set) RIBs() map[string]*route.Table {
	out := map[string]*route.Table{}
	for _, u := range s.units {
		if r, ok := u.handle.(interface{ Routes() *route.Table }); ok {
			out[u.name] = r.Routes()
		}
	}
	return out
}

// Links returns the link set the node senses with: that of the MPR CF's
// link-sensing core when one is deployed, else the Neighbour Detection
// CF's; nil with neither.
func (s *Set) Links() *neighbor.Table {
	for _, name := range []string{mpr.UnitName, neighbor.UnitName} {
		if h := handle[interface{ Sensor() *neighbor.Sensor }](s, name); h != nil {
			return h.Sensor().Table()
		}
	}
	return nil
}
