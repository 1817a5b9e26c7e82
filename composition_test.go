package manetkit

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"manetkit/internal/core"
	"manetkit/internal/harness"
	"manetkit/internal/testbed"
)

// compModel restates the composition rule on its own: which families and
// variants are up, and which helper CF DYMO took when it came up. The
// helpers deployed are exactly the ones something holds.
type compModel struct {
	up         map[string]bool // olsr, dymo, aodv, zrp, fisheye
	dymoHelper string          // mpr or neighbor-detection
	armed      string          // the unit whose next fresh start fails
}

// holders names, in upper case, the protocols holding a helper CF.
func (m *compModel) holders(helper string) []string {
	var out []string
	for _, h := range []struct {
		family, helper string
	}{
		{"olsr", "mpr"}, {"zrp", "mpr"}, {"aodv", "neighbor-detection"},
		{"dymo", m.dymoHelper},
	} {
		if m.up[h.family] && h.helper == helper {
			out = append(out, strings.ToUpper(h.family))
		}
	}
	return out
}

func (m *compModel) units() []string {
	out := []string{"system"}
	for _, h := range []string{"mpr", "neighbor-detection"} {
		if len(m.holders(h)) > 0 {
			out = append(out, h)
		}
	}
	for _, f := range []string{"olsr", "dymo", "aodv", "zrp", "fisheye"} {
		if m.up[f] {
			out = append(out, f)
		}
	}
	slices.Sort(out)
	return out
}

// fuzzUnits are the units a step can arm to fail their next fresh start.
var fuzzUnits = []string{"mpr", "neighbor-detection", "olsr", "dymo", "aodv", "zrp", "fisheye"}

// FuzzComposition drives one Stack through random Deploy/Undeploy of every
// family, UndeployMPR, Enable/DisableFisheye and failing start hooks, and
// after every step holds the Manager's units, the helpers' holders and
// every error to the model.
func FuzzComposition(f *testing.F) {
	const (
		olsrUp, olsrDown, dymoUp, dymoDown, aodvUp, aodvDown, zrpUp, zrpDown = 0, 1, 2, 3, 4, 5, 6, 7
		mprDown, fishUp, fishDown, arm, nOps                                 = 8, 9, 10, 11, 12
	)
	for _, seed := range [][]byte{
		{aodvUp, dymoUp, dymoDown},                             // the ND CF outlives DYMO while AODV holds it
		{aodvUp, aodvDown},                                     // and leaves with AODV
		{olsrUp, fishUp, olsrDown, mprDown},                    // fisheye leaves with OLSR
		{olsrUp, dymoUp, olsrDown, mprDown, dymoDown, mprDown}, // DYMO on the shared MPR CF
		{zrpUp, mprDown, zrpDown, mprDown},                     // ZRP on the MPR CF
		{arm, 0, olsrUp, olsrUp, olsrDown},                     // a helper's start fails
		{arm, 2, olsrUp, olsrUp, olsrDown},                     // a main unit's start fails
		{zrpUp, arm, 0, olsrUp, arm, 5, zrpDown, olsrDown},     // arming a held helper does nothing
		{fishUp, olsrUp, arm, 6, fishUp, fishUp, fishDown},     // fisheye needs OLSR; its own start fails
	} {
		f.Add(seed)
	}
	errBoom := errors.New("boom")
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		clk := NewVirtualClock(epoch)
		s, err := NewStack(NewNetwork(clk, 1), MustParseAddr("10.0.0.1"), StackOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		armed := ""
		s.Manager().SetRewireHook(func() {
			if u, ok := s.Manager().Unit(armed); ok && !u.(*Protocol).Started() {
				armed = ""
				u.(*Protocol).OnStart(func(*core.Context) error { return errBoom })
			}
		})
		m := &compModel{up: map[string]bool{}}
		// deploy predicts a family coming up: a fresh helper or main unit
		// that is armed fails it, and it leaves the model as it was.
		deploy := func(family, helper string) (fails bool) {
			if m.up[family] {
				return false
			}
			if fresh := len(m.holders(helper)) == 0; (fresh && m.armed == helper) || m.armed == family {
				m.armed = ""
				return true
			}
			m.up[family] = true
			if family == "dymo" {
				m.dymoHelper = helper
			}
			return false
		}
		for i := 0; i < len(ops); i++ {
			var err error
			var boom bool
			var refusal []string // names one of these in the error
			switch op := ops[i] % nOps; op {
			case olsrUp:
				boom = deploy("olsr", "mpr")
				_, err = s.DeployOLSR(OLSRConfig{})
			case dymoUp:
				helper := "neighbor-detection"
				if len(m.holders("mpr")) > 0 {
					helper = "mpr"
				}
				boom = deploy("dymo", helper)
				_, err = s.DeployDYMO(DYMOConfig{})
			case aodvUp:
				boom = deploy("aodv", "neighbor-detection")
				_, err = s.DeployAODV(AODVConfig{})
			case zrpUp:
				boom = deploy("zrp", "mpr")
				_, err = s.DeployZRP()
			case olsrDown:
				m.up["olsr"], m.up["fisheye"] = false, false
				err = s.UndeployOLSR()
			case dymoDown:
				m.up["dymo"] = false
				err = s.UndeployDYMO()
			case aodvDown:
				m.up["aodv"] = false
				err = s.UndeployAODV()
			case zrpDown:
				m.up["zrp"] = false
				err = s.UndeployZRP()
			case mprDown:
				refusal = m.holders("mpr")
				err = s.UndeployMPR()
			case fishUp:
				if !m.up["fisheye"] && !m.up["olsr"] {
					refusal = []string{"olsr"}
				} else if !m.up["fisheye"] && m.armed == "fisheye" {
					boom, m.armed = true, ""
				} else {
					m.up["fisheye"] = true
				}
				err = s.EnableFisheye(nil)
			case fishDown:
				m.up["fisheye"] = false
				err = s.DisableFisheye()
			case arm:
				if i+1 < len(ops) {
					i++
					armed = fuzzUnits[int(ops[i])%len(fuzzUnits)]
					m.armed = armed
				}
			}
			switch {
			case boom:
				if !errors.Is(err, errBoom) {
					t.Fatalf("step %d (op %d): err = %v, want the failed start", i, ops[i]%nOps, err)
				}
			case refusal != nil:
				if err == nil || !slices.ContainsFunc(refusal, func(h string) bool { return strings.Contains(err.Error(), h) }) {
					t.Fatalf("step %d (op %d): err = %v, want a refusal naming one of %v", i, ops[i]%nOps, err, refusal)
				}
			case err != nil:
				t.Fatalf("step %d (op %d): undeclared error %v", i, ops[i]%nOps, err)
			}
			units := s.Manager().Units()
			slices.Sort(units)
			if want := m.units(); !slices.Equal(units, want) {
				t.Fatalf("step %d (op %d): units = %v, model %v", i, ops[i]%nOps, units, want)
			}
			has := func(u string) bool { return slices.Contains(units, u) }
			dymo := s.DYMOUnit() != nil
			needs := map[string]bool{
				"mpr":                s.OLSRUnit() != nil || s.ZRPUnit() != nil || (dymo && m.dymoHelper == "mpr"),
				"neighbor-detection": s.AODVUnit() != nil || (dymo && m.dymoHelper == "neighbor-detection"),
			}
			for _, h := range []string{"mpr", "neighbor-detection"} {
				if has(h) != needs[h] {
					t.Fatalf("step %d: %s deployed = %v, held = %v (units %v)", i, h, has(h), needs[h], units)
				}
			}
			if (dymo && !has(m.dymoHelper)) || (has("fisheye") && s.OLSRUnit() == nil) {
				t.Fatalf("step %d: a deployed protocol lacks what it rides on: %v", i, units)
			}
			clk.Advance(50 * time.Millisecond)
		}
	})
}

// Each family, and OLSR with DYMO co-deployed on its MPR CF, is the same
// architecture whether a Stack's Deploy methods or the evaluation harness
// stand it up.
func TestFacadeAndHarnessComposeTheSameArchitecture(t *testing.T) {
	deploy := map[string]func(*Stack) error{
		"olsr": func(s *Stack) error { _, err := s.DeployOLSR(OLSRConfig{}); return err },
		"dymo": func(s *Stack) error { _, err := s.DeployDYMO(DYMOConfig{}); return err },
		"aodv": func(s *Stack) error { _, err := s.DeployAODV(AODVConfig{}); return err },
		"zrp":  func(s *Stack) error { _, err := s.DeployZRP(); return err },
	}
	for _, family := range append(harness.Families(), "olsr+dymo") {
		t.Run(family, func(t *testing.T) {
			const n = 3
			c, _, err := harness.FamilyCluster(n, family)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			want, err := c.Snapshot().JSON()
			if err != nil {
				t.Fatal(err)
			}
			stacks, err := NewStacks(NewNetwork(NewVirtualClock(testbed.Epoch), 1), Addrs(n), StackOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range stacks {
				defer s.Close()
				for _, f := range strings.Split(family, "+") {
					if err := deploy[f](s); err != nil {
						t.Fatal(err)
					}
				}
			}
			got, err := CaptureArch(stacks...).JSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("facade architecture differs from the harness's:\nfacade:\n%s\nharness:\n%s", got, want)
			}
		})
	}
}
