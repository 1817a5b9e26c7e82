package manetkit

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"manetkit/internal/core"
)

// A DYMO deployed beside OLSR floods through the shared MPR CF and has no
// neighbour detector of its own, so the MPR CF must outlive it.
func TestUndeployMPRRefusedWhileDYMOFloodsThroughIt(t *testing.T) {
	clk, _, stacks := lineStacks(t, 3)
	for _, s := range stacks {
		if _, err := s.DeployOLSR(OLSRConfig{}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.DeployDYMO(DYMOConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(10 * time.Second)
	for _, s := range stacks {
		if err := s.UndeployOLSR(); err != nil {
			t.Fatal(err)
		}
		if err := s.UndeployMPR(); err == nil || !strings.Contains(err.Error(), "DYMO") {
			t.Fatalf("UndeployMPR under a co-deployed DYMO: err = %v, want one naming DYMO", err)
		}
		if s.MPRUnit() == nil {
			t.Fatal("the refused UndeployMPR dropped the MPR CF")
		}
	}
	// OLSR's routes are gone; DYMO must still find one across the relay.
	delivered := false
	stacks[2].OnDeliver(func(Addr, []byte) { delivered = true })
	if err := stacks[0].SendData(stacks[2].Addr(), []byte("x")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Second)
	if !delivered {
		t.Fatal("DYMO discovered no route through the MPR CF it shares")
	}
	for _, s := range stacks {
		if err := s.UndeployDYMO(); err != nil {
			t.Fatal(err)
		}
		if err := s.UndeployMPR(); err != nil {
			t.Fatalf("UndeployMPR with nothing left on it: %v", err)
		}
		if got := s.Manager().Units(); !slices.Equal(got, []string{"system"}) {
			t.Fatalf("units left = %v", got)
		}
	}
}

// ZRP senses its zone and bordercasts through the MPR CF it is stacked on,
// so the MPR CF must outlive it too.
func TestUndeployMPRRefusedWhileZRPStacksOnIt(t *testing.T) {
	clk, _, stacks := lineStacks(t, 4)
	for _, s := range stacks {
		if _, err := s.DeployZRP(); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(8 * time.Second)
	for _, s := range stacks {
		if err := s.UndeployMPR(); err == nil || !strings.Contains(err.Error(), "ZRP") {
			t.Fatalf("UndeployMPR under ZRP: err = %v, want one naming ZRP", err)
		}
		if s.MPRUnit() == nil {
			t.Fatal("the refused UndeployMPR dropped the MPR CF")
		}
	}
	// ZRP still routes: in-zone by its proactive table, beyond by discovery.
	clk.Advance(8 * time.Second)
	delivered := 0
	stacks[3].OnDeliver(func(Addr, []byte) { delivered++ })
	stacks[2].OnDeliver(func(Addr, []byte) { delivered++ })
	for _, dst := range []*Stack{stacks[2], stacks[3]} {
		if err := stacks[0].SendData(dst.Addr(), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(2 * time.Second)
	if delivered != 2 {
		t.Fatalf("ZRP delivered %d of 2 packets after the refused UndeployMPR", delivered)
	}
	for _, s := range stacks {
		if err := s.UndeployZRP(); err != nil {
			t.Fatal(err)
		}
		if err := s.UndeployMPR(); err != nil {
			t.Fatalf("UndeployMPR with nothing left on it: %v", err)
		}
		if got := s.Manager().Units(); !slices.Equal(got, []string{"system"}) {
			t.Fatalf("units left = %v", got)
		}
	}
}

// A start hook that fails must not leave the unit (or the helper CF deployed
// for it) in the Manager with the Stack believing nothing is there.
func TestFailedStartLeavesNothingDeployed(t *testing.T) {
	errBoom := errors.New("boom")
	cases := []struct {
		name   string
		fails  string // unit whose start hook fails once
		before func(*Stack) error
		deploy func(*Stack) error
		undo   func(*Stack) error
		left   []string // units the failed call must leave
	}{
		{name: "olsr", fails: "olsr",
			deploy: func(s *Stack) error { _, err := s.DeployOLSR(OLSRConfig{}); return err },
			undo:   func(s *Stack) error { return errors.Join(s.UndeployOLSR(), s.UndeployMPR()) },
			left:   []string{"system"}},
		{name: "olsr's mpr", fails: "mpr",
			deploy: func(s *Stack) error { _, err := s.DeployOLSR(OLSRConfig{}); return err },
			undo:   func(s *Stack) error { return errors.Join(s.UndeployOLSR(), s.UndeployMPR()) },
			left:   []string{"system"}},
		{name: "dymo", fails: "dymo",
			deploy: func(s *Stack) error { _, err := s.DeployDYMO(DYMOConfig{}); return err },
			undo:   (*Stack).UndeployDYMO,
			left:   []string{"system"}},
		{name: "aodv", fails: "aodv",
			deploy: func(s *Stack) error { _, err := s.DeployAODV(AODVConfig{}); return err },
			undo:   (*Stack).UndeployAODV,
			left:   []string{"system"}},
		{name: "zrp", fails: "zrp",
			deploy: func(s *Stack) error { _, err := s.DeployZRP(); return err },
			undo:   func(s *Stack) error { return errors.Join(s.UndeployZRP(), s.UndeployMPR()) },
			left:   []string{"system"}},
		{name: "zrp beside olsr keeps the shared mpr", fails: "zrp",
			before: func(s *Stack) error { _, err := s.DeployOLSR(OLSRConfig{}); return err },
			deploy: func(s *Stack) error { _, err := s.DeployZRP(); return err },
			undo:   (*Stack).UndeployZRP,
			left:   []string{"system", "mpr", "olsr"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, stacks := lineStacks(t, 1)
			s := stacks[0]
			if tc.before != nil {
				if err := tc.before(s); err != nil {
					t.Fatal(err)
				}
			}
			// The rewire hook runs at the end of Manager.Deploy, before the
			// Stack starts the unit: the one place a test can reach it.
			armed := true
			s.Manager().SetRewireHook(func() {
				if u, ok := s.Manager().Unit(tc.fails); ok && armed {
					armed = false
					u.(*Protocol).OnStart(func(*core.Context) error { return errBoom })
				}
			})
			if err := tc.deploy(s); !errors.Is(err, errBoom) {
				t.Fatalf("deploy with a failing start hook: err = %v", err)
			}
			if got := s.Manager().Units(); !slices.Equal(got, tc.left) {
				t.Fatalf("units after the failed deploy = %v, want %v", got, tc.left)
			}
			if err := tc.deploy(s); err != nil {
				t.Fatalf("second deploy: %v", err)
			}
			if err := tc.undo(s); err != nil {
				t.Fatalf("undeploy: %v", err)
			}
			if _, ok := s.Manager().Unit(tc.fails); ok {
				t.Fatalf("%s still deployed after its undeploy: %v", tc.fails, s.Manager().Units())
			}
		})
	}
}

// A helper CF leaves with the last protocol that holds it and not before,
// and a variant leaves with the family it rides on.
func TestNothingOutlivesWhatHoldsIt(t *testing.T) {
	cases := []struct {
		name    string
		steps   func(*Stack) error
		left    []string
		deliver bool // the protocol left still routes across the line
	}{
		{name: "UndeployDYMO beside AODV keeps the ND CF AODV reads",
			steps: func(s *Stack) error {
				_, errA := s.DeployAODV(AODVConfig{})
				_, errD := s.DeployDYMO(DYMOConfig{})
				return errors.Join(errA, errD, s.UndeployDYMO())
			},
			left: []string{"system", "neighbor-detection", "aodv"}, deliver: true},
		{name: "UndeployAODV removes the ND CF it alone held",
			steps: func(s *Stack) error {
				_, err := s.DeployAODV(AODVConfig{})
				return errors.Join(err, s.UndeployAODV())
			},
			left: []string{"system"}},
		{name: "UndeployOLSR takes the fisheye interposer along",
			steps: func(s *Stack) error {
				_, err := s.DeployOLSR(OLSRConfig{})
				return errors.Join(err, s.EnableFisheye(nil), s.UndeployOLSR(), s.UndeployMPR())
			},
			left: []string{"system"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk, _, stacks := lineStacks(t, 3)
			for _, s := range stacks {
				if err := tc.steps(s); err != nil {
					t.Fatal(err)
				}
				if got := s.Manager().Units(); !slices.Equal(got, tc.left) {
					t.Fatalf("units left = %v, want %v", got, tc.left)
				}
			}
			if !tc.deliver {
				return
			}
			clk.Advance(5 * time.Second)
			delivered := false
			stacks[2].OnDeliver(func(Addr, []byte) { delivered = true })
			if err := stacks[0].SendData(stacks[2].Addr(), []byte("x")); err != nil {
				t.Fatal(err)
			}
			clk.Advance(3 * time.Second)
			if !delivered {
				t.Fatal("nothing delivered across the line")
			}
		})
	}
}
