package compose

import (
	"slices"
	"testing"
	"time"

	"manetkit/internal/emunet"
	"manetkit/internal/mnet"
	"manetkit/internal/packetbb"
	"manetkit/internal/system"
	"manetkit/internal/testbed"
)

// TestUnansweredDiscoverySchedule pins, for each reactive family with its
// default configuration, when an isolated node's route requests go out and
// with which hop limit, the counters the discovery ends with once it gives
// up, and that no route to the target is left behind. DYMO and ZRP back off binary-exponentially at one hop limit;
// AODV widens its ring.
func TestUnansweredDiscoverySchedule(t *testing.T) {
	type rreq struct {
		at       time.Duration
		hopLimit uint8
	}
	// counts is Discoveries, Retries, GiveUps and, for AODV, RingExpansions.
	type counts [4]uint64
	for _, tc := range []struct {
		family string
		want   []rreq
		counts counts
		read   func(*Set) counts
	}{
		{
			family: "dymo",
			want:   []rreq{{0, 10}, {time.Second, 10}, {3 * time.Second, 10}},
			counts: counts{1, 2, 1, 0},
			read: func(s *Set) counts {
				st := s.DYMO().State().Stats()
				return counts{st.Discoveries, st.Retries, st.GiveUps, 0}
			},
		},
		{
			family: "zrp",
			want:   []rreq{{0, 10}, {time.Second, 10}, {3 * time.Second, 10}},
			counts: counts{1, 2, 1, 0},
			read: func(s *Set) counts {
				st := s.ZRP().State().Stats()
				return counts{st.Discoveries, st.Retries, st.GiveUps, 0}
			},
		},
		{
			family: "aodv",
			want: []rreq{{0, 2}, {time.Second, 4}, {2 * time.Second, 6},
				{3 * time.Second, 16}, {4 * time.Second, 16}, {5 * time.Second, 16}},
			counts: counts{1, 5, 1, 3},
			read: func(s *Set) counts {
				st := s.AODV().State().Stats()
				return counts{st.Discoveries, st.Retries, st.GiveUps, st.RingExpansions}
			},
		},
	} {
		t.Run(tc.family, func(t *testing.T) {
			c, err := testbed.New(1, testbed.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			node := c.Nodes[0]
			s := New(node.Mgr, node.Sys)
			if err := s.Compose(Spec{Family: tc.family}); err != nil {
				t.Fatal(err)
			}
			start := c.Clock.Now()
			var got []rreq
			c.Net.SetTxTap(func(f emunet.Frame) {
				if !system.IsControlFrame(f.Payload) {
					return
				}
				pkt, err := system.DecodeControl(f)
				if err != nil {
					t.Error(err)
					return
				}
				for _, m := range pkt.Messages {
					if m.Type == packetbb.MsgRREQ {
						got = append(got, rreq{c.Clock.Now().Sub(start), m.HopLimit})
					}
				}
			})
			dst := mnet.MustParseAddr("10.9.0.9")
			if err := node.Sys.Filter().SendData(dst, []byte("x")); err != nil {
				t.Fatal(err)
			}
			c.Run(30 * time.Second)
			if !slices.Equal(got, tc.want) {
				t.Errorf("RREQs (time, hop limit) = %v, want %v", got, tc.want)
			}
			if n := tc.read(s); n != tc.counts {
				t.Errorf("discoveries, retries, give-ups, ring expansions = %v, want %v", n, tc.counts)
			}
			if _, _, err := s.RIBs()[tc.family].Lookup(dst); err == nil {
				t.Error("route materialised out of nothing")
			}
		})
	}
}
