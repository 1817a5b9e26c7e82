package manetkit_test

import (
	"fmt"
	"time"

	"manetkit"
)

// Example reproduces the paper's headline capability in a dozen lines:
// deploy a reactive routing protocol on an emulated five-node chain and
// send data end to end — the route is discovered on demand.
func Example() {
	clk := manetkit.NewVirtualClock(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	net := manetkit.NewNetwork(clk, 1)
	addrs := manetkit.Addrs(5)
	stacks, err := manetkit.NewStacks(net, addrs, manetkit.StackOptions{})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer func() {
		for _, s := range stacks {
			s.Close()
		}
	}()
	if err := manetkit.BuildLine(net, addrs, manetkit.DefaultQuality()); err != nil {
		fmt.Println(err)
		return
	}
	for _, s := range stacks {
		if _, err := s.DeployDYMO(manetkit.DYMOConfig{}); err != nil {
			fmt.Println(err)
			return
		}
	}
	stacks[4].OnDeliver(func(src manetkit.Addr, payload []byte) {
		fmt.Printf("%v received %q from %v\n", stacks[4].Addr(), payload, src)
	})
	if err := stacks[0].SendData(addrs[4], []byte("hello")); err != nil {
		fmt.Println(err)
		return
	}
	clk.Advance(time.Second)
	// Output: 10.0.0.5 received "hello" from 10.0.0.1
}

// ExampleStack_EnableFisheye shows a fine-grained runtime reconfiguration:
// deploying the fisheye component automatically interposes it in the
// TC_OUT event path; undeploying heals the path.
func ExampleStack_EnableFisheye() {
	clk := manetkit.NewVirtualClock(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	net := manetkit.NewNetwork(clk, 1)
	s, err := manetkit.NewStack(net, manetkit.MustParseAddr("10.0.0.1"), manetkit.StackOptions{})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer s.Close()
	if _, err := s.DeployOLSR(manetkit.OLSRConfig{}); err != nil {
		fmt.Println(err)
		return
	}
	if err := s.EnableFisheye(nil); err != nil {
		fmt.Println(err)
		return
	}
	inter, _ := s.Manager().Chain("TC_OUT")
	fmt.Println("TC_OUT interposers:", inter)
	if err := s.DisableFisheye(); err != nil {
		fmt.Println(err)
		return
	}
	inter, _ = s.Manager().Chain("TC_OUT")
	fmt.Println("after removal:", len(inter))
	// Output:
	// TC_OUT interposers: [fisheye]
	// after removal: 0
}
