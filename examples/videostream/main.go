// Videostream: coalition formation over TCP loopback sockets.
//
// Every device is a networked node (internal/net) on its own loopback
// port; the protocol code is byte-for-byte the one the simulator runs.
// A phone joins a neighbourhood of eight devices, requests a 4-task
// video conference pipeline, and the program reports the formed
// coalition, then kills one member and shows the operation-phase monitor
// reconfiguring the coalition (Section 4's "coalition reconfiguration
// due to partial failures").
//
// Run: go run ./examples/videostream
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/net"
	"repro/internal/radio"
	"repro/internal/workload"
)

func main() {
	profiles := []workload.Profile{
		workload.Phone, workload.PDA, workload.Laptop, workload.PDA,
		workload.Laptop, workload.Phone, workload.PDA, workload.Laptop,
	}
	var nodes []*net.Node
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	for i, p := range profiles {
		pos := core.GridPlacement(i, len(profiles), 12)
		n := net.NewNode(net.NodeConfig{
			Endpoint: net.Config{
				Self:       radio.NodeID(i),
				ListenAddr: "127.0.0.1:0",
				Link:       radio.Link{Pos: radio.Pos(pos), RangeM: p.RangeM, Bitrate: p.Bitrate},
				Capacity:   p.Capacity,
				TimeScale:  0.01,
			},
			Provider: core.DefaultProviderConfig,
		})
		if err := n.Start(); err != nil {
			log.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	// The phone (node 0) dials every neighbour; each Hello handshake
	// tells it that neighbour's link and capacity.
	for _, n := range nodes[1:] {
		if err := nodes[0].Endpoint.Dial(n.Endpoint.Self(), n.Endpoint.Addr()); err != nil {
			log.Fatal(err)
		}
	}

	svc := workload.StreamService("conf", 4, 1.2)
	results := make(chan *core.Result, 8) // room for a few reformations: the hand-over below drops when full
	org, err := nodes[0].Submit(svc, core.DefaultOrganizerConfig, func(r *core.Result) {
		// This may run on the node's loop: hand the result over, never block.
		select {
		case results <- r:
		default:
		}
	})
	if err != nil {
		log.Fatal(err)
	}

	first := waitResult(results, 10*time.Second)
	if first == nil {
		log.Fatal("formation timed out")
	}
	fmt.Printf("formed coalition (round trip over TCP loopback sockets):\n")
	printResult(profiles, first)

	// Kill a remote member; the heartbeat monitor detects the silence
	// and renegotiates the orphaned tasks among the survivors.
	victim := pickRemoteMember(first)
	if victim < 0 {
		fmt.Println("all tasks ran locally; nothing to fail")
		return
	}
	fmt.Printf("\nkilling node %d (%s)...\n", victim, profiles[victim].Name)
	nodes[victim].Provider.SetDown(true)

	second := waitResult(results, 30*time.Second)
	if second == nil {
		log.Fatal("reconfiguration timed out")
	}
	fmt.Printf("reconfigured coalition (%d failure(s) detected, %d reconfiguration(s)):\n",
		org.Failures, org.Reconfigurations)
	printResult(profiles, second)
	for tid, a := range second.Assigned {
		if a.Node == victim {
			log.Fatalf("task %s still on the failed node", tid)
		}
	}
	var sent, delivered, sendErrors uint64
	for _, n := range nodes {
		sent += n.Endpoint.Sent.Load()
		delivered += n.Endpoint.Delivered.Load()
		sendErrors += n.Endpoint.SendErrors.Load()
	}
	fmt.Printf("\ntraffic: %d frames sent, %d delivered, %d send errors\n", sent, delivered, sendErrors)
}

func waitResult(ch <-chan *core.Result, timeout time.Duration) *core.Result {
	select {
	case r := <-ch:
		return r
	case <-time.After(timeout):
		return nil
	}
}

func printResult(profiles []workload.Profile, r *core.Result) {
	for _, t := range []string{"t0", "t1", "t2", "t3"} {
		a, ok := r.Assigned[t]
		if !ok {
			fmt.Printf("  %-3s UNSERVED\n", t)
			continue
		}
		fmt.Printf("  %-3s -> node %d (%-6s) distance %.3f\n", t, a.Node, profiles[a.Node].Name, a.Distance)
	}
	fmt.Printf("  members: %v\n", r.Members())
}

func pickRemoteMember(r *core.Result) radio.NodeID {
	for _, a := range r.Assigned {
		if a.Node != 0 {
			return a.Node
		}
	}
	return -1
}
