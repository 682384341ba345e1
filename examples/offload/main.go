// Offload: the computation-offloading motivation of Sections 1 and 7.
//
// "Playing downloaded movies may require decompression ... transmitting
// data to the Internet from the mobile devices may require compression.
// It's possible to partition the entire process into tasks and divide
// them among different devices with spare resources."
//
// A phone partitions a compression pipeline into N tasks and compares
// three strategies on the same neighbourhood snapshot:
//
//   - doing everything locally (the paper's default, with its time
//     penalty),
//   - coalition formation (the paper's proposal), and
//   - greedy first-fit (cooperation without proposal evaluation).
//
// Run: go run ./examples/offload
package main

import (
	"fmt"
	"log"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/qos"
	"repro/internal/radio"
	"repro/internal/resource"
	"repro/internal/workload"
)

func main() {
	const parts = 4
	svc := workload.OffloadService("compress", parts, 1.0)

	// The neighbourhood: the requesting phone plus four neighbours.
	profiles := []workload.Profile{
		workload.Phone, workload.Phone, workload.PDA, workload.Laptop, workload.Laptop,
	}

	// --- coalition formation on the simulator ---
	cluster := core.NewCluster(3, radio.Config{ProcDelay: 0.001}, core.DefaultProviderConfig)
	for i, p := range profiles {
		if _, err := cluster.AddNode(workload.NodeSpecFor(radio.NodeID(i), p, core.GridPlacement(i, len(profiles), 14))); err != nil {
			log.Fatal(err)
		}
	}
	var res *core.Result
	if _, err := cluster.Submit(0, 0, svc, core.DefaultOrganizerConfig, func(r *core.Result) {
		if res == nil {
			res = r
		}
	}); err != nil {
		log.Fatal(err)
	}
	cluster.Run(5)
	if res == nil {
		log.Fatal("formation incomplete")
	}

	// --- offline baselines on an identical snapshot ---
	problem := func() *baseline.Problem {
		p := &baseline.Problem{Service: svc, Organizer: 0}
		for i, prof := range profiles {
			p.Nodes = append(p.Nodes, baseline.NodeView{
				ID: radio.NodeID(i), Res: resource.NewSet(prof.Capacity),
			})
		}
		return p
	}
	local, err := (baseline.LocalOnly{}).Allocate(problem())
	if err != nil {
		log.Fatal(err)
	}
	greedy, err := (baseline.Greedy{}).Allocate(problem())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("compression pipeline: %d parts, preferred 48 blocks/s on the hq profile\n\n", parts)
	fmt.Printf("%-22s %8s %12s %10s\n", "strategy", "served", "mean dist", "members")
	printAllocRow("local-only (default)", localRow(local))
	printAllocRow("greedy first-fit", localRow(greedy))
	coalition := struct {
		served  int
		dist    float64
		members int
	}{len(res.Assigned), res.MeanDistance(), len(res.Members())}
	fmt.Printf("%-22s %5d/%d %12.4f %10d\n", "coalition (paper)", coalition.served, parts, coalition.dist, coalition.members)

	fmt.Println("\ncoalition detail:")
	for _, t := range svc.Tasks {
		a, ok := res.Assigned[t.ID]
		if !ok {
			fmt.Printf("  %-6s UNSERVED\n", t.ID)
			continue
		}
		bps := a.Level[qos.AttrKey{Dim: "throughput", Attr: "blocks_per_s"}]
		codec := a.Level[qos.AttrKey{Dim: "throughput", Attr: "codec"}]
		fmt.Printf("  %-6s -> node %d (%-6s)  %s blocks/s on %q, distance %.3f\n",
			t.ID, a.Node, profiles[a.Node].Name, bps, codec.S, a.Distance)
	}
}

type row struct {
	served  int
	total   int
	dist    float64
	members int
}

func localRow(a *baseline.Allocation) row {
	return row{served: len(a.Assigned), total: len(a.Assigned) + len(a.Unserved), dist: a.MeanDistance(), members: a.Members()}
}

func printAllocRow(name string, r row) {
	fmt.Printf("%-22s %5d/%d %12.4f %10d\n", name, r.served, r.total, r.dist, r.members)
}
