// Surveillance: the paper's own Section 3.1 example, verbatim.
//
// A remote-surveillance user cares far more about video than audio and
// tolerates gray-scale, low-frame-rate video:
//
//  1. Video Quality:  frame rate [10..5],[4..1]; color depth 3, 1
//  2. Audio Quality:  sampling rate 8; sample bits 8
//
// The example shows (a) the preference order in action — proposals
// closer to frame rate 10 / color depth 3 evaluate lower — and (b) the
// degradation path a scarce node takes: it sheds frame rate first
// (cheapest reward loss), exactly the Section 5 heuristic.
//
// Run: go run ./examples/surveillance
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/qos"
	"repro/internal/radio"
	"repro/internal/resource"
	"repro/internal/workload"
)

func main() {
	spec := workload.VideoSpec()
	req := workload.SurveillanceRequest()

	// Show the request as the paper writes it.
	fmt.Println("user request (Section 3.1, decreasing importance):")
	for k, dp := range req.Dims {
		fmt.Printf("  %d. %s\n", k+1, spec.Dimension(dp.Dim).Name)
		for i, ap := range dp.Attrs {
			fmt.Printf("     (%c) %s: ", 'a'+i, ap.Attr)
			for j, set := range ap.Sets {
				if j > 0 {
					fmt.Print(", ")
				}
				fmt.Print(set)
			}
			fmt.Println()
		}
	}

	// Formulation on an abundant node: the preferred level.
	eval, err := qos.NewEvaluator(spec, &req)
	if err != nil {
		log.Fatal(err)
	}
	cp, err := core.CompileProblem(spec, &req, workload.VideoDemand(1), 4, nil)
	if err != nil {
		log.Fatal(err)
	}
	abundant := resource.NewSet(workload.Laptop.Capacity)
	f, err := cp.Formulate(abundant.CanReserve)
	if err != nil {
		log.Fatal(err)
	}
	d, _ := eval.Distance(f.Level)
	fmt.Printf("\nabundant laptop proposes  %v  (distance %.3f, reward %.2f)\n", f.Level, d, f.Reward)

	// Formulation under scarcity: watch the degradation order.
	scarce := resource.NewSet(workload.Phone.Capacity.Scale(0.45))
	f2, err := cp.Formulate(scarce.CanReserve)
	if err != nil {
		log.Fatal(err)
	}
	d2, _ := eval.Distance(f2.Level)
	fmt.Printf("scarce phone proposes     %v  (distance %.3f, reward %.2f, %d degradations)\n",
		f2.Level, d2, f2.Reward, f2.Degradations)
	fmt.Println("note: frame rate degrades first — its many grid steps make each step the")
	fmt.Println("cheapest reward loss, the minimal-decrease rule of Section 5")

	// Full negotiation across a small neighbourhood.
	cluster := core.NewCluster(7, radio.Config{ProcDelay: 0.001}, core.DefaultProviderConfig)
	for i, p := range []workload.Profile{workload.Phone, workload.Phone, workload.PDA, workload.Laptop} {
		if _, err := cluster.AddNode(workload.NodeSpecFor(radio.NodeID(i), p, core.GridPlacement(i, 4, 12))); err != nil {
			log.Fatal(err)
		}
	}
	svc := workload.SurveillanceService("cam1", 1.0)
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
	fmt.Printf("\ncoalition for %q (tasks: encode, relay):\n", svc.ID)
	for _, t := range svc.Tasks {
		a, ok := res.Assigned[t.ID]
		if !ok {
			fmt.Printf("  %-7s UNSERVED\n", t.ID)
			continue
		}
		fmt.Printf("  %-7s -> node %d (%s), distance %.3f\n",
			t.ID, a.Node, cluster.Node(a.Node).Profile, a.Distance)
	}
}
