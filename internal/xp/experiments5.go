package xp

import (
	"fmt"
	"math"

	"repro/internal/baseline"
	"repro/internal/metrics"
	"repro/internal/radio"
	"repro/internal/resource"
	"repro/internal/workload"
)

// E16OptimalScaling measures what the branch-and-bound rewrite of the
// optimal baseline buys: the exhaustive enumerator pays
// (nodes+1)^tasks full re-formulation passes and stops being runnable
// after a couple dozen nodes, while the bounded search explores a tiny,
// slowly growing fraction of that space — so the optimality-gap axis of
// E5-style comparisons can extend to populations the enumerator cannot
// touch. Where both run, their allocations are asserted identical
// (same argmin, bit-equal distances). The population grid is
// deterministic; the runner fans the independent points out across
// workers.
func E16OptimalScaling(cfg Config) (*metrics.Table, error) {
	t := metrics.NewTable("E16 optimal baseline: branch-and-bound vs exhaustive enumeration",
		"nodes", "search-space", "bnb-explored", "pruning-x", "enum-agrees", "mean-dist", "served")
	pops := []int{3, 6, 12, 24, 48}
	if cfg.Quick {
		pops = []int{3, 12}
	}
	const nTasks = 4
	// The enumerator is only attempted while its cross-product stays
	// affordable inside a sweep; beyond that the row shows "-" (this is
	// precisely the wall the branch-and-bound removes).
	const enumBudget = 300_000
	acc, err := sweep(cfg, 1, pops, func(nodes int, rep Rep) ([]float64, error) {
		pb, err := e16Problem(nodes, nTasks)
		if err != nil {
			return nil, err
		}
		alloc, explored, err := baseline.Optimal{}.AllocateCounted(pb)
		if err != nil {
			return nil, err
		}
		space := math.Pow(float64(nodes+1), nTasks)
		agree := nan
		if space <= enumBudget {
			pe, err := e16Problem(nodes, nTasks)
			if err != nil {
				return nil, err
			}
			enum, err := baseline.OptimalExhaustive{MaxCombinations: enumBudget}.Allocate(pe)
			if err != nil {
				return nil, err
			}
			agree = 0
			if alloc.Equal(enum) {
				agree = 1
			}
		}
		return []float64{
			space,
			float64(explored),
			space / float64(explored),
			agree,
			alloc.MeanDistance(),
			float64(len(alloc.Assigned)),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, nodes := range pops {
		vec := acc.Get(i, 0)
		agrees := "-"
		if !isNaN(vec[3]) {
			agrees = fmt.Sprintf("%v", vec[3] != 0)
		}
		t.AddRow(nodes, vec[0], int64(vec[1]), vec[2], agrees,
			vec[4], fmt.Sprintf("%d/%d", int(vec[5]), nTasks))
	}
	t.Note("4 stream tasks at 1.5x demand over a deterministic phone/PDA/laptop cycle")
	t.Note("search-space = (nodes+1)^tasks leaves of full re-formulation; explored = bnb search edges")
	t.Note("enum-agrees asserts bit-identical allocations where the enumerator is tractable; '-' = refused")
	return t, nil
}

// e16Problem builds the deterministic allocation instance: profiles
// cycle phone, PDA, laptop so capacity grows smoothly with population.
func e16Problem(nodes, nTasks int) (*baseline.Problem, error) {
	svc := workload.StreamService("e16", nTasks, 1.5)
	p := &baseline.Problem{Service: svc, Organizer: 0}
	profiles := []workload.Profile{workload.Phone, workload.PDA, workload.Laptop}
	for i := 0; i < nodes; i++ {
		prof := profiles[i%len(profiles)]
		p.Nodes = append(p.Nodes, baseline.NodeView{
			ID:       radio.NodeID(i),
			Res:      resource.NewSet(prof.Capacity),
			CommCost: float64(i) * 0.01,
		})
	}
	return p, nil
}
