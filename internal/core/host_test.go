package core

import (
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/radio"
	"repro/internal/resource"
	"repro/internal/sim"
)

// TestHostDuplicateOrganizeHasNoSideEffects: a second request for a
// service ID the node already organizes is rejected before anything
// else happens — the recording transport sees no send and the catalog
// does not learn the duplicate's spec.
func TestHostDuplicateOrganizeHasNoSideEffects(t *testing.T) {
	tr := &recTransport{self: 0, comm: map[radio.NodeID]float64{}}
	eng := sim.New(1)
	h := NewHost(tr, simTimers{eng}, NewCatalog(), obs.NewRegistry(),
		resource.NewSet(resource.Vector{}), DefaultProviderConfig, proto.RetryConfig{})

	o, err := h.Organize(deterministicService(), DefaultOrganizerConfig, nil)
	if err != nil {
		t.Fatal(err)
	}
	o.Start()
	if len(tr.broadcasts) != 1 {
		t.Fatalf("broadcasts after Start = %d, want the CFP", len(tr.broadcasts))
	}
	sends, broadcasts := len(tr.sent), len(tr.broadcasts)

	dup := deterministicService()
	spec := *dup.Spec
	spec.Name = "dup-only"
	dup.Spec = &spec
	if _, err := h.Organize(dup, DefaultOrganizerConfig, nil); err == nil {
		t.Fatal("duplicate service accepted")
	}
	if len(tr.sent) != sends || len(tr.broadcasts) != broadcasts {
		t.Errorf("rejected duplicate sent: %d sends, %d broadcasts", len(tr.sent)-sends, len(tr.broadcasts)-broadcasts)
	}
	if _, ok := h.Catalog().Spec("dup-only"); ok {
		t.Error("rejected duplicate registered its spec")
	}
}

// TestHostForgetsDissolvedOrganizers: over 1500 formations with a few in
// flight, the organizer table follows the formations in flight (plus the
// sweep's slack), not the node's history — without anyone calling Retire
// — and a service ID is free again once its organizer has dissolved.
func TestHostForgetsDissolvedOrganizers(t *testing.T) {
	const inFlight = 3
	tr := &recTransport{self: 0, comm: map[radio.NodeID]float64{}}
	h := NewHost(tr, simTimers{sim.New(1)}, NewCatalog(), obs.NewRegistry(),
		resource.NewSet(resource.Vector{}), DefaultProviderConfig, proto.RetryConfig{})

	var live []*Organizer
	for i := 0; i < 1500; i++ {
		svc := deterministicService()
		svc.ID = fmt.Sprintf("svc-%d", i)
		o, err := h.Organize(svc, DefaultOrganizerConfig, nil)
		if err != nil {
			t.Fatal(err)
		}
		if live = append(live, o); len(live) > inFlight {
			live[0].Dissolve("done")
			live = live[1:]
		}
		h.mu.Lock()
		n := len(h.organizers)
		h.mu.Unlock()
		if limit := 2*inFlight + organizerSweepMin; n > limit {
			t.Fatalf("after %d formations the table holds %d organizers, want at most %d", i+1, n, limit)
		}
	}

	again := deterministicService()
	again.ID = live[0].Service().ID
	if _, err := h.Organize(again, DefaultOrganizerConfig, nil); err == nil {
		t.Error("a service that is still organized was accepted again")
	}
	live[0].Dissolve("done")
	if _, err := h.Organize(again, DefaultOrganizerConfig, nil); err != nil {
		t.Errorf("a dissolved service's ID is still taken: %v", err)
	}
}
