package core

import (
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
