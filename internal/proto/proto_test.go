package proto

import (
	"testing"

	"repro/internal/qos"
)

func sampleCFP(tasks int) *CFP {
	m := &CFP{ServiceID: "svc", SpecName: "spec", Deadline: 1}
	for i := 0; i < tasks; i++ {
		m.Tasks = append(m.Tasks, TaskDescr{
			TaskID: "t",
			Request: qos.Request{
				Service: "svc",
				Dims: []qos.DimPref{{
					Dim:   "video",
					Attrs: []qos.AttrPref{{Attr: "fr", Sets: []qos.ValueSet{qos.Span(30, 10)}}},
				}},
			},
			DemandRef: "svc/t",
		})
	}
	return m
}

func TestWireSizesArePositiveAndMonotone(t *testing.T) {
	msgs := []Msg{
		sampleCFP(1),
		&Proposal{ServiceID: "s", Tasks: []TaskProposal{{TaskID: "t", Level: qos.Level{{Dim: "d", Attr: "a"}: qos.Int(1)}}}},
		&Award{ServiceID: "s", TaskIDs: []string{"t"}},
		&AwardAck{ServiceID: "s", TaskIDs: []string{"t"}, OK: true},
		&TaskData{ServiceID: "s", TaskID: "t", Bytes: 1024},
		&TaskRelease{ServiceID: "s", TaskID: "t", Reason: "migrated"},
		&Heartbeat{ServiceID: "s", TaskIDs: []string{"t"}},
		&Dissolve{ServiceID: "s", Reason: "done"},
	}
	for _, m := range msgs {
		if m.WireSize() <= 0 {
			t.Errorf("%s wire size %d", m.Kind(), m.WireSize())
		}
		if m.Kind() == "" {
			t.Error("empty kind")
		}
	}
	// More tasks -> bigger CFP.
	if sampleCFP(3).WireSize() <= sampleCFP(1).WireSize() {
		t.Error("CFP size must grow with tasks")
	}
	// TaskData dominated by payload.
	small := &TaskData{Bytes: 10}
	big := &TaskData{Bytes: 1 << 20}
	if big.WireSize()-small.WireSize() != 1<<20-10 {
		t.Error("TaskData size must track payload bytes")
	}
	// Proposal grows with level attributes.
	p1 := &Proposal{Tasks: []TaskProposal{{Level: qos.Level{{Dim: "d", Attr: "a"}: qos.Int(1)}}}}
	p2 := &Proposal{Tasks: []TaskProposal{{Level: qos.Level{
		{Dim: "d", Attr: "a"}: qos.Int(1),
		{Dim: "d", Attr: "b"}: qos.Int(2),
	}}}}
	if p2.WireSize() <= p1.WireSize() {
		t.Error("Proposal size must grow with level attributes")
	}
}

func TestKindsAreDistinct(t *testing.T) {
	kinds := map[string]bool{}
	for _, m := range []Msg{
		&CFP{}, &Proposal{}, &Award{}, &AwardAck{}, &TaskData{}, &TaskRelease{}, &Heartbeat{}, &Dissolve{},
	} {
		if kinds[m.Kind()] {
			t.Errorf("duplicate kind %q", m.Kind())
		}
		kinds[m.Kind()] = true
	}
	if len(kinds) != 8 {
		t.Errorf("kinds = %d", len(kinds))
	}
}
