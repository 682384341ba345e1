package task

import (
	"strings"
	"testing"

	"repro/internal/qos"
	"repro/internal/resource"
)

func testSpec() *qos.Spec {
	return &qos.Spec{
		Name: "t",
		Dimensions: []qos.Dimension{
			{ID: "video", Attributes: []qos.Attribute{
				{ID: "fr", Domain: qos.IntRange(1, 30)},
				{ID: "codec", Domain: qos.DiscreteStrings("hq", "main", "fast")},
			}},
		},
	}
}

func testRequest() qos.Request {
	return qos.Request{
		Service: "svc",
		Dims: []qos.DimPref{{
			Dim: "video",
			Attrs: []qos.AttrPref{
				{Attr: "fr", Sets: []qos.ValueSet{qos.Span(30, 10)}},
				{Attr: "codec", Sets: []qos.ValueSet{qos.One(qos.Str("hq")), qos.One(qos.Str("fast"))}},
			},
		}},
	}
}

func testTask(id string) *Task {
	return &Task{
		ID:      id,
		Request: testRequest(),
		Demand: FuncDemand(func(*qos.Spec, qos.Level) (resource.Vector, error) {
			return resource.V(resource.KV{K: resource.CPU, A: 10}), nil
		}),
		InBytes: 100, OutBytes: 50,
	}
}

func TestServiceValidate(t *testing.T) {
	svc := &Service{ID: "s", Spec: testSpec(), Tasks: []*Task{testTask("a"), testTask("b")}}
	if err := svc.Validate(); err != nil {
		t.Fatalf("valid service rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Service)
		want   string
	}{
		{"empty id", func(s *Service) { s.ID = "" }, "empty ID"},
		{"nil spec", func(s *Service) { s.Spec = nil }, "no spec"},
		{"no tasks", func(s *Service) { s.Tasks = nil }, "no tasks"},
		{"empty task id", func(s *Service) { s.Tasks[0].ID = "" }, "empty ID"},
		{"dup task", func(s *Service) { s.Tasks[1].ID = "a" }, "duplicates"},
		{"nil demand", func(s *Service) { s.Tasks[0].Demand = nil }, "no demand model"},
		{"bad request", func(s *Service) { s.Tasks[0].Request.Dims[0].Dim = "nope" }, "unknown dimension"},
		{"negative bytes", func(s *Service) { s.Tasks[0].InBytes = -1 }, "negative data size"},
	}
	for _, c := range cases {
		svc := &Service{ID: "s", Spec: testSpec(), Tasks: []*Task{testTask("a"), testTask("b")}}
		c.mutate(svc)
		err := svc.Validate()
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: %q missing %q", c.name, err, c.want)
		}
	}
}

func TestServiceTaskLookupAndBytes(t *testing.T) {
	svc := &Service{ID: "s", Spec: testSpec(), Tasks: []*Task{testTask("a")}}
	if svc.Task("a") == nil || svc.Task("z") != nil {
		t.Error("Task lookup broken")
	}
	if svc.Tasks[0].DataBytes() != 150 {
		t.Error("DataBytes = in + out")
	}
}

func TestLinearDemand(t *testing.T) {
	spec := testSpec()
	dm := &LinearDemand{
		Base: resource.V(resource.KV{K: resource.CPU, A: 5}),
		Coef: map[qos.AttrKey]resource.Vector{
			{Dim: "video", Attr: "fr"}:    resource.V(resource.KV{K: resource.CPU, A: 2}),
			{Dim: "video", Attr: "codec"}: resource.V(resource.KV{K: resource.Memory, A: 10}),
		},
	}
	level := qos.Level{
		{Dim: "video", Attr: "fr"}:    qos.Int(10),
		{Dim: "video", Attr: "codec"}: qos.Str("main"), // quality index 1
	}
	v, err := dm.Demand(spec, level)
	if err != nil {
		t.Fatal(err)
	}
	if v[resource.CPU] != 25 { // 5 + 2*10
		t.Errorf("cpu = %v, want 25", v[resource.CPU])
	}
	if v[resource.Memory] != 10 { // 10 * index(main)=1
		t.Errorf("mem = %v, want 10", v[resource.Memory])
	}
	// Higher frame rate costs strictly more (monotone in magnitude).
	level[qos.AttrKey{Dim: "video", Attr: "fr"}] = qos.Int(20)
	v2, err := dm.Demand(spec, level)
	if err != nil {
		t.Fatal(err)
	}
	if v2[resource.CPU] <= v[resource.CPU] {
		t.Error("demand not monotone in frame rate")
	}
	// Attributes absent from the level are simply skipped.
	v3, err := dm.Demand(spec, qos.Level{})
	if err != nil {
		t.Fatal(err)
	}
	if v3[resource.CPU] != 5 {
		t.Error("missing attributes should contribute nothing beyond base")
	}
}

func TestLinearDemandErrors(t *testing.T) {
	spec := testSpec()
	dm := &LinearDemand{Coef: map[qos.AttrKey]resource.Vector{
		{Dim: "video", Attr: "nope"}: resource.V(resource.KV{K: resource.CPU, A: 1}),
	}}
	level := qos.Level{{Dim: "video", Attr: "nope"}: qos.Str("x")}
	if _, err := dm.Demand(spec, level); err == nil {
		t.Error("unknown string attribute accepted")
	}
	dm2 := &LinearDemand{Coef: map[qos.AttrKey]resource.Vector{
		{Dim: "video", Attr: "codec"}: resource.V(resource.KV{K: resource.CPU, A: 1}),
	}}
	bad := qos.Level{{Dim: "video", Attr: "codec"}: qos.Str("zzz")}
	if _, err := dm2.Demand(spec, bad); err == nil {
		t.Error("out-of-domain string value accepted")
	}
	// Negative coefficients that push the vector negative must error.
	dm3 := &LinearDemand{
		Base: resource.V(resource.KV{K: resource.CPU, A: 1}),
		Coef: map[qos.AttrKey]resource.Vector{
			{Dim: "video", Attr: "fr"}: resource.V(resource.KV{K: resource.CPU, A: -1}),
		},
	}
	neg := qos.Level{{Dim: "video", Attr: "fr"}: qos.Int(10)}
	if _, err := dm3.Demand(spec, neg); err == nil {
		t.Error("negative demand vector accepted")
	}
}

func TestConstAndFuncDemand(t *testing.T) {
	want := resource.V(resource.KV{K: resource.Memory, A: 7})
	fd := FuncDemand(func(*qos.Spec, qos.Level) (resource.Vector, error) { return want, nil })
	v, err := fd.Demand(testSpec(), qos.Level{})
	if err != nil || v != want {
		t.Errorf("FuncDemand = %v, %v", v, err)
	}
}
