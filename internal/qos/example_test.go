package qos_test

import (
	"fmt"

	"repro/internal/qos"
)

// ExampleEvaluator_Distance reproduces the paper's Section 6 evaluation
// on the Section 3.1 surveillance request: a proposal at frame rate 5
// and color depth 1 evaluates farther from the preferences than one at
// frame rate 9 and color depth 3.
func ExampleEvaluator_Distance() {
	spec := &qos.Spec{
		Name: "multimedia",
		Dimensions: []qos.Dimension{
			{ID: "video", Name: "Video Quality", Attributes: []qos.Attribute{
				{ID: "frame_rate", Domain: qos.IntRange(1, 30)},
				{ID: "color_depth", Domain: qos.DiscreteInts(1, 3, 8, 16, 24)},
			}},
			{ID: "audio", Name: "Audio Quality", Attributes: []qos.Attribute{
				{ID: "sampling_rate", Domain: qos.DiscreteInts(8, 16, 24, 44)},
				{ID: "sample_bits", Domain: qos.DiscreteInts(8, 16, 24)},
			}},
		},
	}
	req := qos.Request{
		Service: "surveillance",
		Dims: []qos.DimPref{
			{Dim: "video", Attrs: []qos.AttrPref{
				{Attr: "frame_rate", Sets: []qos.ValueSet{qos.Span(10, 5), qos.Span(4, 1)}},
				{Attr: "color_depth", Sets: []qos.ValueSet{qos.One(qos.Int(3)), qos.One(qos.Int(1))}},
			}},
			{Dim: "audio", Attrs: []qos.AttrPref{
				{Attr: "sampling_rate", Sets: []qos.ValueSet{qos.One(qos.Int(8))}},
				{Attr: "sample_bits", Sets: []qos.ValueSet{qos.One(qos.Int(8))}},
			}},
		},
	}
	eval, err := qos.NewEvaluator(spec, &req)
	if err != nil {
		panic(err)
	}
	level := func(fr, cd int64) qos.Level {
		return qos.Level{
			{Dim: "video", Attr: "frame_rate"}:    qos.Int(fr),
			{Dim: "video", Attr: "color_depth"}:   qos.Int(cd),
			{Dim: "audio", Attr: "sampling_rate"}: qos.Int(8),
			{Dim: "audio", Attr: "sample_bits"}:   qos.Int(8),
		}
	}
	near, _ := eval.Distance(level(9, 3))
	far, _ := eval.Distance(level(5, 1))
	fmt.Printf("near: %.4f\n", near)
	fmt.Printf("far:  %.4f\n", far)
	fmt.Println("best is near:", near < far)
	// Output:
	// near: 0.0345
	// far:  0.2974
	// best is near: true
}
