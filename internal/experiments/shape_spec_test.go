package experiments

import (
	"strings"
	"testing"

	"spamer/internal/traffic"
	"spamer/internal/workloads"
)

const openLoopSpecJSON = `{
  "shape": {
    "stages": 3, "messages": 300, "lines": 4, "window": 8,
    "arrival": {"process": "mmpp", "seed": 17, "mean_gap": 90, "users": 4}
  },
  "algorithms": ["vl", "tuned"]
}`

// TestShapeSpecJSON pins the spec-JSON wiring of open-loop shapes: a
// shape spec parses, validates, runs, and reports the shape's diagnostic
// name.
func TestShapeSpecJSON(t *testing.T) {
	specs, err := ReadSpecs(strings.NewReader(openLoopSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 || specs[0].Shape == nil {
		t.Fatalf("parsed %+v", specs)
	}
	outs, err := specs[0].Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 {
		t.Fatalf("got %d outcomes, want 2", len(outs))
	}
	for _, o := range outs {
		if o.Messages != 2*300 {
			t.Fatalf("%s pushed %d messages, want %d", o.Algorithm, o.Messages, 2*300)
		}
		if !strings.HasPrefix(o.Benchmark, "synthetic/chain-s3-m300-ol:mmpp") {
			t.Fatalf("outcome benchmark %q does not carry the shape name", o.Benchmark)
		}
	}
}

// TestShapeSpecValidate pins shape-spec validation rules.
func TestShapeSpecValidate(t *testing.T) {
	sh := &workloads.Shape{Stages: 2, Messages: 10,
		Arrival: &traffic.Spec{MeanGap: 50}}
	ok := Spec{Shape: sh}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	named := Spec{Benchmark: "synthetic", Shape: sh}
	if err := named.Validate(); err != nil {
		t.Fatal(err)
	}
	clash := Spec{Benchmark: "FIR", Shape: sh}
	if err := clash.Validate(); err == nil {
		t.Fatal("shape + core benchmark name should not validate")
	}
	badArr := Spec{Shape: &workloads.Shape{Stages: 2, Messages: 10,
		Arrival: &traffic.Spec{Process: "nope", MeanGap: 1}}}
	if err := badArr.Validate(); err == nil {
		t.Fatal("invalid arrival process should not validate")
	}
}

// TestShapeSpecHash pins the content address of shape specs: omitted
// defaults, explicit defaults, and the empty-vs-"synthetic" benchmark
// spelling all hash identically; different arrival knobs do not.
func TestShapeSpecHash(t *testing.T) {
	a := Spec{Shape: &workloads.Shape{Stages: 2, Messages: 20,
		Arrival: &traffic.Spec{MeanGap: 70}}}
	b := Spec{Benchmark: "synthetic", Shape: &workloads.Shape{Stages: 2, Messages: 20, Producers: 1, Lines: 2,
		Arrival: &traffic.Spec{Process: "poisson", MeanGap: 70, Users: 1}}}
	if a.Hash() != b.Hash() {
		t.Fatalf("equivalent shape specs hash differently:\n%s\n%s", a.Hash(), b.Hash())
	}
	c := Spec{Shape: &workloads.Shape{Stages: 2, Messages: 20,
		Arrival: &traffic.Spec{MeanGap: 70, Users: 2}}}
	if a.Hash() == c.Hash() {
		t.Fatal("different arrival populations must hash differently")
	}
}
