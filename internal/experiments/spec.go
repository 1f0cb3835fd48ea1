package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"spamer"
	"spamer/internal/config"
	"spamer/internal/workloads"
)

// Spec is a machine-readable experiment description: which benchmark to
// run under which configuration(s), with optional hardware overrides.
// `spamer run` consumes these as JSON, making reproduction scriptable:
//
//	{
//	  "benchmark": "FIR",
//	  "algorithms": ["vl", "0delay", "tuned"],
//	  "scale": 1,
//	  "hop_latency": 24,
//	  "tuned": {"zeta": 512, "tau": 96, "delta": 64, "alpha": 1, "beta": 2}
//	}
type Spec struct {
	Benchmark  string              `json:"benchmark"`
	Shape      *workloads.Shape    `json:"shape,omitempty"`      // anonymous synthetic workload; Benchmark "" or "synthetic"
	Algorithms []string            `json:"algorithms,omitempty"` // default: all four
	Scale      int                 `json:"scale,omitempty"`
	HopLatency uint64              `json:"hop_latency,omitempty"`
	Channels   int                 `json:"bus_channels,omitempty"`
	Devices    int                 `json:"devices,omitempty"`
	NoInline   bool                `json:"no_inline,omitempty"`
	SRDEntries int                 `json:"srd_entries,omitempty"`
	Tuned      *config.TunedParams `json:"tuned,omitempty"`
	Repeat     int                 `json:"repeat,omitempty"` // determinism check
	Label      string              `json:"label,omitempty"`
	Fault      *FaultSpec          `json:"fault,omitempty"` // verification-only fault injection
	Extensions *Extensions         `json:"extensions,omitempty"`
}

// FaultSpec arms deterministic fault injection. It exists for the
// verification oracle: a campaign that finds a violation emits the
// failing spec — fault and all — as a plain runnable JSON repro, and
// tests use it to prove the invariants catch real failures.
type FaultSpec struct {
	// DropStash makes the routing device lose its n-th stash delivery
	// (1-based): the device acknowledges a hit without filling the line.
	DropStash uint64 `json:"drop_stash,omitempty"`
	// CorruptStash flips the payload bits of the n-th stash delivery
	// (1-based) while leaving its metadata intact: the run completes,
	// but the delivered content is wrong.
	CorruptStash uint64 `json:"corrupt_stash,omitempty"`
}

// armed reports whether any fault is actually injected.
func (f *FaultSpec) armed() bool {
	return f != nil && (f.DropStash > 0 || f.CorruptStash > 0)
}

// Extensions toggles non-paper features.
type Extensions struct {
	// AllowExtendedWorkloads lets Benchmark name allreduce/alltoall/
	// reduce in addition to the Table 2 suite.
	AllowExtendedWorkloads bool `json:"allow_extended_workloads,omitempty"`
}

// Outcome is the machine-readable result of one (benchmark, algorithm)
// run.
type Outcome struct {
	Label          string  `json:"label,omitempty"`
	Benchmark      string  `json:"benchmark"`
	Algorithm      string  `json:"algorithm"`
	Ticks          uint64  `json:"ticks"`
	Milliseconds   float64 `json:"ms"`
	Messages       uint64  `json:"messages"`
	SpeedupOverVL  float64 `json:"speedup_over_vl,omitempty"`
	FailureRate    float64 `json:"failure_rate"`
	BusUtilization float64 `json:"bus_utilization"`
	PushesIssued   uint64  `json:"pushes_issued"`
	Fetches        uint64  `json:"fetches"`
	Deterministic  *bool   `json:"deterministic,omitempty"` // set when Repeat > 1
}

// Validate checks a spec before running.
func (s *Spec) Validate() error {
	if s.Shape != nil {
		if s.Benchmark != "" && s.Benchmark != "synthetic" {
			return fmt.Errorf("experiments: shape specs take benchmark \"synthetic\" (or empty), got %q", s.Benchmark)
		}
		if err := s.Shape.Validate(); err != nil {
			return err
		}
		if d := s.Shape.DAG; d != nil {
			// The routing device's deadlock-freedom argument reserves
			// one prodBuf slot per queue, so the device tables must be
			// at least as large as the DAG's queue footprint.
			entries := s.SRDEntries
			if entries == 0 {
				entries = config.SRDEntries
			}
			if q := d.Queues(); q > entries {
				return fmt.Errorf("experiments: dag %q needs %d queues; srd_entries must be at least %d (have %d)",
					d.DisplayName(), q, q, entries)
			}
		}
	} else if s.Benchmark == "" {
		return fmt.Errorf("experiments: spec missing benchmark")
	} else if _, ok := s.Workload(); !ok {
		return fmt.Errorf("experiments: unknown benchmark %q", s.Benchmark)
	}
	for _, a := range s.Algorithms {
		// "" also selects VL in NewSystem, but each algorithm keeps one
		// spelling, so a spec has one canonical hash.
		if a == "" || !spamer.KnownAlgorithm(a) {
			return fmt.Errorf("experiments: unknown algorithm %q", a)
		}
	}
	if s.Scale < 0 || s.Repeat < 0 {
		return fmt.Errorf("experiments: negative scale/repeat")
	}
	return nil
}

// Workload resolves the spec's benchmark, honouring the extensions
// gate.
func (s *Spec) Workload() (*workloads.Workload, bool) {
	if s.Shape != nil {
		return s.Shape.Workload(), true
	}
	if w, ok := workloads.ByName(s.Benchmark); ok {
		return w, true
	}
	if s.Extensions != nil && s.Extensions.AllowExtendedWorkloads {
		return workloads.ExtendedByName(s.Benchmark)
	}
	return nil, false
}

// SystemConfig resolves the spec's hardware knobs into the simulator
// configuration one algorithm's run would use. The verification oracle
// builds its instrumented systems from this, so an oracle run and a
// Spec.Run of the same spec simulate the identical machine.
func (s *Spec) SystemConfig(alg string) spamer.Config {
	cfg := spamer.Config{
		Algorithm:   alg,
		HopLatency:  s.HopLatency,
		BusChannels: s.Channels,
		Devices:     s.Devices,
		NoInline:    s.NoInline,
		SRDEntries:  s.SRDEntries,
	}
	if s.Fault != nil {
		cfg.FaultDropStash = s.Fault.DropStash
		cfg.FaultCorruptStash = s.Fault.CorruptStash
	}
	if s.Tuned != nil && alg == spamer.AlgTuned {
		cfg.Tuned = *s.Tuned
	}
	return cfg
}

// Run executes the spec, returning one Outcome per algorithm.
func (s *Spec) Run() ([]Outcome, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	w, _ := s.Workload()
	scale := s.Scale
	if scale == 0 {
		scale = 1
	}
	var base *spamer.Result
	var out []Outcome
	for _, alg := range s.algorithms() {
		o, res := s.runAlg(w, alg, scale)
		if alg == spamer.AlgBaseline {
			r := res
			base = &r
		}
		if base != nil {
			o.SpeedupOverVL = res.Speedup(*base)
		}
		out = append(out, o)
	}
	return out, nil
}

// allAlgorithms is the algorithm list of a spec that names none.
var allAlgorithms = spamer.Configs()

// algorithms returns the spec's algorithms, or every configuration when
// it names none. Callers must not modify the result.
func (s *Spec) algorithms() []string {
	if len(s.Algorithms) == 0 {
		return allAlgorithms
	}
	return s.Algorithms
}

// runAlg executes one algorithm of the spec — including the Repeat
// determinism check — and returns its outcome alongside the raw result
// (the caller normalizes SpeedupOverVL once its baseline is known).
func (s *Spec) runAlg(w *workloads.Workload, alg string, scale int) (Outcome, spamer.Result) {
	res := w.Run(s.SystemConfig(alg), scale)
	bench := s.Benchmark
	if s.Shape != nil {
		bench = w.Name // shapes are anonymous; report their diagnostic name
	}
	o := Outcome{
		Label:          s.Label,
		Benchmark:      bench,
		Algorithm:      alg,
		Ticks:          res.Ticks,
		Milliseconds:   res.MS,
		Messages:       res.Pushed,
		FailureRate:    res.FailureRate(),
		BusUtilization: res.BusUtilization,
		PushesIssued:   res.Device.TotalPushes(),
		Fetches:        res.Device.Fetches,
	}
	if s.Repeat > 1 {
		det := true
		for i := 1; i < s.Repeat; i++ {
			again := w.Run(s.SystemConfig(alg), scale)
			if again.Ticks != res.Ticks || again.Device != res.Device {
				det = false
				break
			}
		}
		o.Deterministic = &det
	}
	return o, res
}

// wireSpec is the JSON form ReadSpecs decodes: a Spec plus the retired
// "domains" field, read only so that a spec asking for the removed
// multi-domain kernel is refused instead of silently run on the
// sequential one (whose ticks differ).
type wireSpec struct {
	Spec
	Domains int `json:"domains"`
}

// ReadSpecs decodes one spec or an array of specs from JSON. A non-zero
// "domains" field is an error: the parallel kernel it selected was
// removed. "domains": 0 and a missing field both mean the sequential
// kernel, the only one there is.
func ReadSpecs(r io.Reader) ([]Spec, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	// The first non-space byte tells the forms apart, so the body is
	// decoded once: an object is one spec, and anything else (an array,
	// null, or input that is not a spec at all) decodes as a list.
	var many []wireSpec
	if rest := bytes.TrimLeft(data, " \t\r\n"); len(rest) > 0 && rest[0] == '{' {
		many = make([]wireSpec, 1)
		err = json.Unmarshal(data, &many[0])
	} else {
		err = json.Unmarshal(data, &many)
	}
	if err != nil {
		return nil, fmt.Errorf("experiments: spec JSON: %w", err)
	}
	specs := make([]Spec, len(many))
	for i, w := range many {
		if w.Domains != 0 {
			return nil, fmt.Errorf("experiments: spec %d: domains %d: the parallel simulation kernel was removed; omit the field or set it to 0", i, w.Domains)
		}
		specs[i] = w.Spec
	}
	return specs, nil
}

// WriteOutcomes encodes outcomes as an indented JSON array, which is
// [] when there are none.
func WriteOutcomes(w io.Writer, outs []Outcome) error {
	if outs == nil {
		outs = []Outcome{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(outs)
}
