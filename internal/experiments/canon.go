package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"spamer"
	"spamer/internal/config"
	"spamer/internal/noc"
	"spamer/internal/workloads"
)

// This file defines the canonical form of a Spec and a stable
// content-address over it. Two specs that describe the same simulation
// — regardless of JSON field order, omitted-vs-explicit defaults, or an
// override that happens to spell out the built-in value — canonicalize
// to the same bytes and therefore the same hash. The serving layer
// (internal/service) keys its result cache on this hash, so a repeated
// sweep is answered without re-simulating.

// Canonical returns a copy of s with every defaulted field resolved to
// the value the simulator would actually use and every irrelevant
// override dropped:
//
//   - empty Algorithms becomes the full four-configuration suite;
//   - zero Scale/Repeat/HopLatency/Channels/Devices become their
//     effective defaults;
//   - SRDEntries spelling out the built-in entry count collapses to 0;
//   - a Tuned block that restates the paper defaults, or that no tuned
//     algorithm will ever read, is dropped;
//   - an Extensions block that grants nothing, or whose grant the
//     benchmark does not need, is dropped.
//
// Label is preserved verbatim: it is copied into every Outcome, so two
// specs with different labels produce different results.
func (s Spec) Canonical() Spec {
	c := s
	if c.Shape != nil {
		// Shape specs: pin the benchmark name, canonicalize the shape
		// (default spellings and the nested arrival spec collapse), and
		// drop extensions — the shape is the workload, no grant needed.
		c.Benchmark = "synthetic"
		sh := c.Shape.Canonical()
		c.Shape = &sh
		c.Extensions = nil
	}
	if len(c.Algorithms) == 0 {
		c.Algorithms = spamer.Configs()
	} else {
		c.Algorithms = append([]string(nil), c.Algorithms...)
	}
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.HopLatency == 0 {
		c.HopLatency = config.HopCycles
	}
	if c.Channels <= 0 {
		c.Channels = noc.DefaultChannels
	}
	if c.Devices <= 0 {
		c.Devices = 1
	}
	if c.SRDEntries == config.SRDEntries {
		// Spelling out the built-in entry count yields the same device
		// as leaving the override unset (prod = cons = link = default).
		c.SRDEntries = 0
	}
	if c.Repeat <= 1 {
		// Repeat 0 and 1 both mean "run once, no determinism check".
		c.Repeat = 1
	}
	if c.Fault != nil {
		if !c.Fault.armed() {
			c.Fault = nil
		} else {
			f := *c.Fault
			c.Fault = &f
		}
	}
	if c.Tuned != nil {
		if !usesTuned(c.Algorithms) || *c.Tuned == config.DefaultTuned() {
			c.Tuned = nil
		} else {
			t := *c.Tuned
			c.Tuned = &t
		}
	}
	if c.Extensions != nil {
		_, core := workloads.ByName(c.Benchmark)
		if !c.Extensions.AllowExtendedWorkloads || core {
			c.Extensions = nil
		} else {
			e := *c.Extensions
			c.Extensions = &e
		}
	}
	return c
}

func usesTuned(algs []string) bool {
	for _, a := range algs {
		if a == spamer.AlgTuned {
			return true
		}
	}
	return false
}

// Hash returns the hex SHA-256 of the canonical spec's JSON encoding —
// a stable content address, independent of the field order or default
// spelling of the JSON the spec was read from.
func (s Spec) Hash() string {
	return HashSpecs([]Spec{s})
}

// HashSpecs content-addresses an ordered spec list (the unit
// `spamer run` and the service execute). Order matters: outcomes are
// emitted in spec order, so a permuted list is a different job.
func HashSpecs(specs []Spec) string {
	canon := make([]Spec, len(specs))
	for i := range specs {
		canon[i] = specs[i].Canonical()
	}
	// Struct marshaling fixes the key order, so the encoding — and the
	// hash — depend only on the canonical field values.
	data, err := json.Marshal(canon)
	if err != nil {
		// Spec holds only plain data; Marshal cannot fail on it.
		panic("experiments: marshal canonical spec: " + err.Error())
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
