// Command spamer-verify runs the randomized differential-oracle
// campaign: N seeded cases (synthetic workload shapes and named Table 2
// benchmarks under randomized hardware knobs), each executed under the
// full invariant battery — message conservation, per-link FIFO,
// payload integrity, structural checks of the device link table /
// speculation buffer, counter balance, SPAMeR-vs-VL differential
// delivery, and determinism (see docs/TESTING.md).
//
// With -workers N every case additionally runs through a fabric
// worker pool of that size, and the distributed per-spec outcomes must
// be byte-identical to a local run (the distributed-vs-local
// differential; docs/FABRIC.md).
//
// Every failing case is greedily minimized and written as a JSON repro
// under -out; replay one with -repro:
//
//	spamer-verify -n 200 -seed 1
//	spamer-verify -n 100 -workers 2
//	spamer-verify -repro oracle-repro-....json
//
// Exit status is nonzero when any case fails.
package main

import (
	"flag"
	"fmt"
	"os"

	"spamer/internal/oracle"
	"spamer/internal/oracle/gen"
)

func main() {
	n := flag.Int("n", 50, "number of random cases to check")
	seed := flag.Uint64("seed", 1, "campaign base seed")
	out := flag.String("out", ".", "directory for minimized repro JSON files")
	repro := flag.String("repro", "", "replay a single repro/case JSON file instead of running a campaign")
	workers := flag.Int("workers", 0, "fabric worker pool size for the distributed-vs-local differential (0 disables)")
	flag.Parse()

	if *repro != "" {
		os.Exit(replay(*repro))
	}

	res, err := oracle.Campaign(oracle.CampaignOptions{
		Seed:     *seed,
		N:        *n,
		ReproDir: *out,
		Workers:  *workers,
		Log:      os.Stderr,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("verify-oracle: %d cases, %d runs, %d failures\n", res.Cases, res.Runs, len(res.Failures))
	if len(res.Failures) > 0 {
		for _, f := range res.Failures {
			fmt.Printf("  FAIL seed=%#x repro=%s\n", f.Original.Seed, f.ReproPath)
			for _, v := range f.Violations {
				fmt.Printf("    %s\n", v)
			}
		}
		os.Exit(1)
	}
}

// replay re-checks a persisted case. Repro files wrap the case in a
// CaseFailure; bare Case JSON (hand-written) is accepted too.
func replay(path string) int {
	cs, err := readReproCase(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	rep := oracle.CheckCase(cs)
	if !rep.Failed() {
		fmt.Printf("replay %s: %d runs, no violations\n", path, rep.Runs)
		return 0
	}
	fmt.Printf("replay %s: %d runs, %d violations\n", path, rep.Runs, len(rep.Violations))
	for _, v := range rep.Violations {
		fmt.Printf("  %s\n", v)
	}
	return 1
}

func readReproCase(path string) (gen.Case, error) {
	// A campaign repro file has the shape {"case": {...}, ...}; a bare
	// case file has {"spec": {...}, ...}. Try the wrapper first.
	if fail, err := oracle.ReadReproFile(path); err == nil && fail.Case.Spec.Benchmark != "" {
		return fail.Case, nil
	}
	return gen.ReadCaseFile(path)
}
