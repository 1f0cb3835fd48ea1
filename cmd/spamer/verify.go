package main

import (
	"encoding/json"
	"fmt"
	"os"

	"spamer/internal/oracle"
	"spamer/internal/oracle/gen"
)

// verifyCmd runs the randomized differential-oracle campaign: N seeded
// cases (synthetic workload shapes and named Table 2 benchmarks under
// randomized hardware knobs), each executed under the full invariant
// battery — message conservation, per-link FIFO, payload integrity,
// structural checks of the device link table / speculation buffer,
// counter balance, SPAMeR-vs-VL differential delivery, and determinism
// (see docs/TESTING.md).
//
// With -workers N every case additionally runs through a fabric worker
// pool of that size, and the distributed per-spec outcomes must be
// byte-identical to a local run (docs/FABRIC.md). Every failing case is
// greedily minimized and written as a JSON repro under -out; replay one
// with -repro:
//
//	spamer verify -n 200 -seed 1
//	spamer verify -n 100 -workers 2
//	spamer verify -repro oracle-repro-....json
//
// The exit status is 1 when any case fails.
func verifyCmd(c *cli) error {
	n := c.flags.Int("n", 50, "number of random cases to check")
	seed := c.flags.Uint64("seed", 1, "campaign base seed")
	out := c.flags.String("out", ".", "directory for minimized repro JSON files")
	repro := c.flags.String("repro", "", "replay a single repro/case JSON file instead of running a campaign")
	workers := c.flags.Int("workers", 0, "fabric worker pool size for the distributed-vs-local differential (0 disables)")
	if err := c.parse(); err != nil {
		return err
	}
	if *repro != "" {
		return replay(c, *repro)
	}

	res, err := oracle.Campaign(oracle.CampaignOptions{
		Seed:     *seed,
		N:        *n,
		ReproDir: *out,
		Workers:  *workers,
		Log:      c.stderr,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(c.stdout, "verify-oracle: %d cases, %d runs, %d failures\n", res.Cases, res.Runs, len(res.Failures))
	if len(res.Failures) == 0 {
		return nil
	}
	for _, f := range res.Failures {
		fmt.Fprintf(c.stdout, "  FAIL seed=%#x repro=%s\n", f.Original.Seed, f.ReproPath)
		for _, v := range f.Violations {
			fmt.Fprintf(c.stdout, "    %s\n", v)
		}
	}
	return exitStatus(1)
}

// replay re-checks a persisted case: exit 0 when clean, 1 with the
// violation list, 2 when the file cannot be read.
func replay(c *cli, path string) error {
	cs, err := readReproCase(path)
	if err != nil {
		return &exitError{code: 2, err: err}
	}
	rep := oracle.CheckCase(cs)
	if !rep.Failed() {
		fmt.Fprintf(c.stdout, "replay %s: %d runs, no violations\n", path, rep.Runs)
		return nil
	}
	fmt.Fprintf(c.stdout, "replay %s: %d runs, %d violations\n", path, rep.Runs, len(rep.Violations))
	for _, v := range rep.Violations {
		fmt.Fprintf(c.stdout, "  %s\n", v)
	}
	return exitStatus(1)
}

// readReproCase accepts both a campaign repro file, which wraps the
// case as {"case": {...}, ...}, and a bare hand-written case file,
// {"spec": {...}, ...}, telling them apart by the "case" key.
func readReproCase(path string) (gen.Case, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return gen.Case{}, err
	}
	var keys map[string]json.RawMessage
	if json.Unmarshal(data, &keys) == nil && keys["case"] != nil {
		fail, err := oracle.ReadReproFile(path)
		return fail.Case, err
	}
	return gen.ReadCaseFile(path)
}
