package oracle

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"spamer/internal/oracle/gen"
)

// The struct-of-arrays rewrite of the kernel's hot tables (SoA specBuf,
// slab-allocated lines, CPS endpoint state machines) replaced the exact
// data structures the PR 5 fuzzing campaign minimized its repros
// against. These tests replay the checked-in repro corpus
// (testdata/repros) on the current kernel so a layout migration can
// never silently change what those cases exercise. There is no build
// tag or environment switch back to the old layout: the corpus must
// pass (or, for the fault repro, fail identically) on the code as
// built.

// TestMigrationEvictionRepros replays the minimized eviction-during-pop
// corpus: the eviction timer firing inside a dequeue's L1-hit-latency
// sleep once panicked ("Take on evicted line"). The bare-case JSON
// files sweep eviction periods across fan shapes; all must run clean.
func TestMigrationEvictionRepros(t *testing.T) {
	replayClean(t, "evict-during-pop-*.json", func(t *testing.T, cs gen.Case) {
		if cs.EvictEvery == 0 {
			t.Fatal("repro lost its eviction period")
		}
	})
}

// TestDanglingFetchRepros replays generated DAG cases (gen.New(seed).
// DAGCase() for seeds 75, 283 and 397) whose VL runs once panicked
// after every thread had exited: a drain replica's last vl_fetch,
// NACKed by a full consBuf, replayed until the replay bound. All must
// run clean.
func TestDanglingFetchRepros(t *testing.T) {
	replayClean(t, "dangling-fetch-*.json", func(*testing.T, gen.Case) {})
}

// replayClean replays every bare-case repro matching pattern under the
// full invariant battery, after check inspects the decoded case.
func replayClean(t *testing.T, pattern string, check func(*testing.T, gen.Case)) {
	paths, err := filepath.Glob(filepath.Join("testdata", "repros", pattern))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatalf("repro corpus %s missing from testdata/repros", pattern)
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var cs gen.Case
			if err := json.Unmarshal(data, &cs); err != nil {
				t.Fatal(err)
			}
			check(t, cs)
			if rep := CheckCase(cs); rep.Failed() {
				t.Fatalf("replay on current kernel: %v", rep.Violations)
			}
		})
	}
}

// TestMigrationFaultRepro replays the minimized fault-injection repro:
// dropping the 5th stash delivery must still be caught as message loss
// with the same invariant set the campaign recorded. A layout change
// that renumbered deliveries or weakened conservation would show up as
// a changed violation profile here.
func TestMigrationFaultRepro(t *testing.T) {
	fail, err := ReadReproFile(filepath.Join("testdata", "repros", "fault-drop-stash.json"))
	if err != nil {
		t.Fatal(err)
	}
	if fail.Case.Spec.Fault == nil || fail.Case.Spec.Fault.DropStash == 0 {
		t.Fatal("repro lost its fault injection")
	}
	rep := CheckCase(fail.Case)
	if !rep.Failed() {
		t.Fatal("fault repro no longer fails on current kernel")
	}
	// Every invariant the campaign recorded must still fire, and no new
	// ones may appear: the violation profile is part of the repro.
	want := map[string]bool{}
	for _, v := range fail.Violations {
		want[v.Invariant] = true
	}
	got := map[string]bool{}
	for _, v := range rep.Violations {
		got[v.Invariant] = true
	}
	for inv := range want {
		if !got[inv] {
			t.Errorf("recorded invariant %q no longer fires; got %v", inv, rep.Violations)
		}
	}
	for inv := range got {
		if !want[inv] {
			t.Errorf("new invariant %q fires on replay (profile drift); recorded %v", inv, fail.Violations)
		}
	}
}
