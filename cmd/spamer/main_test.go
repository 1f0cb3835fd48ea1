package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"spamer/internal/experiments"
	"spamer/internal/harness"
)

// call drives the dispatcher in-process and returns its exit status and
// output streams.
func call(t *testing.T, stdin string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = dispatch(args, strings.NewReader(stdin), &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestUnknownSubcommandPrintsUsage(t *testing.T) {
	code, _, stderr := call(t, "", "nosuch")
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if len(subcommands) != 13 {
		t.Fatalf("%d subcommands, want 13", len(subcommands))
	}
	for _, sc := range subcommands {
		if !strings.Contains(stderr, "\n  "+sc.name+" ") {
			t.Errorf("usage does not list %q:\n%s", sc.name, stderr)
		}
	}
}

// TestRunMatchesLibrary: `spamer run` writes exactly the bytes
// experiments.WriteOutcomes produces for RunSpecsParallel on the same
// specs.
func TestRunMatchesLibrary(t *testing.T) {
	const batch = `[{"benchmark":"ping-pong","algorithms":["vl","0delay"]},
{"benchmark":"incast","algorithms":["vl"],"label":"second"}]`
	code, stdout, stderr := call(t, batch, "run", "-parallel", "2")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}

	specs, err := experiments.ReadSpecs(strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	var want []experiments.Outcome
	for _, r := range experiments.RunSpecsParallel(context.Background(), specs, harness.Options{Workers: 1}) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		want = append(want, r.Outcomes...)
	}
	var buf bytes.Buffer
	if err := experiments.WriteOutcomes(&buf, want); err != nil {
		t.Fatal(err)
	}
	if stdout != buf.String() {
		t.Fatalf("run stdout differs from WriteOutcomes:\n got: %s\nwant: %s", stdout, buf.String())
	}
}

// TestTraceRejectsUnknownAlgorithm: an unknown -alg is an invalid
// invocation (one stderr line, exit 2), not a simulator panic.
func TestTraceRejectsUnknownAlgorithm(t *testing.T) {
	for _, args := range [][]string{
		{"trace", "-alg", "nosuch"},
		{"trace", "-phases", "FIR", "-alg", "bogus"},
	} {
		code, stdout, stderr := call(t, "", args...)
		if code != 2 {
			t.Errorf("%v: exit = %d, want 2", args, code)
		}
		if stdout != "" || strings.Count(stderr, "\n") != 1 {
			t.Errorf("%v: want one stderr line and no stdout, got stdout %q stderr %q", args, stdout, stderr)
		}
	}
}

func TestVerifySmallCampaign(t *testing.T) {
	code, stdout, stderr := call(t, "", "verify", "-n", "3", "-out", t.TempDir())
	if code != 0 {
		t.Fatalf("exit = %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "3 cases") || !strings.Contains(stdout, "0 failures") {
		t.Fatalf("unexpected summary: %q", stdout)
	}
}

func TestFlagErrors(t *testing.T) {
	if code, _, _ := call(t, "", "sweep", "-nosuchflag"); code != 2 {
		t.Errorf("bad flag: exit = %d, want 2", code)
	}
	// serve has no -fabric switch: every job runs through the fabric
	// coordinator. The bad -addr makes a build that accepted the flag
	// fail fast instead of serving.
	if code, _, _ := call(t, "", "serve", "-fabric=false", "-addr", "127.0.0.1:-1"); code != 2 {
		t.Errorf("serve -fabric=false: exit = %d, want 2", code)
	}
	if code, _, stderr := call(t, "", "tune", "-h"); code != 0 || !strings.Contains(stderr, "-rounds") {
		t.Errorf("-h: exit = %d, stderr %q", code, stderr)
	}
}
