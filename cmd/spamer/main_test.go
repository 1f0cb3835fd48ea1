package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spamer/internal/experiments"
	"spamer/internal/harness"
)

// call drives the dispatcher in-process and returns its exit status and
// output streams.
func call(t *testing.T, stdin string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	return callContext(t, context.Background(), stdin, args...)
}

// callContext is call under ctx.
func callContext(t *testing.T, ctx context.Context, stdin string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = dispatch(ctx, args, strings.NewReader(stdin), &out, &errOut)
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

// TestCancelledBatchStartsNoRun: every subcommand with a pool (run,
// bench, sweep, ablate, area, latency and tune) runs it under the
// invocation's context, which SIGINT and SIGTERM cancel. Once it is
// cancelled no run starts: run names each spec's cancelled run on
// stderr, writes the outcomes that completed (none here, an empty
// array) and exits 1, and the others fail with the cancellation before
// printing anything.
func TestCancelledBatchStartsNoRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	const batch = `[{"benchmark":"ping-pong","algorithms":["vl","0delay"]},
{"benchmark":"incast","algorithms":["vl"]}]`
	code, stdout, stderr := callContext(t, ctx, batch, "run")
	if code != 1 || stdout != "[]\n" {
		t.Fatalf("run: exit %d, stdout %q, want 1 and an empty array", code, stdout)
	}
	for _, want := range []string{
		"spec 0: harness: run 0 (ping-pong/vl): context canceled\n",
		"spec 1: harness: run 2 (incast/vl): context canceled\n",
	} {
		if !strings.Contains(stderr, want) {
			t.Errorf("run stderr lacks %q:\n%s", want, stderr)
		}
	}
	for _, args := range [][]string{
		{"bench", "-what", "fig8"},
		{"sweep", "-bench", "FIR"},
		{"tune", "-bench", "firewall"},
		{"ablate"},
		{"area"},
		{"latency"},
	} {
		code, stdout, stderr := callContext(t, ctx, "", args...)
		if code != 1 || stdout != "" || !strings.Contains(stderr, "context canceled") {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 1 on the cancellation and no stdout", args, code, stdout, stderr)
		}
	}
}

// cancelOnMarker is an output stream that cancels a context on the
// first write containing marker (on the first write at all when marker
// is empty), as a SIGINT arriving just then would.
type cancelOnMarker struct {
	bytes.Buffer
	marker string
	cancel context.CancelFunc
}

func (w *cancelOnMarker) Write(p []byte) (int, error) {
	if bytes.Contains(p, []byte(w.marker)) {
		w.cancel()
	}
	return w.Buffer.Write(p)
}

// TestInterruptedSweepLeavesNoPartialArtifact: a study interrupted once
// it has begun writing either finishes the whole artifact or fails with
// nothing on stdout, never with the sections done so far (a sweep's
// first scatters, bench's tables and figures before the inlining
// study).
func TestInterruptedSweepLeavesNoPartialArtifact(t *testing.T) {
	for _, args := range [][]string{
		{"sweep", "-bench", "ping-pong,halo", "-parallel", "1"},
		{"bench", "-parallel", "1"},
	} {
		t.Run(args[0], func(t *testing.T) {
			code, want, stderr := call(t, "", args...)
			if code != 0 {
				t.Fatalf("uninterrupted %s: exit %d, stderr:\n%s", args[0], code, stderr)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			out := &cancelOnMarker{cancel: cancel}
			var errOut bytes.Buffer
			code = dispatch(ctx, args, strings.NewReader(""), out, &errOut)
			if got := out.String(); !(code == 0 && got == want || code == 1 && got == "") {
				t.Fatalf("interrupted %s: exit %d with %d of the artifact's %d bytes on stdout; want exit 0 with all of it, or exit 1 with none\nstderr:\n%s",
					args[0], code, len(got), len(want), errOut.String())
			}
		})
	}
}

// TestInterruptedRunWritesNoSVG: an -svg run writes its figures only
// with its artifact. Interrupted once its first study is done (bench at
// the inlining study's first progress line, sweep at the second
// benchmark's), it exits 1 with nothing on stdout and no SVG in the
// directory; uninterrupted, it writes every figure, byte for byte the
// pinned one.
func TestInterruptedRunWritesNoSVG(t *testing.T) {
	for _, tc := range []struct {
		args []string
		at   string            // the stderr text that interrupts the run
		svgs map[string]string // the figures an uninterrupted run writes, by SHA-256
	}{
		{[]string{"bench", "-parallel", "1"}, "inline:", map[string]string{
			"fig8-speedup.svg":   "abe56a3c5b37442700430ffa3f009338e2685dcd70a6f30090981905cb79591f",
			"fig10a-failure.svg": "73de7135ede9e8343b8c35d527b0a8fc46c7ab8eb052da61b839bce8f92a2f5f",
			"fig10b-bus.svg":     "08503646d5cb902eebf1e06bcb8dcd890020f6aaffb1769b2e994da1d5170bf9",
		}},
		{[]string{"sweep", "-bench", "ping-pong,halo", "-parallel", "1"}, "fig11 halo:", map[string]string{
			"fig11-ping-pong.svg": "134d0689c3fd02e4346e2567cee3fea40d48bfa0d344e85567de9da18067dab6",
			"fig11-halo.svg":      "521fbc57ba1241001faa17b014d6d067201de3daa1851742214bfda32b2036f3",
		}},
	} {
		t.Run(tc.args[0], func(t *testing.T) {
			figures := func(dir string) []string {
				paths, err := filepath.Glob(filepath.Join(dir, "*.svg"))
				if err != nil {
					t.Fatal(err)
				}
				for i, p := range paths {
					paths[i] = filepath.Base(p)
				}
				return paths
			}
			dir := t.TempDir()
			if code, _, stderr := call(t, "", append(tc.args, "-svg", dir)...); code != 0 || len(figures(dir)) != len(tc.svgs) {
				t.Fatalf("uninterrupted: exit %d, SVGs %v; want 0 and %d figures\nstderr:\n%s", code, figures(dir), len(tc.svgs), stderr)
			}
			for name, want := range tc.svgs {
				data, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want {
					t.Errorf("%s: SHA-256 %s, want %s", name, got, want)
				}
			}
			dir = t.TempDir()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			errOut := &cancelOnMarker{marker: tc.at, cancel: cancel}
			var out bytes.Buffer
			code := dispatch(ctx, append(tc.args, "-svg", dir), strings.NewReader(""), &out, errOut)
			if code != 1 || out.Len() != 0 || len(figures(dir)) != 0 {
				t.Fatalf("interrupted at %q: exit %d, %d bytes on stdout, SVGs %v; want exit 1, no stdout and no SVG\nstderr:\n%s",
					tc.at, code, out.Len(), figures(dir), errOut.String())
			}
		})
	}
}

// TestUnwritableSVGDirFailsBeforeRunning: an -svg directory that cannot
// be made fails bench and sweep before their first run: exit 1, nothing
// on stdout, the mkdir error on stderr and no pool progress there.
func TestUnwritableSVGDirFailsBeforeRunning(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(file, "svg")
	for _, args := range [][]string{
		{"bench", "-parallel", "1"},
		{"sweep", "-bench", "ping-pong", "-parallel", "1"},
	} {
		t.Run(args[0], func(t *testing.T) {
			code, stdout, stderr := call(t, "", append(args, "-svg", dir)...)
			if code != 1 || stdout != "" || !strings.Contains(stderr, "not a directory") {
				t.Fatalf("exit %d, %d bytes on stdout; want exit 1, no stdout and \"not a directory\"\nstderr:\n%s", code, len(stdout), stderr)
			}
			if strings.Contains(stderr, " runs") {
				t.Fatalf("a run started before the mkdir failed:\n%s", stderr)
			}
		})
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

// TestReplayWrappedShapeCase: a campaign repro wraps its case under a
// "case" key, and a shape spec may leave out "benchmark". Such a wrapper
// replays exactly as the bare case file does, deadlock and all.
func TestReplayWrappedShapeCase(t *testing.T) {
	const cs = `{"spec":{"shape":{"stages":4,"messages":3,"lines":1},"algorithms":["vl"],"fault":{"drop_stash":5}}}`
	dir := t.TempDir()
	var reports []string
	for _, f := range []struct{ name, body string }{
		{"bare.json", cs},
		{"wrapped.json", `{"case":` + cs + `,"violations":[]}`},
	} {
		path := filepath.Join(dir, f.name)
		if err := os.WriteFile(path, []byte(f.body), 0o644); err != nil {
			t.Fatal(err)
		}
		code, stdout, stderr := call(t, "", "verify", "-repro", path)
		if code != 1 || !strings.Contains(stdout, "run-panic [alg=vl]: spamer: deadlock") {
			t.Fatalf("%s: exit %d, want 1 and the deadlock\nstdout:\n%s\nstderr:\n%s", f.name, code, stdout, stderr)
		}
		reports = append(reports, strings.ReplaceAll(stdout, path, "FILE"))
	}
	if reports[0] != reports[1] {
		t.Fatalf("wrapped replay differs from the bare one:\n%s\nvs\n%s", reports[1], reports[0])
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
