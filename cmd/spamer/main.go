// Command spamer is the single entry point of the SPAMeR reproduction:
// it regenerates the paper's tables and figures, runs JSON experiment
// specs, checks the simulator with the differential oracle, and serves
// simulations over HTTP, each as one subcommand.
//
// Usage:
//
//	spamer <subcommand> [flags]
//
//	spamer bench [-what all|config|workloads|fig8|fig9|fig10|inline] [-scale N] [-svg DIR] [-parallel N]
//	spamer trace [-alg vl|0delay|adapt|tuned] [-csv] [-from N] [-to N] [-phases BENCH] [-period N]
//	spamer sweep [-bench FIR,firewall,...] [-scale N] [-svg DIR] [-parallel N]
//	spamer latency
//	spamer area [-entries N] [-scale N]
//	spamer ablate [-what predictors|srd|hop|channels|devices|obfuscation|all] [-scale N] [-parallel N]
//	spamer tune [-bench FIR,halo,...] [-rounds N] [-scale N] [-parallel N]
//	spamer run [-spec experiment.json] [-parallel N]
//	spamer verify [-n N] [-seed S] [-out DIR] [-workers N] [-repro FILE]
//	spamer benchjson [-out FILE] [-baseline OLD.json] [-gate] [-gate-pct P]
//	spamer serve [-addr :8080] [-queue 64] [-jobs 1] [-parallel N] [-cache 256] [-fabric-store 4096] ...
//	spamer worker -coordinator URL [-addr :9090] [-slots 1] [-parallel N] ...
//	spamer fabric-smoke
//
// Experiment subcommands fan independent simulations across a bounded
// worker pool (-parallel, 0 = GOMAXPROCS) with output identical to a
// sequential run. Results go to stdout; progress and diagnostics go to
// stderr, so `2>/dev/null` isolates the artifact. An invalid invocation
// exits 2, a failed run exits 1.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
)

// subcommand is one verb of the spamer binary.
type subcommand struct {
	name, summary string
	run           func(*cli) error
}

// subcommands lists every verb in the order the usage text shows them.
var subcommands = []subcommand{
	{"bench", "Tables 1-2, Figures 8-10 and the §4.3 inlining study", benchCmd},
	{"trace", "Figure 7 transaction trace, or a benchmark's throughput phases", traceCmd},
	{"sweep", "Figure 11 tuned-parameter sensitivity (delay vs energy)", sweepCmd},
	{"latency", "Figure 1 latency ordering and the software-queue study", latencyCmd},
	{"area", "§4.5 area and power estimation", areaCmd},
	{"ablate", "ablation and sensitivity studies beyond the paper", ablateCmd},
	{"tune", "per-benchmark tuned-parameter search", tuneCmd},
	{"run", "execute JSON experiment specs and emit JSON outcomes", runCmd},
	{"verify", "randomized differential-oracle campaign, or replay one repro", verifyCmd},
	{"benchjson", "convert `go test -bench` output to JSON, optionally gated", benchjsonCmd},
	{"serve", "simulation-as-a-service daemon and fabric coordinator", serveCmd},
	{"worker", "fabric worker agent", workerCmd},
	{"fabric-smoke", "end-to-end fabric check with real processes", fabricSmokeCmd},
}

func main() {
	os.Exit(dispatch(context.Background(), os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// dispatch runs the subcommand named by args[0] under ctx and returns
// the process exit status.
func dispatch(ctx context.Context, args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	switch args[0] {
	case "help", "-h", "-help", "--help":
		usage(stdout)
		return 0
	}
	for _, sc := range subcommands {
		if sc.name == args[0] {
			c := &cli{name: "spamer " + sc.name, ctx: ctx, stdin: stdin, stdout: stdout, stderr: stderr, args: args[1:]}
			c.flags = flag.NewFlagSet(c.name, flag.ContinueOnError)
			c.flags.SetOutput(stderr)
			return c.exitCode(sc.run(c))
		}
	}
	fmt.Fprintf(stderr, "spamer: unknown subcommand %q\n\n", args[0])
	usage(stderr)
	return 2
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: spamer <subcommand> [flags]")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "subcommands:")
	for _, sc := range subcommands {
		fmt.Fprintf(w, "  %-13s %s\n", sc.name, sc.summary)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Run 'spamer <subcommand> -h' for its flags.")
}
