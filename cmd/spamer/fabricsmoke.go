package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"time"

	"spamer/internal/experiments"
	"spamer/internal/harness"
)

// smokeBatch is a golden batch of three specs labelled prefix1..3.
// Every phase uses a fresh prefix, so its specs have fresh canonical
// hashes and cannot be answered from the store: each shard must run,
// which is what drives one of them onto the dead worker.
func smokeBatch(prefix string) string {
	return fmt.Sprintf(`[{"benchmark":"ping-pong","algorithms":["vl"],"label":"%[1]s1"},
{"benchmark":"ping-pong","algorithms":["vl","0delay"],"label":"%[1]s2"},
{"benchmark":"incast","algorithms":["vl"],"label":"%[1]s3"}]`, prefix)
}

// fabricSmokeCmd is the end-to-end exercise of the distributed
// simulation fabric with real processes: it re-executes this binary as
// `spamer serve`, submits a golden spec batch over the service API
// before any worker exists, and byte-compares the outcomes — which the
// coordinator's local fallback must have produced — against an
// in-process run. It then starts two `spamer worker` processes on
// loopback and repeats with a fresh batch, which must be placed on
// them. Last it SIGKILLs one worker and submits a third batch: the
// coordinator must observe the broken lease, re-dispatch to the
// survivor, and still return outcomes byte-identical to local — the
// retry path under genuine process death (docs/FABRIC.md). Any
// divergence, timeout, or missed retry exits 1.
func fabricSmokeCmd(c *cli) error {
	if err := c.parse(); err != nil {
		return err
	}
	if err := fabricSmoke(c); err != nil {
		return fmt.Errorf("FAIL: %w", err)
	}
	fmt.Fprintln(c.stdout, "fabric-smoke: OK")
	return nil
}

func fabricSmoke(c *cli) error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	self, err := os.Executable()
	if err != nil {
		return err
	}
	coordPort, err := freePort()
	if err != nil {
		return err
	}
	coordURL := fmt.Sprintf("http://127.0.0.1:%d", coordPort)
	// Expiry is deliberately long: after the SIGKILL below the dead
	// worker must still look present so placement picks it and the
	// retry path — not presence reaping — handles the death.
	serve := exec.CommandContext(ctx, self, "serve",
		"-addr", fmt.Sprintf("127.0.0.1:%d", coordPort),
		"-fabric-heartbeat", "200ms", "-fabric-expire", "1m",
		"-fabric-dispatch-timeout", "1m")
	serve.Stderr = c.stderr
	if err := serve.Start(); err != nil {
		return err
	}
	defer serve.Process.Kill()
	if err := waitFor(ctx, coordURL+"/healthz", ""); err != nil {
		return fmt.Errorf("coordinator never came up: %w", err)
	}

	// Phase 0: with no worker attached, every spec runs in the
	// coordinator's local fallback — the service's only local mode.
	if err := submitAndCompare(ctx, coordURL, smokeBatch("z")); err != nil {
		return fmt.Errorf("zero-worker batch: %w", err)
	}
	m, err := httpDo(ctx, "GET", coordURL+"/metrics", "")
	if err != nil {
		return err
	}
	for _, want := range []string{"spamer_fabric_local_fallbacks_total 3\n", "spamer_fabric_placements_total 0\n"} {
		if !strings.Contains(string(m), want) {
			return fmt.Errorf("zero-worker batch: metrics missing %q:\n%s", strings.TrimSpace(want), m)
		}
	}
	fmt.Fprintln(c.stdout, "fabric-smoke: zero-worker batch ran in the local fallback, byte-identical to local run")

	workers := make(map[string]*exec.Cmd)
	for _, id := range []string{"w1", "w2"} {
		port, err := freePort()
		if err != nil {
			return err
		}
		w := exec.CommandContext(ctx, self, "worker",
			"-coordinator", coordURL,
			"-addr", fmt.Sprintf("127.0.0.1:%d", port),
			"-advertise", fmt.Sprintf("http://127.0.0.1:%d", port),
			"-id", id, "-slots", "1", "-parallel", "1")
		w.Stderr = c.stderr
		if err := w.Start(); err != nil {
			return err
		}
		defer w.Process.Kill()
		workers[id] = w
	}
	if err := waitFor(ctx, coordURL+"/metrics", "spamer_fabric_workers_present 2"); err != nil {
		return fmt.Errorf("workers never registered: %w", err)
	}
	fmt.Fprintln(c.stdout, "fabric-smoke: coordinator + 2 workers up")

	// Phase 1: golden batch through the full wire path must equal the
	// in-process run byte for byte.
	if err := submitAndCompare(ctx, coordURL, smokeBatch("s")); err != nil {
		return fmt.Errorf("golden batch: %w", err)
	}
	fmt.Fprintln(c.stdout, "fabric-smoke: golden batch byte-identical to local run")

	// Phase 2: SIGKILL w1 — no drain, no deregistration, exactly a died
	// process — then submit fresh work. Placement still sees w1 live
	// (long expiry, recent heartbeat), leases a shard to it, hits the
	// dead socket, and must recover via re-dispatch to w2.
	if err := workers["w1"].Process.Kill(); err != nil {
		return err
	}
	workers["w1"].Wait()
	fmt.Fprintln(c.stdout, "fabric-smoke: killed w1 (SIGKILL)")
	if err := submitAndCompare(ctx, coordURL, smokeBatch("k")); err != nil {
		return fmt.Errorf("post-kill batch: %w", err)
	}
	// Dispatch is synchronous, so by job completion the broken lease has
	// already been observed and re-dispatched — the counter must show it.
	m, err = httpDo(ctx, "GET", coordURL+"/metrics", "")
	if err != nil {
		return err
	}
	if strings.Contains(string(m), "spamer_fabric_retries_total 0\n") {
		return fmt.Errorf("post-kill batch completed without any retry; the dead worker was never leased:\n%s", m)
	}
	fmt.Fprintln(c.stdout, "fabric-smoke: post-kill batch re-leased onto survivor, outcomes byte-identical")
	return nil
}

// submitAndCompare POSTs the batch to the service, waits for the job,
// and byte-compares its outcomes against experiments.RunSpecsParallel
// in this process.
func submitAndCompare(ctx context.Context, base, batch string) error {
	specs, err := experiments.ReadSpecs(strings.NewReader(batch))
	if err != nil {
		return err
	}
	var want []experiments.Outcome
	for _, r := range experiments.RunSpecsParallel(ctx, specs, harness.Options{Workers: 1}) {
		if r.Err != nil {
			return fmt.Errorf("local run failed: %w", r.Err)
		}
		want = append(want, r.Outcomes...)
	}

	body, err := httpDo(ctx, "POST", base+"/v1/jobs", batch)
	var st struct {
		ID       string                `json:"id"`
		State    string                `json:"state"`
		Outcomes []experiments.Outcome `json:"outcomes"`
		Errors   []string              `json:"errors"`
	}
	for deadline := time.Now().Add(2 * time.Minute); ; {
		if err != nil {
			return err
		}
		if err := json.Unmarshal(body, &st); err != nil {
			return err
		}
		switch {
		case st.State == "failed":
			return fmt.Errorf("job failed: %v", st.Errors)
		case st.State == "done":
			wj, _ := json.Marshal(want)
			gj, _ := json.Marshal(st.Outcomes)
			if string(wj) != string(gj) {
				return fmt.Errorf("outcomes not byte-identical:\nlocal:  %s\nfabric: %s", wj, gj)
			}
			return nil
		case time.Now().After(deadline):
			return fmt.Errorf("job %s stuck in %q", st.ID, st.State)
		}
		time.Sleep(100 * time.Millisecond)
		body, err = httpDo(ctx, "GET", base+"/v1/jobs/"+st.ID, "")
	}
}

// httpDo sends one request and returns the response body; any status
// but 200 or 202 is an error.
func httpDo(ctx context.Context, method, url, body string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		err = fmt.Errorf("%s %s: HTTP %d", method, url, resp.StatusCode)
	}
	return b, err
}

// waitFor polls url until it answers with a body containing needle.
func waitFor(ctx context.Context, url, needle string) error {
	for {
		b, err := httpDo(ctx, "GET", url, "")
		if err == nil && strings.Contains(string(b), needle) {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("waiting for %q: %w\nlast response:\n%s", needle, ctx.Err(), b)
		case <-time.After(50 * time.Millisecond):
		}
	}
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}
