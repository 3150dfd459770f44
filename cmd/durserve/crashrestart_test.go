package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestCrashRestartProcess is the end-to-end crash drill on the real
// binary: start durserve with -data-dir, drive a subscription through
// live ticks, kill -9 the process, restart it on the same directory and
// assert the answers match an uninterrupted golden run tick for tick.
// CI runs it as its own job step.
func TestCrashRestartProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills real processes; skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "durserve")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building durserve: %v", err)
	}

	const totalTicks, crashAfter = 10, 5

	// Golden: one process, never interrupted.
	golden := func() []string {
		srv := startDurserve(t, bin, "")
		defer srv.stop()
		srv.subscribe(t)
		out := make([]string, 0, totalTicks)
		for i := 0; i < totalTicks; i++ {
			out = append(out, srv.tick(t))
		}
		return out
	}()

	// Crash run: same flags plus -data-dir, killed without warning.
	dir := t.TempDir()
	srv := startDurserve(t, bin, dir)
	srv.subscribe(t)
	for i := 0; i < crashAfter; i++ {
		if got := srv.tick(t); got != golden[i] {
			t.Fatalf("pre-crash tick %d:\n got %s\nwant %s", i+1, got, golden[i])
		}
	}
	srv.kill9(t)

	restarted := startDurserve(t, bin, dir)
	defer restarted.stop()
	for i := crashAfter; i < totalTicks; i++ {
		if got := restarted.tick(t); got != golden[i] {
			t.Fatalf("post-restart tick %d:\n got %s\nwant %s", i+1, got, golden[i])
		}
	}

	// The restarted instance's /metrics must attest to the recovery: one
	// recovery performed, and the pre-crash mutations replayed out of the
	// WAL (the subscription plus crashAfter journaled ticks guarantee a
	// nonzero count even though the boot checkpoint absorbs some records).
	metrics := restarted.metrics(t)
	if !strings.Contains(metrics, "durserve_recoveries_total 1\n") {
		t.Errorf("post-restart /metrics lacks durserve_recoveries_total 1")
	}
	replayed := -1
	for _, line := range strings.Split(metrics, "\n") {
		if v, ok := strings.CutPrefix(line, "durserve_wal_records_replayed_total "); ok {
			if n, err := strconv.Atoi(v); err == nil {
				replayed = n
			}
		}
	}
	if replayed <= 0 {
		t.Errorf("post-restart /metrics reports %d WAL records replayed, want > 0", replayed)
	}
}

// TestRecoveryBootsPastPlanBucket is the crash drill for a subscribe
// whose plan came from the cache. Subscription A (β 15) searches the plan
// of its threshold bucket — representative β 15.12 — from a walk at 12,
// and a clean shutdown checkpoints it. The feed then climbs past 15.12,
// and subscription B (β 15.5, same bucket) is answered from A's cached
// plan; the process is killed before any checkpoint covers B. A restart
// that re-ran B's plan resolution would search at 15.12 from a state
// already above it, fail with "initial state already satisfies the
// query", and never boot. Journaling the resolved plan lets it boot, and
// every answer afterwards must equal an uninterrupted run's.
func TestRecoveryBootsPastPlanBucket(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills real processes; skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "durserve")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building durserve: %v", err)
	}
	// A near-deterministic climb of 0.3 per tick from 12: the feed passes
	// the representative 15.12 at tick 11 (about 15.3) and stays below
	// B's threshold there.
	walk := []string{"-start", "12", "-drift", "0.3", "-sigma", "0.02"}
	const subA = `{"model":"walk","beta":15,"horizon":10,"re":0.2}`
	const subB = `{"model":"walk","beta":15.5,"horizon":10,"re":0.2}`
	const bAt, crashAt, total = 11, 13, 16

	// Golden: one process, never interrupted, the same requests.
	var golden []string
	func() {
		srv := startDurserve(t, bin, "", walk...)
		defer srv.stop()
		srv.post(t, "/subscribe", subA)
		for k := 1; k <= total; k++ {
			golden = append(golden, srv.post(t, "/tick", `{"stream":"walk"}`))
			if k == bAt {
				b := srv.post(t, "/subscribe", subB)
				if !strings.Contains(b, `"planCached":true`) || !strings.Contains(b, `"searchSteps":0`) {
					t.Fatalf("subscription B did not take A's cached plan, so the drill tests nothing: %s", b)
				}
			}
		}
	}()

	dir := t.TempDir()
	srv := startDurserve(t, bin, dir, walk...)
	srv.post(t, "/subscribe", subA)
	srv.term(t) // final checkpoint: A and its plan are in the snapshots

	srv = startDurserve(t, bin, dir, walk...)
	for k := 1; k <= crashAt; k++ {
		if got := srv.post(t, "/tick", `{"stream":"walk"}`); got != golden[k-1] {
			t.Fatalf("pre-crash tick %d:\n got %s\nwant %s", k, got, golden[k-1])
		}
		if k == bAt {
			srv.post(t, "/subscribe", subB)
		}
	}
	srv.kill9(t)

	restarted := startDurserve(t, bin, dir, walk...)
	defer restarted.stop()
	for k := crashAt + 1; k <= total; k++ {
		if got := restarted.post(t, "/tick", `{"stream":"walk"}`); got != golden[k-1] {
			t.Fatalf("post-restart tick %d:\n got %s\nwant %s", k, got, golden[k-1])
		}
	}
}

// durserveProc is one running durserve child process.
type durserveProc struct {
	cmd  *exec.Cmd
	base string
}

// startDurserve launches the binary on a fresh loopback port and waits
// for /readyz — the listener comes up before recovery, so liveness alone
// (/healthz) would let a test query race the WAL replay and bounce off
// the 503 readiness gate. dataDir == "" runs it in-memory.
func startDurserve(t *testing.T, bin, dataDir string, extra ...string) *durserveProc {
	t.Helper()
	addr := freeAddr(t)
	args := []string{"-addr", addr, "-pool", "2", "-seed", "1"}
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir)
	}
	args = append(args, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting durserve: %v", err)
	}
	p := &durserveProc{cmd: cmd, base: "http://" + addr}
	t.Cleanup(p.stop)
	sawLive := false
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		// Liveness first: /healthz must answer 200 even before readiness,
		// or a recovering instance would look dead to its orchestrator.
		if !sawLive {
			resp, err := http.Get(p.base + "/healthz")
			if err == nil {
				resp.Body.Close()
				sawLive = resp.StatusCode == http.StatusOK
			}
		}
		if sawLive {
			resp, err := http.Get(p.base + "/readyz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return p
				}
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("durserve on %s never became ready", addr)
	return nil
}

func (p *durserveProc) stop() {
	if p.cmd.Process != nil {
		p.cmd.Process.Kill()
		p.cmd.Wait()
	}
}

// kill9 delivers SIGKILL — no shutdown hook, no final checkpoint.
func (p *durserveProc) kill9(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	p.cmd.Wait()
}

// term delivers SIGTERM and waits for the graceful exit, which writes a
// final checkpoint.
func (p *durserveProc) term(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Wait(); err != nil {
		t.Fatalf("durserve exited uncleanly on SIGTERM: %v", err)
	}
}

// post sends one JSON request and returns the 200 response body.
func (p *durserveProc) post(t *testing.T, path, body string) string {
	t.Helper()
	resp, err := http.Post(p.base+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s %s: status %d: %s", path, body, resp.StatusCode, blob)
	}
	return string(blob)
}

func (p *durserveProc) subscribe(t *testing.T) {
	t.Helper()
	resp, err := http.Post(p.base+"/subscribe", "application/json",
		strings.NewReader(`{"model":"walk","beta":15,"horizon":100,"re":0.2}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe status %d", resp.StatusCode)
	}
}

// tick advances the walk stream once and returns the canonical JSON of
// the lone refreshed answer.
func (p *durserveProc) tick(t *testing.T) string {
	t.Helper()
	resp, err := http.Post(p.base+"/tick", "application/json",
		strings.NewReader(`{"stream":"walk","steps":1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tk tickResponse
	if err := json.NewDecoder(resp.Body).Decode(&tk); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(tk.Refreshes) != 1 || tk.Refreshes[0].Error != "" {
		t.Fatalf("tick status %d, response %+v", resp.StatusCode, tk)
	}
	blob, err := json.Marshal(tk.Refreshes[0].Answer)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// metrics scrapes the process's GET /metrics exposition.
func (p *durserveProc) metrics(t *testing.T) string {
	t.Helper()
	resp, err := http.Get(p.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// freeAddr reserves a loopback port and releases it for the child.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return fmt.Sprintf("127.0.0.1:%d", ln.Addr().(*net.TCPAddr).Port)
}
