package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// env is where one benchmark process runs: the durserve binary it drives,
// a work directory for data directories and daemon logs, and the
// client's concurrency (nproc).
type env struct {
	durserve string
	work     string
	conns    int
}

// daemon is one durserve process.
type daemon struct {
	name   string
	addr   string
	args   []string
	cmd    *exec.Cmd
	log    *os.File
	exited chan struct{}
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// spawn starts durserve with args on addr (a free port when empty),
// appending its log to <work>/<name>.log.
func (e env) spawn(name, addr string, args []string) (*daemon, error) {
	if addr == "" {
		var err error
		if addr, err = freeAddr(); err != nil {
			return nil, err
		}
	}
	logf, err := os.OpenFile(filepath.Join(e.work, name+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(e.durserve, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// A benchmark killed outright takes its daemons with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", e.durserve, err)
	}
	d := &daemon{name: name, addr: addr, args: args, cmd: cmd, log: logf, exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(d.exited)
	}()
	return d, nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// kill SIGKILLs the daemon and waits until it has exited.
func (d *daemon) kill() {
	if d == nil {
		return
	}
	d.cmd.Process.Kill()
	<-d.exited
	d.log.Close()
}

// waitStatus polls path until it answers 200, the daemon dies, or the
// deadline passes.
func waitStatus(ctx context.Context, d *daemon, path string) error {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	client := &http.Client{Timeout: time.Second}
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+d.addr+path, nil)
		if err != nil {
			return err
		}
		if resp, err := client.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.exited:
			return fmt.Errorf("%s exited before %s answered 200 (see %s)", d.name, path, d.log.Name())
		case <-ctx.Done():
			return fmt.Errorf("%s: %s never answered 200: %w", d.name, path, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// httpOut is what the untraced run measured.
type httpOut struct {
	setup      []float64 // seconds per set-up
	drive      driveOut
	cpu        time.Duration   // the daemons' CPU time over the window (primary plus follower)
	yardsticks []time.Duration // before the set-ups and through the window
	hwm        int64           // primary's peak RSS, bytes
	recovery   []float64       // seconds per crash cycle, from SIGKILL to the first answer after restart
	stageSum   float64         // the server's own seconds for the op's stage over the window
	stageSpan  float64         // and how many spans they cover
}

// cluster is a workload's running daemons.
type cluster struct {
	primary, follower *daemon
}

func (c *cluster) stop() {
	c.follower.kill()
	c.primary.kill()
	c.primary, c.follower = nil, nil
}

func (c *cluster) pids() []int {
	pids := []int{c.primary.pid()}
	if c.follower != nil {
		pids = append(pids, c.follower.pid())
	}
	return pids
}

// start brings the workload's daemons up on fresh data directories and
// reports when the primary is ready.
func (e env) start(ctx context.Context, w workload) (*cluster, error) {
	primaryDir, mirrorDir := filepath.Join(e.work, "primary"), filepath.Join(e.work, "mirror")
	for _, d := range []string{primaryDir, mirrorDir} {
		if err := os.RemoveAll(d); err != nil {
			return nil, err
		}
	}
	args := w.Server.args()
	if w.Server.Durable {
		args = append(args, "-data-dir", primaryDir)
	}
	c := &cluster{}
	var err error
	if c.primary, err = e.spawn("primary", "", args); err != nil {
		return nil, err
	}
	if err := waitStatus(ctx, c.primary, "/readyz"); err != nil {
		c.stop()
		return nil, err
	}
	if w.Server.Durable {
		fargs := append(w.Server.args(), "-data-dir", mirrorDir, "-follow", "http://"+c.primary.addr,
			"-lease-ttl", "0", "-follow-poll", w.Server.FollowPoll.String())
		if c.follower, err = e.spawn("follower", "", fargs); err != nil {
			c.stop()
			return nil, err
		}
		if err := waitStatus(ctx, c.follower, "/healthz"); err != nil {
			c.stop()
			return nil, err
		}
	}
	return c, nil
}

// runHTTP is the untraced run: durserve over loopback, set up `setups`
// times (the last set-up serves the window), driven through the window
// for at most limit, then, with crashes, killed and restarted three times.
func runHTTP(ctx context.Context, e env, w workload, s schedule, setups int, limit time.Duration, crashes bool) (httpOut, error) {
	var out httpOut
	var c *cluster
	defer func() {
		if c != nil {
			c.stop()
		}
	}()
	var t *httpTarget
	for i := 0; i < setups; i++ {
		if c != nil {
			c.stop()
		}
		for k := 0; k < yardsticksPerSetup; k++ {
			out.yardsticks = append(out.yardsticks, timeYardstick())
		}
		began := time.Now()
		var err error
		if c, err = e.start(ctx, w); err != nil {
			return out, err
		}
		t = newHTTPTarget(c.primary.addr, e.conns)
		if c.follower != nil {
			t.follower = "http://" + c.follower.addr
		}
		if err := warm(ctx, t, s, e.conns); err != nil {
			return out, err
		}
		out.setup = append(out.setup, time.Since(began).Seconds())
	}

	sum0, n0, err := t.stageSeconds(ctx, w)
	if err != nil {
		return out, err
	}
	cpu0, err := cpuOf(c.pids())
	if err != nil {
		return out, err
	}
	out.drive = drive(ctx, t, w, s, limit, true)
	cpu1, err := cpuOf(c.pids())
	if err != nil {
		return out, err
	}
	out.cpu = cpu1 - cpu0
	out.yardsticks = append(out.yardsticks, out.drive.yardsticks...)
	sum1, n1, err := t.stageSeconds(ctx, w)
	if err != nil {
		return out, err
	}
	out.stageSum, out.stageSpan = sum1-sum0, n1-n0
	if out.hwm, err = procHWM(c.primary.pid()); err != nil {
		return out, err
	}
	t.client.CloseIdleConnections()
	if !crashes {
		return out, nil
	}

	// Crash cycles. A durable primary is first restarted once unmeasured,
	// so every measured cycle replays the same tail: the ticks since the
	// checkpoint its own boot wrote.
	restart := func() (time.Duration, error) {
		began := time.Now()
		c.primary.kill()
		var err error
		if c.primary, err = e.spawn("primary", c.primary.addr, c.primary.args); err != nil {
			return 0, err
		}
		if err := waitStatus(ctx, c.primary, "/readyz"); err != nil {
			return 0, err
		}
		t = newHTTPTarget(c.primary.addr, e.conns)
		if r := send(ctx, t, -1, watched, s.Probe); r.err != nil {
			return 0, fmt.Errorf("first request after restart: %w", r.err)
		}
		return time.Since(began), nil
	}
	if w.Server.Durable {
		if _, err := restart(); err != nil {
			return out, err
		}
	}
	for cycle := 0; cycle < 3; cycle++ {
		if w.Server.Durable {
			for k := 0; k < 3; k++ {
				if r := t.tick(ctx, -1); r.err != nil {
					return out, r.err
				}
			}
		}
		d, err := restart()
		if err != nil {
			return out, err
		}
		out.recovery = append(out.recovery, d.Seconds())
	}
	return out, nil
}

func cpuOf(pids []int) (time.Duration, error) {
	var total time.Duration
	for _, pid := range pids {
		c, err := procCPU(pid)
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

// stageSeconds scrapes the server's own timing of the workload's
// operation — the query or batch stage, or the engine's tick — from
// GET /metrics: total seconds and the number of spans.
func (h *httpTarget) stageSeconds(ctx context.Context, w workload) (sum, count float64, err error) {
	series := map[kind]string{
		kindQuery: `durserve_stage_duration_seconds_%s{stage="query"}`,
		kindBatch: `durserve_stage_duration_seconds_%s{stage="batch"}`,
		kindTicks: `durserve_tick_duration_seconds_%s`,
	}[w.Kind]
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.base+"/metrics", nil)
	if err != nil {
		return 0, 0, err
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	want := map[string]*float64{fmt.Sprintf(series, "sum"): &sum, fmt.Sprintf(series, "count"): &count}
	found := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, value, ok := strings.Cut(sc.Text(), " ")
		if p := want[name]; ok && p != nil {
			if *p, err = strconv.ParseFloat(value, 64); err != nil {
				return 0, 0, fmt.Errorf("metric %s: %w", name, err)
			}
			found++
		}
	}
	if err := sc.Err(); err != nil {
		return 0, 0, err
	}
	if found != len(want) {
		return 0, 0, errors.New("GET /metrics lacks the " + fmt.Sprintf(series, "sum") + " series")
	}
	return sum, count, nil
}
