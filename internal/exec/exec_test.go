package exec

import (
	"context"
	"math"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"durability/internal/cluster"
	"durability/internal/core"
	"durability/internal/mc"
	"durability/internal/stochastic"
	"durability/internal/telemetry"
)

func chainRegistry() cluster.Registry {
	return cluster.Registry{
		"chain": func() (stochastic.Process, map[string]stochastic.Observer, error) {
			return stochastic.BirthDeathChain(10, 0.45, 0), map[string]stochastic.Observer{"value": stochastic.ChainIndex}, nil
		},
	}
}

func chainTask() Task {
	return Task{
		Proc:       stochastic.BirthDeathChain(10, 0.45, 0),
		Obs:        stochastic.ChainIndex,
		Model:      "chain",
		Beta:       7,
		Horizon:    50,
		Boundaries: []float64{3.0 / 7, 5.0 / 7},
		Ratio:      3,
		Seed:       7,
	}
}

// startWorkers spins n in-process rpc workers on loopback listeners.
func startWorkers(t *testing.T, reg cluster.Registry, n int) []string {
	t.Helper()
	addrs, stop, err := cluster.ServeLocal(reg, n, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	return addrs
}

// slammingListener returns the address of a "worker" that accepts
// connections and slams them shut: the dial succeeds, so the executor
// counts it as a member, but every call fails — a machine dropping right
// after the query starts.
func slammingListener(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conn.Close()
		}
	}()
	return ln.Addr().String()
}

// The seam's contract: the cluster backend is bit-for-bit the local
// backend at the same seed — same estimate, same variance, same cost —
// no matter how many workers the range was sharded across.
func TestClusterBackendMatchesLocalBitForBit(t *testing.T) {
	addrs := startWorkers(t, chainRegistry(), 3)
	task := chainTask()
	opt := SampleOptions{Stop: mc.Budget{Steps: 400_000}}

	local, err := Sample(context.Background(), Local{}, task, opt)
	if err != nil {
		t.Fatal(err)
	}
	backend := NewCluster(addrs...)
	defer backend.Close()
	clus, err := Sample(context.Background(), backend, task, opt)
	if err != nil {
		t.Fatal(err)
	}
	if clus.P != local.P || clus.Variance != local.Variance {
		t.Fatalf("cluster (P=%v, Var=%v) differs from local (P=%v, Var=%v)",
			clus.P, clus.Variance, local.P, local.Variance)
	}
	if clus.Steps != local.Steps || clus.Paths != local.Paths || clus.Hits != local.Hits {
		t.Fatalf("cluster cost (%d steps, %d paths, %d hits) differs from local (%d, %d, %d)",
			clus.Steps, clus.Paths, clus.Hits, local.Steps, local.Paths, local.Hits)
	}
	if local.P <= 0 {
		t.Fatalf("degenerate estimate %v", local.P)
	}
}

// Worker count must not leak into the numerics: 1, 2 and 3 workers all
// produce the same result.
func TestClusterBackendInvariantToWorkerCount(t *testing.T) {
	reg := chainRegistry()
	task := chainTask()
	opt := SampleOptions{Stop: mc.Budget{Steps: 200_000}}
	var first mc.Result
	for i, n := range []int{1, 2, 3} {
		backend := NewCluster(startWorkers(t, reg, n)...)
		res, err := Sample(context.Background(), backend, task, opt)
		backend.Close()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = res
			continue
		}
		if res.P != first.P || res.Paths != first.Paths || res.Steps != first.Steps {
			t.Fatalf("%d workers: (P=%v, paths=%d, steps=%d) differs from 1 worker (P=%v, paths=%d, steps=%d)",
				n, res.P, res.Paths, res.Steps, first.P, first.Paths, first.Steps)
		}
	}
}

// The quality-targeted path must land near the chain's exact hitting
// probability.
func TestClusterBackendMatchesExactAnswer(t *testing.T) {
	const beta, horizon = 7.0, 50
	chain := stochastic.BirthDeathChain(10, 0.45, 0)
	target := map[int]bool{}
	for i := int(beta); i < 10; i++ {
		target[i] = true
	}
	exact := chain.HitProbability(target, horizon)

	backend := NewCluster(startWorkers(t, chainRegistry(), 3)...)
	defer backend.Close()
	res, err := Sample(context.Background(), backend, chainTask(), SampleOptions{
		Stop: mc.Any{mc.RETarget{Target: 0.1}, mc.Budget{Steps: 20_000_000}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.P-exact) > 0.25*exact {
		t.Fatalf("cluster estimate %v, exact %v", res.P, exact)
	}
	if res.Steps == 0 || res.Paths == 0 || res.Hits == 0 {
		t.Fatalf("accounting missing: %+v", res)
	}
}

// A worker dropping mid-run must not fail (or hang) the query: the
// executor marks it dead and retries its chunk on a live worker — and
// because root ranges travel with the chunk, the answer is unchanged.
func TestClusterBackendDeadWorkerRetries(t *testing.T) {
	healthy := startWorkers(t, chainRegistry(), 1)
	task := chainTask()
	opt := SampleOptions{Stop: mc.Budget{Steps: 400_000}}

	local, err := Sample(context.Background(), Local{}, task, opt)
	if err != nil {
		t.Fatal(err)
	}
	backend := NewCluster(healthy[0], slammingListener(t))
	defer backend.Close()
	done := make(chan error, 1)
	var clus mc.Result
	go func() {
		var err error
		clus, err = Sample(context.Background(), backend, task, opt)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("executor failed instead of retrying on the live worker: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("executor hung after worker drop")
	}
	if clus.P != local.P || clus.Steps != local.Steps || clus.Paths != local.Paths {
		t.Fatalf("result after retry (P=%v, steps=%d) differs from local (P=%v, steps=%d)",
			clus.P, clus.Steps, local.P, local.Steps)
	}
}

// Losing every worker is an error, not a hang.
func TestClusterBackendAllWorkersDead(t *testing.T) {
	backend := NewCluster(slammingListener(t))
	defer backend.Close()
	done := make(chan error, 1)
	go func() {
		_, err := Sample(context.Background(), backend, chainTask(), SampleOptions{Stop: mc.Budget{Steps: 1000}})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("executor succeeded with no live workers")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("executor hung with no live workers")
	}
}

// An unreachable address fails the dial, which is retried like a dead
// worker; with a healthy peer present the query still completes. The
// attached worker metrics must attribute the simulated work to the
// worker that performed it: the unreachable address books its failed
// calls but zero roots and steps, never the chunk ranges it was
// assigned and could not run.
func TestClusterBackendUndialableWorker(t *testing.T) {
	healthy := startWorkers(t, chainRegistry(), 1)
	backend := NewCluster("127.0.0.1:1", healthy[0])
	backend.Metrics = telemetry.NewWorkerMetrics(nil)
	defer backend.Close()
	res, err := Sample(context.Background(), backend, chainTask(), SampleOptions{Stop: mc.Budget{Steps: 100_000}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Paths == 0 {
		t.Fatalf("no work accounted: %+v", res)
	}
	dead := backend.Metrics.Worker("127.0.0.1:1")
	live := backend.Metrics.Worker(healthy[0])
	if dead.Calls() == 0 || dead.Errors() != dead.Calls() {
		t.Errorf("unreachable worker calls=%d errors=%d, want every call an error", dead.Calls(), dead.Errors())
	}
	if dead.Roots() != 0 || dead.Steps() != 0 {
		t.Errorf("unreachable worker booked roots=%d steps=%d, want 0/0 (it performed no work)", dead.Roots(), dead.Steps())
	}
	if live.Roots() == 0 || live.Steps() == 0 || live.Errors() != 0 {
		t.Errorf("healthy worker roots=%d steps=%d errors=%d, want all the work and no errors", live.Roots(), live.Steps(), live.Errors())
	}
}

func TestSampleValidation(t *testing.T) {
	ctx := context.Background()
	task := chainTask()
	if _, err := Sample(ctx, Local{}, task, SampleOptions{}); err == nil {
		t.Error("missing stop rule accepted")
	}
	noProc := task
	noProc.Proc = nil
	if _, err := Sample(ctx, Local{}, noProc, SampleOptions{Stop: mc.Budget{Steps: 1}}); err == nil {
		t.Error("missing process accepted")
	}
	badPlan := task
	badPlan.Boundaries = []float64{2.5}
	if _, err := Sample(ctx, Local{}, badPlan, SampleOptions{Stop: mc.Budget{Steps: 1}}); err == nil {
		t.Error("invalid boundaries accepted")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := Sample(cancelled, Local{}, task, SampleOptions{Stop: mc.Budget{Steps: 1 << 50}}); err == nil {
		t.Error("cancelled context not surfaced")
	}
}

// The cluster backend refuses tasks it cannot place: no registry model
// name, or no live workers at all.
func TestClusterBackendValidation(t *testing.T) {
	backend := NewCluster()
	defer backend.Close()
	task := chainTask()
	if _, err := backend.RunRoots(context.Background(), task, 0, 64, 16); err == nil {
		t.Error("empty worker set accepted")
	}
	noModel := task
	noModel.Model = ""
	two := NewCluster("127.0.0.1:1")
	defer two.Close()
	if _, err := two.RunRoots(context.Background(), noModel, 0, 64, 16); err == nil {
		t.Error("missing model name accepted")
	}
}

// A worker that hangs (accepts calls, never replies) must not pin the
// query forever: the context bounds every in-flight rpc, and
// cancellation cuts the worker's connection.
func TestClusterBackendHungWorkerCancellable(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			// Swallow the request and never answer.
			go func() {
				buf := make([]byte, 4096)
				for {
					if _, err := conn.Read(buf); err != nil {
						return
					}
				}
			}()
		}
	}()

	backend := NewCluster(ln.Addr().String())
	defer backend.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	began := time.Now()
	_, err = backend.RunRoots(ctx, chainTask(), 0, 64, 16)
	if err == nil {
		t.Fatal("hung worker produced a result")
	}
	if waited := time.Since(began); waited > 10*time.Second {
		t.Fatalf("cancellation took %v; the hung call was not cut off", waited)
	}
}

// A failed worker must re-enter the rotation after its cool-down — the
// executor lives as long as the daemon, so one blip cannot retire a
// machine forever — and the revived roster must not move the answer.
func TestClusterBackendDeadWorkerRevives(t *testing.T) {
	reg := chainRegistry()
	healthy := startWorkers(t, reg, 1)

	// Reserve an address, then close the listener: the first dial fails
	// and the worker is retired.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	downAddr := ln.Addr().String()
	ln.Close()

	backend := NewCluster(downAddr, healthy[0])
	backend.RetryDead = time.Millisecond
	defer backend.Close()
	task := chainTask()

	first, err := backend.RunRoots(context.Background(), task, 0, 128, 16)
	if err != nil {
		t.Fatal(err)
	}
	backend.mu.Lock()
	retired := !backend.deadSince[0].IsZero()
	backend.mu.Unlock()
	if !retired {
		t.Fatal("undialable worker was not retired")
	}

	// The machine comes back on the same address; after the cool-down it
	// must rejoin the rotation.
	ln2, err := net.Listen("tcp", downAddr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", downAddr, err)
	}
	t.Cleanup(func() { ln2.Close() })
	cluster.Serve(cluster.NewWorker(reg, 1), ln2)
	time.Sleep(5 * time.Millisecond)

	second, err := backend.RunRoots(context.Background(), task, 0, 128, 16)
	if err != nil {
		t.Fatal(err)
	}
	backend.mu.Lock()
	revived := backend.deadSince[0].IsZero()
	backend.mu.Unlock()
	if !revived {
		t.Fatal("worker did not rejoin the rotation after its cool-down")
	}
	local, err := Local{}.RunRoots(context.Background(), task, 0, 128, 16)
	if err != nil {
		t.Fatal(err)
	}
	lp := core.EstimateFromCounters(local.Agg, local.Roots, 3, 0)
	if fp := core.EstimateFromCounters(first.Agg, first.Roots, 3, 0); fp != lp {
		t.Fatalf("degraded-fleet result %v differs from local %v", fp, lp)
	}
	if sp := core.EstimateFromCounters(second.Agg, second.Roots, 3, 0); sp != lp {
		t.Fatalf("revived-fleet result %v differs from local %v", sp, lp)
	}
}

// A bad request — one the worker's handler rejects — must neither retire
// healthy workers nor be retried across the fleet: the same request
// fails identically everywhere, and poisoning the roster would take down
// every other query sharing the executor for the cool-down.
func TestClusterBackendBadRequestDoesNotPoisonFleet(t *testing.T) {
	backend := NewCluster(startWorkers(t, chainRegistry(), 2)...)
	defer backend.Close()

	unknown := chainTask()
	unknown.Model = "no-such-model"
	if _, err := backend.RunRoots(context.Background(), unknown, 0, 64, 16); err == nil {
		t.Fatal("unknown model accepted")
	}
	backend.mu.Lock()
	for i, since := range backend.deadSince {
		if !since.IsZero() {
			backend.mu.Unlock()
			t.Fatalf("worker %d retired by a request-level error", i)
		}
	}
	backend.mu.Unlock()

	// The fleet still serves valid work, immediately.
	res, err := backend.RunRoots(context.Background(), chainTask(), 0, 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	if res.Roots != 64 {
		t.Fatalf("valid request after bad one returned %d roots", res.Roots)
	}
}

// A start state whose type gob cannot ship must be rejected before any
// worker is contacted — the client-side encode failure would otherwise
// read as a dead connection and poison the fleet.
func TestClusterBackendRejectsUntransportableState(t *testing.T) {
	backend := NewCluster(startWorkers(t, chainRegistry(), 1)...)
	defer backend.Close()

	task := chainTask()
	task.Start = &stochastic.ARState{} // unexported fields; not gob-registered
	if _, err := backend.RunRoots(context.Background(), task, 0, 64, 16); err == nil {
		t.Fatal("untransportable start state accepted")
	}
	backend.mu.Lock()
	retired := !backend.deadSince[0].IsZero()
	backend.mu.Unlock()
	if retired {
		t.Fatal("worker retired by a client-side encode failure")
	}
	if _, err := backend.RunRoots(context.Background(), chainTask(), 0, 64, 16); err != nil {
		t.Fatalf("fleet unusable after rejected task: %v", err)
	}
}

func TestParseAddrs(t *testing.T) {
	for _, tc := range []struct {
		list string
		want []string // nil: refused
	}{
		{"127.0.0.1:7070", []string{"127.0.0.1:7070"}},
		{"a:1,b:2", []string{"a:1", "b:2"}},
		{" a:1 , b:2 ", []string{"a:1", "b:2"}},
		{"a:1,\tb:2", []string{"a:1", "b:2"}},
		{"", nil},
		{"  ", nil},
		{",", nil},
		{"a:1,", nil},
		{",a:1", nil},
		{"a:1,,b:2", nil},
		{"a:1, ,b:2", nil},
	} {
		got, err := ParseAddrs("peers", tc.list)
		if tc.want == nil {
			if err == nil {
				t.Errorf("ParseAddrs(%q) = %q, want an error", tc.list, got)
			} else if !strings.Contains(err.Error(), "-peers") {
				t.Errorf("ParseAddrs(%q) error %q does not name the flag", tc.list, err)
			}
			continue
		}
		if err != nil || !slices.Equal(got, tc.want) {
			t.Errorf("ParseAddrs(%q) = %q, %v; want %q", tc.list, got, err, tc.want)
		}
	}
}
