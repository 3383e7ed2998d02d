package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"magiccounting/internal/core"
	"magiccounting/internal/server"
)

// testParams shrinks every workload to a few small regions.
var testParams = params{
	regions:       8,
	regionSize:    4,
	regionFacts:   20,
	chunkFacts:    60,
	batchSize:     4,
	setups:        2,
	rounds:        2,
	tailAppends:   2,
	snapshotEvery: 30,
	sweepPerKind:  1,
	sweepSize:     2,
	sweepFacts:    12,
	replayAppends: 50,
	replayQueries: 50,
}

// loadRequest is the whole base database as one append.
func loadRequest(b *base) server.FactsRequest {
	var req server.FactsRequest
	for _, rg := range b.regions {
		req.L = append(req.L, rg.l...)
		req.E = append(req.E, rg.e...)
		req.R = append(req.R, rg.r...)
	}
	return req
}

// loadedLedger is a ledger that acknowledged the whole base.
func loadedLedger(t *testing.T, b *base) *ledger {
	t.Helper()
	lg := newLedger(len(b.regions))
	req := loadRequest(b)
	resp := server.FactsResponse{Generation: 1, AddedL: len(req.L), AddedE: len(req.E), AddedR: len(req.R)}
	if err := lg.ack(req.L, req.E, req.R, resp); err != nil {
		t.Fatal(err)
	}
	return lg
}

// answered finds a source with at least two answers and returns them,
// as the solver under test computes them.
func answered(t *testing.T, b *base) (string, []string) {
	t.Helper()
	req := loadRequest(b)
	for _, src := range b.sources {
		q := core.Query{L: req.L, E: req.E, R: req.R, Source: src}
		res, err := q.SolveMagicCounting(core.Multiple, core.Integrated)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Answers) >= 2 {
			return src, res.Answers
		}
	}
	t.Fatal("no source with two answers")
	return "", nil
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestCheckerRejectsCorruptedAnswer(t *testing.T) {
	b := makeBase(1, testParams.regions, testParams.regionSize, testParams.regionFacts)
	lg := loadedLedger(t, b)
	src, answers := answered(t, b)
	if err := lg.checkNow("query", src, 1, answers); err != nil {
		t.Fatalf("correct answers rejected: %v", err)
	}
	corrupted := [][]string{
		answers[1:], // one answer lost
		append(append([]string(nil), answers...), "g0.invented"), // one invented
		append([]string{answers[0] + "x"}, answers[1:]...),       // one renamed
	}
	for _, bad := range corrupted {
		if err := lg.checkNow("query", src, 1, bad); err == nil {
			t.Errorf("corrupted answers %v accepted", bad)
		}
	}
	// The same corruption must also be caught when it is queued during a
	// measured window and checked afterwards.
	lg.observe("query", src, 1, corrupted[0])
	if err := lg.checkPending(); err == nil {
		t.Error("queued corrupted answer accepted")
	}
}

func TestCheckerRejectsGenerationGap(t *testing.T) {
	b := makeBase(1, testParams.regions, testParams.regionSize, testParams.regionFacts)
	lg := loadedLedger(t, b)
	l, e, r := freshDelta(newRand(1), b.regions[0], 1)
	skip := server.FactsResponse{Generation: 3, AddedL: len(l), AddedE: len(e), AddedR: len(r)}
	if err := lg.ack(l, e, r, skip); err == nil {
		t.Error("acknowledgement skipping a generation accepted")
	}
	short := server.FactsResponse{Generation: 2, AddedL: len(l) - 1, AddedE: len(e), AddedR: len(r)}
	if err := lg.ack(l, e, r, short); err == nil {
		t.Error("acknowledgement adding fewer facts than sent accepted")
	}
}

// TestCheckerRejectsDroppedAppend serves the base, has the server
// acknowledge an append, then loses it: once from the server's view
// (the ledger holds an acknowledgement the server never applied) and
// once from the disk (the crash image loses the append's WAL record).
// Both must be rejected, the second as a recovered generation one
// short of the acknowledged one.
func TestCheckerRejectsDroppedAppend(t *testing.T) {
	b := makeBase(2, testParams.regions, testParams.regionSize, testParams.regionFacts)
	dir := t.TempDir()
	s, err := startServer(filepath.Join(dir, "live"), serviceConfig(0), false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.stop()
	cl := newClient(s.url)
	defer cl.close()
	ctx := context.Background()
	lg := newLedger(len(b.regions))
	ghost := newLedger(len(b.regions))
	send := func(req server.FactsRequest) {
		t.Helper()
		var resp server.FactsResponse
		if err := cl.post(ctx, "/v1/facts", req, &resp); err != nil {
			t.Fatal(err)
		}
		for _, l := range []*ledger{lg, ghost} {
			if err := l.ack(req.L, req.E, req.R, resp); err != nil {
				t.Fatal(err)
			}
		}
	}
	send(loadRequest(b))
	rng := newRand(2)
	l, e, r := freshDelta(rng, b.regions[1], 1)
	send(server.FactsRequest{L: l, E: e, R: r})
	if err := lg.checkStats(s.svc.Stats()); err != nil {
		t.Fatalf("honest server rejected: %v", err)
	}

	// The server drops an acknowledged append.
	l2, e2, r2 := freshDelta(rng, b.regions[2], 2)
	resp := server.FactsResponse{Generation: lg.lastGen() + 1, AddedL: len(l2), AddedE: len(e2), AddedR: len(r2)}
	if err := ghost.ack(l2, e2, r2, resp); err != nil {
		t.Fatal(err)
	}
	if err := ghost.checkStats(s.svc.Stats()); err == nil {
		t.Error("server missing an acknowledged append accepted")
	}

	// The disk drops it: tear the last WAL record of a crash image.
	image := filepath.Join(dir, "image")
	if err := copyDir(filepath.Join(dir, "live"), image); err != nil {
		t.Fatal(err)
	}
	tearLastRecord(t, image)
	rec, err := startServer(image, serviceConfig(0), false)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.stop()
	rcl := newClient(rec.url)
	defer rcl.close()
	src := b.regions[1].lNodes[0]
	var qr server.QueryResponse
	if err := rcl.post(ctx, "/v1/query", server.QueryRequest{Source: src}, &qr); err != nil {
		t.Fatal(err)
	}
	want := lg.lastGen()
	if rec.info.Generation != want-1 {
		t.Fatalf("torn image recovered generation %d, want %d", rec.info.Generation, want-1)
	}
	err = checkRecovered(lg, want, rec.info.Generation, qr, src, rec.svc.Stats())
	var ce *checkError
	if !errors.As(err, &ce) {
		t.Errorf("recovery one generation short accepted (err %v)", err)
	}
}

// tearLastRecord cuts the final byte of the newest WAL segment, which
// leaves its last record torn: recovery truncates it.
func tearLastRecord(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if !e.IsDir() && !strings.HasSuffix(e.Name(), ".snap") {
			segs = append(segs, e.Name())
		}
	}
	if len(segs) == 0 {
		t.Fatal("no WAL segment in the image")
	}
	sort.Strings(segs)
	path := filepath.Join(dir, segs[len(segs)-1])
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-1); err != nil {
		t.Fatal(err)
	}
}

// openFDs counts this process's open file descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot count descriptors: %v", err)
	}
	return len(fds)
}

// assertClean waits for the goroutine and descriptor counts to return
// to their levels before the run and checks the run left no directory.
func assertClean(t *testing.T, root string, goroutines, fds int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		g, f := runtime.NumGoroutine(), openFDs(t)
		if g <= goroutines && f <= fds {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("after the run: %d goroutines (before %d), %d descriptors (before %d)\n%s", g, goroutines, f, fds, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("left behind: %s", e.Name())
	}
}

func TestRunsAreCorrectAndClean(t *testing.T) {
	for _, wl := range append([]string{"read-hot"}, workloads...) {
		for _, traced := range []bool{false, true} {
			root := t.TempDir()
			g, f := runtime.NumGoroutine(), openFDs(t)
			out, err := run(context.Background(), wl, 3, 400*time.Millisecond, traced, testParams, root)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl, traced, err)
			}
			if !out.correct || out.attempted == 0 || out.failed != 0 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d", wl, traced, out.correct, out.attempted, out.failed)
			}
			set := out.e2e
			if traced {
				units := map[string]string{}
				for _, lm := range layerMetrics {
					units[lm[0]] = lm[1]
				}
				for _, n := range out.layers.names {
					if u, ok := units[n]; !ok || u != out.layers.values[n].Unit {
						t.Errorf("%s: per-layer metric %s (%s) is not in layerMetrics", wl, n, out.layers.values[n].Unit)
					}
				}
				set = out.layers.complete()
			}
			for _, n := range set.names {
				if v := set.values[n].Value; v != v { // NaN
					t.Errorf("%s traced=%v: %s is NaN", wl, traced, n)
				}
			}
			assertClean(t, root, g, f)
		}
	}
}

func TestFailedCheckStillCleansUp(t *testing.T) {
	tamperAnswers = func(a []string) []string { return append(a, "g0.invented") }
	defer func() { tamperAnswers = nil }()
	root := t.TempDir()
	g, f := runtime.NumGoroutine(), openFDs(t)
	out, err := run(context.Background(), "read-cold", 4, 300*time.Millisecond, false, testParams, root)
	var ce *checkError
	if !errors.As(err, &ce) || out == nil || out.correct {
		t.Fatalf("tampered answers: outcome %+v, err %v; want a failed check", out, err)
	}
	assertClean(t, root, g, f)
}

func TestCancelledRunCleansUp(t *testing.T) {
	root := t.TempDir()
	g, f := runtime.NumGoroutine(), openFDs(t)
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	out, err := run(ctx, "append-churn", 5, time.Minute, false, testParams, root)
	if out != nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled run: outcome %v, err %v", out, err)
	}
	assertClean(t, root, g, f)
}

// TestInterruptExitsClean runs the real command in a child process,
// interrupts it mid-run, and checks it exits non-zero without a result
// and leaves no data directory behind.
func TestInterruptExitsClean(t *testing.T) {
	if os.Getenv("PERFBENCH_CHILD") == "1" {
		os.Exit(runMain([]string{"--workload", "append-churn", "--seed", "1", "--seconds", "60"}, os.Stdout, os.Stderr))
	}
	if testing.Short() {
		t.Skip("builds the full base database")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestInterruptExitsClean$")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "PERFBENCH_CHILD=1")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Interrupt once the run has made its data directory.
	deadline := time.Now().Add(60 * time.Second)
	for {
		runs, _ := filepath.Glob(filepath.Join(dir, ".bench_build", "run-*", "data-*"))
		if len(runs) > 0 {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatal("the run never made a data directory")
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(500 * time.Millisecond)
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err == nil {
			t.Error("interrupted run exited 0")
		}
	case <-time.After(60 * time.Second):
		cmd.Process.Kill()
		<-done
		t.Fatal("interrupted run did not exit")
	}
	if strings.Contains(stdout.String(), `"correct"`) {
		t.Errorf("interrupted run printed a result: %s", stdout.String())
	}
	left, _ := filepath.Glob(filepath.Join(dir, ".bench_build", "*"))
	if len(left) > 0 {
		t.Errorf("interrupted run left %v", left)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q2, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Fatalf("quartiles of two = %v %v %v", q1, q2, q3)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json, which the benchmark's
// runner reads, in step with what the command prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var wls []string
	for _, w := range spec.Workloads {
		wls = append(wls, w.Name)
	}
	if strings.Join(wls, ",") != strings.Join(workloads, ",") {
		t.Errorf("workloads %v, command runs %v", wls, workloads)
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Errorf("%d per-layer metrics, command prints %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i, e := range spec.PerLayer {
		if i < len(layerMetrics) && (e.Name != layerMetrics[i][0] || e.Unit != layerMetrics[i][1]) {
			t.Errorf("per_layer[%d] = %s %s, command prints %s %s", i, e.Name, e.Unit, layerMetrics[i][0], layerMetrics[i][1])
		}
	}
	for _, wl := range []string{"read-cold", "paper-sweep"} {
		out, err := run(context.Background(), wl, 6, 200*time.Millisecond, false, testParams, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if len(out.e2e.names) != len(spec.EndToEnd) {
			t.Errorf("%s prints %v, end_to_end lists %d", wl, out.e2e.names, len(spec.EndToEnd))
		}
		for _, e := range spec.EndToEnd {
			m, ok := out.e2e.values[e.Name]
			if !ok || m.Unit != e.Unit {
				t.Errorf("%s: end-to-end %s (%s) printed as %+v", wl, e.Name, e.Unit, m)
			}
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end %s = %v, want > 0", wl, e.Name, m.Value)
			}
		}
	}
}
