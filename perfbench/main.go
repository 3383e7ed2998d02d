// Command perfbench is the repository's benchmark of the serving and
// reproduction paths. One run is one OS process: it serves
// internal/server over a loopback listener in this process, drives it
// with at most two closed-loop clients, checks every answer against
// internal/oracle, and prints its metrics by name and unit, then one
// JSON result line.
//
//	perfbench --workload read-hot --seed 1 --seconds 10 --trace 0
//	perfbench --steady 5 --seconds 10          # spread of every metric
//
// See README.md for the workloads, metrics and reference figures.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// workloads names the workloads BENCHMARK.json gates, in the order
// --steady runs them. read-hot runs as well but is not gated: see
// README.md.
var workloads = []string{"read-cold", "append-churn", "paper-sweep"}

// params sizes a run. The benchmark always runs defaultParams; the
// package tests shrink it.
type params struct {
	regions     int // disjoint regions in the base database
	regionSize  int // workload.RandomRegime size of each region
	regionFacts int // facts per region, give or take a fifth
	chunkFacts  int // facts per load append
	batchSize   int // sources per batch request
	setups      int // set-ups per run; setup_s is their median
	// rounds cut the window; each ends with one timed crash recovery,
	// and every rate, mean and recovery time is the median of the rounds.
	rounds int
	// tailAppends are acknowledged after the final checkpoint, so the
	// crash image always carries a WAL tail.
	tailAppends int
	// snapshotEvery is the facts between automatic snapshots.
	snapshotEvery int
	sweepPerKind  int // paper-sweep instances per regime
	sweepSize     int // their workload.RandomRegime size
	sweepFacts    int // and facts, give or take a fifth
	// replayAppends and replayQueries bound the traced window's
	// operations replayed into core and durable.
	replayAppends, replayQueries int
}

var defaultParams = params{
	regions:       400,
	regionSize:    22,
	regionFacts:   250,
	chunkFacts:    5000,
	batchSize:     16,
	setups:        5,
	rounds:        10,
	tailAppends:   16,
	snapshotEvery: 50000,
	sweepPerKind:  64,
	sweepSize:     10,
	sweepFacts:    100,
	replayAppends: 2000,
	replayQueries: 300,
}

// outcome is one run's result.
type outcome struct {
	correct   bool
	attempted int
	failed    int
	// e2e holds the end-to-end metrics of BENCHMARK.json, layers the
	// per-layer ones of a traced run, and named the workload's figures
	// under the names the README's metric map uses.
	e2e, layers, named metricSet
}

// result is the JSON line a run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr)) }

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "workload: read-hot, read-cold, append-churn or paper-sweep")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics instead of the end-to-end ones")
	steady := fs.Int("steady", 0, "run every workload this many times, each with another seed, and print each metric's median and quartiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1")
		return 2
	}
	if *steady > 0 {
		if err := runSteady(*steady, *seed, *seconds, *wl, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	out, err := run(ctx, *wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1, defaultParams, ".bench_build")
	if out == nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	printOutcome(stdout, *wl, *trace == 1, out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: check failed:", err)
		return 1
	}
	return 0
}

// run executes one workload in a fresh directory under root, removed
// again before run returns whatever happened. A nil outcome means the
// run could not finish; a non-nil one with an error means it finished
// and a check failed.
func run(ctx context.Context, wl string, seed int64, window time.Duration, traced bool, p params, root string) (*outcome, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(root, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	var out *outcome
	switch wl {
	case "read-hot", "read-cold", "append-churn":
		out, err = runServing(ctx, wl, seed, window, traced, p, work)
	case "paper-sweep":
		out, err = runSweep(ctx, seed, window, traced, p)
	default:
		return nil, fmt.Errorf("unknown workload %q (want read-hot or one of %v)", wl, workloads)
	}
	if err != nil {
		var ce *checkError
		if out != nil && errors.As(err, &ce) {
			out.correct = false
			return out, err
		}
		return nil, err
	}
	return out, nil
}

// checkError marks a failed output check, as opposed to a run that
// could not finish.
type checkError struct{ err error }

func (e *checkError) Error() string { return e.err.Error() }
func (e *checkError) Unwrap() error { return e.err }

func checkFailed(format string, args ...any) error {
	return &checkError{fmt.Errorf(format, args...)}
}

// printOutcome prints the workload's named figures, one per line, then
// the JSON result line.
func printOutcome(w io.Writer, wl string, traced bool, out *outcome) {
	for _, n := range out.named.names {
		m := out.named.values[n]
		fmt.Fprintf(w, "%s %-28s %14.4f %s\n", wl, n, m.Value, m.Unit)
	}
	set := out.e2e
	if traced {
		out.layers = out.layers.complete()
		for _, n := range out.layers.names {
			m := out.layers.values[n]
			fmt.Fprintf(w, "%s layer %-34s %14.4f %s\n", wl, n, m.Value, m.Unit)
		}
		set = out.layers
	}
	res := result{Correct: out.correct, Attempted: out.attempted, Failed: out.failed, Metrics: set.values}
	line, _ := json.Marshal(res)
	fmt.Fprintln(w, string(line))
}
