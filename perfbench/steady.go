package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// runSteady runs each workload n times as separate processes of this
// binary, seeds seed..seed+n-1, and prints for every metric its median,
// quartiles and spread (interquartile distance over the median), the
// figure BENCHMARK.json's bounds are set from. It prints the named
// figures too, so every metric the README maps is covered.
func runSteady(n int, seed int64, seconds int, only string, w io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	list := workloads
	if only != "" {
		list = []string{only}
	}
	for _, wl := range list {
		values := map[string][]float64{}
		units := map[string]string{}
		var order []string
		shares := map[string]bool{}
		for i := 0; i < n; i++ {
			s := seed + int64(i)
			cmd := exec.Command(self, "--workload", wl, "--seed", strconv.FormatInt(s, 10),
				"--seconds", strconv.Itoa(seconds), "--trace", "0")
			var stdout bytes.Buffer
			cmd.Stdout = &stdout
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %w", wl, s, err)
			}
			var last string
			sc := bufio.NewScanner(&stdout)
			for sc.Scan() {
				line := sc.Text()
				last = line
				f := strings.Fields(line)
				if len(f) == 4 && f[0] == wl {
					v, err := strconv.ParseFloat(f[2], 64)
					if err != nil {
						continue
					}
					name := "named." + f[1]
					if _, ok := values[name]; !ok {
						order = append(order, name)
					}
					values[name] = append(values[name], v)
					units[name] = f[3]
				}
			}
			var res result
			if err := json.Unmarshal([]byte(last), &res); err != nil {
				return fmt.Errorf("%s seed %d: result line: %w", wl, s, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: incorrect", wl, s)
			}
			shares[fmt.Sprintf("%.6f", float64(res.Failed)/float64(res.Attempted))] = true
			names := make([]string, 0, len(res.Metrics))
			for k := range res.Metrics {
				names = append(names, k)
			}
			sort.Strings(names)
			for _, k := range names {
				if _, ok := values[k]; !ok {
					order = append(order, k)
				}
				values[k] = append(values[k], res.Metrics[k].Value)
				units[k] = res.Metrics[k].Unit
			}
			fmt.Fprintf(os.Stderr, "steady: %s seed %d done\n", wl, s)
		}
		sort.SliceStable(order, func(i, j int) bool {
			return !strings.HasPrefix(order[i], "named.") && strings.HasPrefix(order[j], "named.")
		})
		fmt.Fprintf(w, "%s (%d runs)\n", wl, n)
		fmt.Fprintf(w, "  %-30s %12s %12s %12s %8s  %s\n", "metric", "q1", "median", "q3", "spread", "unit")
		for _, k := range order {
			q1, q2, q3 := quartiles(values[k])
			spread := 0.0
			if q2 != 0 {
				spread = (q3 - q1) / q2
			}
			fmt.Fprintf(w, "  %-30s %12.4f %12.4f %12.4f %8.4f  %s\n", k, q1, q2, q3, spread, units[k])
		}
		var seen []string
		for k := range shares {
			seen = append(seen, k)
		}
		sort.Strings(seen)
		fmt.Fprintf(w, "  failed share of attempted: %s\n", strings.Join(seen, ", "))
	}
	return nil
}
