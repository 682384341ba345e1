package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// The A/A check runs every workload twice on this one build and asks
// whether the two sets agree within the benchmark's own bounds. It is
// the tool that tells creep from noise: a bound the same code cannot
// meet against itself is a bound nobody should be judged by.

// benchmarkFile is the slice of BENCHMARK.json the A/A check reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadBounds finds BENCHMARK.json in the working directory or its
// parent (the benchmark is started from either).
func loadBounds() (*benchmarkFile, error) {
	var lastErr error
	for _, dir := range []string{".", ".."} {
		b, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err != nil {
			lastErr = err
			continue
		}
		var bf benchmarkFile
		if err := json.Unmarshal(b, &bf); err != nil {
			return nil, fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return &bf, nil
	}
	return nil, lastErr
}

// childRun is what one child process printed: its result line and the
// replication-0 digest from the report above it.
type childRun struct {
	*result
	digest string
}

// runChild runs one workload in a fresh process of this same binary, so
// that process-wide figures (CPU, allocations, peak RSS) start from
// zero, and parses what it printed.
func runChild(workload string, seed int64, seconds float64) (*childRun, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	out = bytes.TrimSpace(out)
	cut := bytes.LastIndexByte(out, '\n')
	var res result
	if err := json.Unmarshal(out[cut+1:], &res); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", workload, err)
	}
	var rep report
	if err := json.Unmarshal(out[:cut+1], &rep); err != nil {
		return nil, fmt.Errorf("%s: report: %w", workload, err)
	}
	return &childRun{result: &res, digest: rep.Digest}, nil
}

// runAA returns the process exit code: 0 when every end-to-end metric
// of every workload differs between the two sets by no more than its
// bound, 1 otherwise.
func runAA(seed int64, seconds float64) int {
	bf, err := loadBounds()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark -aa: %v\n", err)
		return 1
	}
	// Set A runs the workloads in order, set B in reverse, so neither set
	// always has the warmer machine.
	sets := [2]map[string]*childRun{{}, {}}
	order := append([]string(nil), workloadNames...)
	for s := range sets {
		for _, w := range order {
			fmt.Fprintf(os.Stderr, "benchmark -aa: set %c, %s\n", 'A'+s, w)
			res, err := runChild(w, seed, seconds)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark -aa: %v\n", err)
				return 1
			}
			sets[s][w] = res
		}
		for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
			order[i], order[j] = order[j], order[i]
		}
	}
	exit := 0
	fmt.Printf("%-14s %-14s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "B vs A", "bound", "verdict")
	for _, w := range workloadNames {
		a, b := sets[0][w], sets[1][w]
		if !a.Correct || !b.Correct {
			fmt.Printf("%-14s output checks failed (A correct=%v, B correct=%v)\n", w, a.Correct, b.Correct)
			exit = 1
		}
		if a.digest != b.digest {
			fmt.Printf("%-14s replication 0 digests differ: %s vs %s\n", w, a.digest, b.digest)
			exit = 1
		}
		for _, m := range bf.EndToEnd {
			va, vb := a.Metrics[m.Name].Value, b.Metrics[m.Name].Value
			// worse is the share by which B is worse than A (negative: better).
			worse := (vb - va) / va
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > m.Bound || -worse > m.Bound {
				verdict = "EXCEEDS BOUND"
				exit = 1
			}
			fmt.Printf("%-14s %-14s %14.6g %14.6g %+8.2f%% %6.1f%%  %s\n", w, m.Name, va, vb, 100*worse, 100*m.Bound, verdict)
		}
	}
	return exit
}
