package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// steadyRun is one run of a steadiness series.
type steadyRun struct {
	Seed       int64          `json:"seed"`
	Result     result         `json:"result"`
	Provenance map[string]any `json:"provenance"`
}

// spread summarizes one metric over a series.
type spread struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	// IQRFrac is (Q3-Q1)/median, the run-to-run spread the bounds in
	// BENCHMARK.json are set against.
	IQRFrac float64 `json:"iqr_frac"`
}

// steady runs the workload cfg.steady times, seeds cfg.seed upwards, each
// run a separate process, and prints every metric's median, quartiles and
// (Q3-Q1)/median.
func steady(ctx context.Context, cfg config) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var runs []steadyRun
	for i := range cfg.steady {
		seed := cfg.seed + int64(i)
		cmd := exec.CommandContext(ctx, self,
			"-workload", cfg.workload, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.Itoa(cfg.seconds), "-trace", strconv.Itoa(cfg.trace),
			"-root", cfg.root, "-daemon", cfg.daemon)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run with seed %d: %w\n%s", seed, err, out)
		}
		run, err := parseRun(seed, out)
		if err != nil {
			return err
		}
		runs = append(runs, run)
		fmt.Printf("seed %d: correct=%t attempted=%d failed=%d\n", seed, run.Result.Correct, run.Result.Attempted, run.Result.Failed)
	}
	summary := summarize(runs)
	names := make([]string, 0, len(summary))
	for n := range summary {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-32s %12s %12s %12s %9s\n", "metric", "median", "q1", "q3", "iqr/med")
	for _, n := range names {
		s := summary[n]
		fmt.Printf("%-32s %12.4f %12.4f %12.4f %9.4f  %s\n", n, s.Median, s.Q1, s.Q3, s.IQRFrac, s.Unit)
	}
	if cfg.out == "" {
		return nil
	}
	data, err := json.MarshalIndent(map[string]any{
		"workload": cfg.workload, "seconds": cfg.seconds, "trace": cfg.trace,
		"summary": summary, "runs": runs,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(cfg.out, append(data, '\n'), 0o644)
}

// parseRun reads a run's provenance line and its final result line.
func parseRun(seed int64, out []byte) (steadyRun, error) {
	run := steadyRun{Seed: seed}
	var lines [][]byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	if len(lines) < 2 {
		return run, fmt.Errorf("seed %d: no result line in output:\n%s", seed, out)
	}
	if err := json.Unmarshal(lines[len(lines)-1], &run.Result); err != nil {
		return run, fmt.Errorf("seed %d: result line: %w", seed, err)
	}
	var prov struct {
		Provenance map[string]any `json:"provenance"`
	}
	if err := json.Unmarshal(lines[len(lines)-2], &prov); err != nil {
		return run, fmt.Errorf("seed %d: provenance line: %w", seed, err)
	}
	run.Provenance = prov.Provenance
	return run, nil
}

func summarize(runs []steadyRun) map[string]spread {
	out := map[string]spread{}
	for _, r := range runs {
		for name, m := range r.Result.Metrics {
			s := out[name]
			s.Unit = m.Unit
			s.Values = append(s.Values, m.Value)
			out[name] = s
		}
	}
	for name, s := range out {
		s.Median = median(s.Values)
		if len(s.Values) >= 2 {
			q := quartiles(s.Values)
			s.Q1, s.Q3 = q[0], q[2]
		} else {
			s.Q1, s.Q3 = s.Median, s.Median
		}
		if s.Median != 0 {
			s.IQRFrac = (s.Q3 - s.Q1) / s.Median
		}
		out[name] = s
	}
	return out
}

// quartiles matches Python's statistics.quantiles(values, n=4) with its
// default exclusive method. It needs at least two values.
func quartiles(values []float64) [3]float64 {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	ld := len(data)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = min(max(j, 1), ld-1)
		delta := float64(i*m - j*4)
		q[i-1] = (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return q
}
