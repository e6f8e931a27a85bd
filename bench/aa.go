package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
)

// baselinePath is where -aa stores what it measured: the seed values of
// every metric (the baseline later PRs are measured against) and the
// observed run-to-run noise, so the bounds in BENCHMARK.json are
// evidence, not guesses. BENCHMARK.json itself may carry only the
// contract's keys.
const baselinePath = "bench/BASELINE.json"

// baseline is the content of BASELINE.json.
type baseline struct {
	Note string            `json:"note"`
	Env  map[string]string `json:"env"`
	// EndToEnd[workload][metric] compares two sets of runs of one tree.
	EndToEnd map[string]map[string]aaRow `json:"end_to_end"`
	// PerLayer[workload][metric] is one traced run's value.
	PerLayer map[string]map[string]float64 `json:"per_layer"`
}

// aaRow is one workload × end-to-end metric of the A/A check.
type aaRow struct {
	Unit string `json:"unit"`
	// Value is the median over both sets: the committed seed value.
	Value float64 `json:"value"`
	// MedianA / MedianB are the two sets' medians; RelDiff is how much
	// worse B reads than A, as a share of A (negative: better).
	MedianA float64 `json:"median_a"`
	MedianB float64 `json:"median_b"`
	RelDiff float64 `json:"rel_diff"`
	// SpreadA / SpreadB are the sets' quartile distances over their
	// medians — the driver's steadiness statistic.
	SpreadA float64 `json:"spread_a"`
	SpreadB float64 `json:"spread_b"`
	Bound   float64 `json:"bound"`
}

// runChild runs this binary on one workload in a fresh process, as the
// driver does, and parses its last line.
func runChild(cfg config, workload string, seed int64, trace bool) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", t)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	r := &result{}
	if err := json.Unmarshal(lines[len(lines)-1], r); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line: %w", workload, seed, err)
	}
	if !r.Correct || r.Failed > 0 {
		return nil, fmt.Errorf("%s seed %d: %d of %d ops failed", workload, seed, r.Failed, r.Attempted)
	}
	return r, nil
}

// selfCheck runs two sets of k full runs of the current tree, each run
// on another seed, and holds every workload × end-to-end metric to its
// bound: neither set's spread nor the distance between the two medians
// may exceed it. It then takes one traced run per workload and writes
// everything to BASELINE.json. Exit code 1 on any breach.
func selfCheck(cfg config, k int, out io.Writer) int {
	if k < 2 {
		fmt.Fprintln(os.Stderr, "bench: -aa needs -k of at least 2")
		return 2
	}
	spec := cfg.spec
	b := &baseline{
		Note: "written by `go run ./bench -aa`; the seed values and noise of the commit that defined the benchmark",
		Env: map[string]string{
			"go": runtime.Version(), "nproc": strconv.Itoa(runtime.NumCPU()), "gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
			"run_seconds": strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "runs_per_set": strconv.Itoa(k),
		},
		EndToEnd: map[string]map[string]aaRow{},
		PerLayer: map[string]map[string]float64{},
	}
	// values[set][workload][metric] collects the runs. The sets are
	// interleaved run by run, as a parent/change comparison would be.
	var values [2]map[string]map[string][]float64
	for s := range values {
		values[s] = map[string]map[string][]float64{}
	}
	seed := cfg.seed
	for run := 0; run < k; run++ {
		for s := range values {
			for _, w := range spec.Workloads {
				r, err := runChild(cfg, w.Name, seed, false)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
				if values[s][w.Name] == nil {
					values[s][w.Name] = map[string][]float64{}
				}
				for name, m := range r.Metrics {
					values[s][w.Name][name] = append(values[s][w.Name][name], m.Value)
				}
				fmt.Fprintf(out, "# run %d set %c %-12s seed %d op_ms %.4g setup_s %.4g\n",
					run+1, 'A'+s, w.Name, seed, r.Metrics["op_ms"].Value, r.Metrics["setup_s"].Value)
			}
			seed++
		}
	}

	breaches := 0
	fmt.Fprintf(out, "%-12s %-20s %12s %12s %9s %9s %9s %7s\n", "workload", "metric", "median_a", "median_b", "rel_diff", "spread_a", "spread_b", "bound")
	for _, w := range spec.Workloads {
		b.EndToEnd[w.Name] = map[string]aaRow{}
		for _, m := range spec.EndToEnd {
			xa, xb := values[0][w.Name][m.Name], values[1][w.Name][m.Name]
			row := aaRow{
				Unit: m.Unit, Bound: *m.Bound,
				Value:   median(append(append([]float64(nil), xa...), xb...)),
				MedianA: median(xa), MedianB: median(xb),
				SpreadA: quartileSpread(xa), SpreadB: quartileSpread(xb),
			}
			if row.MedianA != 0 {
				row.RelDiff = (row.MedianB - row.MedianA) / math.Abs(row.MedianA)
				if m.Better == "higher" {
					row.RelDiff = -row.RelDiff
				}
			}
			b.EndToEnd[w.Name][m.Name] = row
			verdict := ""
			// A/A: either set could have been the "change", so the
			// distance counts in both directions. setup_s is held to its
			// medians only, as the driver does.
			if math.Abs(row.RelDiff) > row.Bound ||
				(m.Name != "setup_s" && (row.SpreadA > row.Bound || row.SpreadB > row.Bound)) {
				verdict = "  BREACH"
				breaches++
			}
			fmt.Fprintf(out, "%-12s %-20s %12.6g %12.6g %+8.2f%% %8.2f%% %8.2f%% %6.1f%%%s\n", w.Name, m.Name,
				row.MedianA, row.MedianB, 100*row.RelDiff, 100*row.SpreadA, 100*row.SpreadB, 100*row.Bound, verdict)
		}
	}

	for _, w := range spec.Workloads {
		r, err := runChild(cfg, w.Name, cfg.seed, true)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		b.PerLayer[w.Name] = map[string]float64{}
		for name, m := range r.Metrics {
			b.PerLayer[w.Name][name] = m.Value
		}
	}
	raw, err := json.MarshalIndent(b, "", "  ")
	if err == nil {
		err = os.WriteFile(baselinePath, append(raw, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(out, "# wrote %s; %d breaches\n", baselinePath, breaches)
	if breaches > 0 {
		return 1
	}
	return 0
}
