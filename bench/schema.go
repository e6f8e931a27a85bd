package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
)

// benchSpec mirrors BENCHMARK.json, the contract every later PR is
// accepted or rejected on.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen; per-layer metrics have none.
	Bound *float64 `json:"bound,omitempty"`
}

// loadSpec reads and validates BENCHMARK.json. Unknown keys are errors:
// the driver refuses a file with any key beyond the contract's.
func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w (run from the repository root)", err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	spec := &benchSpec{}
	if err := dec.Decode(spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := spec.validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validate applies the contract's limits: name alphabet, counts, every
// metric with unit and direction, a bound of at most 0.25 on — and only
// on — the end-to-end metrics, setup_s present.
func (s *benchSpec) validate() error {
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d outside 1..60", s.RunSeconds)
	}
	if n := len(s.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		return fmt.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		return fmt.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	use := func(name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("name %q outside [A-Za-z0-9_.-]{1,64}", name)
		}
		if seen[name] {
			return fmt.Errorf("name %q used twice", name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range s.Workloads {
		if err := use(w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 {
			return fmt.Errorf("workload %q: why must be 1..200 characters", w.Name)
		}
	}
	metric := func(m metricSpec, gated bool) error {
		if err := use(m.Name); err != nil {
			return err
		}
		if !unitRE.MatchString(m.Unit) {
			return fmt.Errorf("metric %q: bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			return fmt.Errorf("metric %q: better is %q, want lower or higher", m.Name, m.Better)
		}
		switch {
		case gated && (m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25):
			return fmt.Errorf("metric %q: end-to-end metrics need a bound in (0, 0.25]", m.Name)
		case !gated && m.Bound != nil:
			return fmt.Errorf("metric %q: per-layer metrics have no bound", m.Name)
		}
		return nil
	}
	setup := false
	for _, m := range s.EndToEnd {
		if err := metric(m, true); err != nil {
			return err
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		return fmt.Errorf("end_to_end needs setup_s with unit s, better lower")
	}
	for _, m := range s.PerLayer {
		if err := metric(m, false); err != nil {
			return err
		}
	}
	return nil
}
