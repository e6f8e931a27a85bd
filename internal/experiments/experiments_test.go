package experiments

import (
	"math"
	"strings"
	"testing"
	"time"
)

// quick returns a config sized for unit testing.
func quick() Config {
	return Config{Quick: true, Sizes: []float64{1 << 20, 256 << 20}, TECCLBudget: 300 * time.Millisecond}
}

func TestFig14aShape(t *testing.T) {
	s, err := Fig14a(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != 2 {
		t.Fatalf("rows = %d", len(s.Rows))
	}
	for _, r := range s.Rows {
		if r.SyCCL <= 0 || r.NCCL <= 0 {
			t.Fatalf("missing busbw at %s: %+v", SizeLabel(r.Bytes), r)
		}
		// §7.2: SyCCL never loses to NCCL on AllGather A100 (within
		// simulator noise).
		if r.SyCCL < r.NCCL*0.95 {
			t.Errorf("SyCCL %.1f GBps below NCCL %.1f at %s", r.SyCCL/1e9, r.NCCL/1e9, SizeLabel(r.Bytes))
		}
	}
	// Small-size latency advantage must be pronounced (paper: up to
	// ~0.8× improvement at small sizes).
	if s.Rows[0].SyCCL < s.Rows[0].NCCL*1.2 {
		t.Errorf("small-size speedup too small: %.1f vs %.1f GBps", s.Rows[0].SyCCL/1e9, s.Rows[0].NCCL/1e9)
	}
	if !strings.Contains(s.Format(), "fig14a") {
		t.Error("Format output malformed")
	}
}

func TestFig15aShape(t *testing.T) {
	s, err := Fig15a(quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range s.Rows {
		if r.SyCCL < r.NCCL*0.9 {
			t.Errorf("64-GPU H800: SyCCL %.1f below NCCL %.1f at %s", r.SyCCL/1e9, r.NCCL/1e9, SizeLabel(r.Bytes))
		}
	}
	// Large size: SyCCL must exceed NCCL's NVLink-bound ring clearly.
	last := s.Rows[len(s.Rows)-1]
	if last.SyCCL < last.NCCL*1.1 {
		t.Errorf("large-size H800 gain missing: %.1f vs %.1f", last.SyCCL/1e9, last.NCCL/1e9)
	}
}

func TestFig16aSpeedup(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock speedup comparison is unreliable under the race detector")
	}
	cfg := quick()
	series, err := Fig16a(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("series = %d", len(series))
	}
	for _, s := range series {
		for _, r := range s.Rows {
			if !r.TECCLValid {
				t.Errorf("%s: TECCL missing at %s", s.ID, SizeLabel(r.Bytes))
				continue
			}
			// TECCL burns its budget; SyCCL must be faster.
			if r.SyCCL >= r.TECCL {
				t.Errorf("%s at %s: SyCCL %v not faster than TECCL %v", s.ID, SizeLabel(r.Bytes), r.SyCCL, r.TECCL)
			}
		}
		if !strings.Contains(s.Format(), "speedup") {
			t.Error("Format missing speedup column")
		}
	}
}

func TestFig16bBreakdown(t *testing.T) {
	cfg := quick()
	cfg.Sizes = []float64{1 << 20}
	rows, err := Fig16b(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 { // AG + A2A at one size
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Solve1 <= 0 {
			t.Errorf("%v: no solve1 time", r.Kind)
		}
		// §7.3: solving dominates; search+combine stay small.
		if r.Search+r.Combine > 10*(r.Solve1+r.Solve2) {
			t.Errorf("%v: search/combine dominates: %+v", r.Kind, r)
		}
	}
	if !strings.Contains(FormatBreakdown(rows), "solve1") {
		t.Error("FormatBreakdown malformed")
	}
}

func TestFig16cRuns(t *testing.T) {
	rows, err := Fig16c(Config{Quick: true, TECCLBudget: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestTable5Quick(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock speedup comparison is unreliable under the race detector")
	}
	cfg := quick()
	cfg.Sizes = []float64{1 << 20}
	// The budget stands in for the paper's hours-scale timeout; it must
	// sit comfortably above SyCCL's worst quick-mode case (~350ms for
	// 64-GPU AlltoAll) for the speedup assertion to be meaningful.
	cfg.TECCLBudget = 1500 * time.Millisecond
	rows, err := Table5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 { // quick mode drops the 512 scenario
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.TECCLValid {
			t.Errorf("%s: TECCL invalid", r.Scenario)
			continue
		}
		if r.Speedup <= 1 {
			t.Errorf("%s: speedup %.1f not > 1", r.Scenario, r.Speedup)
		}
	}
	if !strings.Contains(FormatTable5(rows), "Speedup") {
		t.Error("FormatTable5 malformed")
	}
}

func TestFig17aPruningSavesTime(t *testing.T) {
	cfg := quick()
	cfg.Sizes = []float64{4 << 20}
	rows, err := Fig17a(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var off, on *PruneRow
	for i := range rows {
		if rows[i].P1 && rows[i].P2 {
			on = &rows[i]
		}
		if !rows[i].P1 && !rows[i].P2 {
			off = &rows[i]
		}
	}
	if on == nil || off == nil {
		t.Fatal("missing modes")
	}
	// What pruning saves is work, and the work counts repeat exactly
	// (Synth is one wall-clock sample, reported but not asserted): with
	// the prunings on the search emits no more sketches, and the pipeline
	// evaluates no more combinations and runs no more solves.
	if on.Sketches > off.Sketches || on.Candidates > off.Candidates || on.SolverCalls > off.SolverCalls {
		t.Errorf("pruning on did more work than off: sketches %d vs %d, candidates %d vs %d, solver calls %d vs %d",
			on.Sketches, off.Sketches, on.Candidates, off.Candidates, on.SolverCalls, off.SolverCalls)
	}
	if on.Sketches >= off.Sketches {
		t.Errorf("pruning removed no sketch (%d on, %d off): the ablation no longer ablates", on.Sketches, off.Sketches)
	}
	// "minimal impact on performance": within 15%.
	if on.BusBW < off.BusBW*0.85 {
		t.Errorf("pruning cost too much busbw: %.1f vs %.1f", on.BusBW/1e9, off.BusBW/1e9)
	}
	if out := FormatFig17a(rows); !strings.Contains(out, "sketches") || !strings.Contains(out, "solves") {
		t.Errorf("FormatFig17a lost the work columns:\n%s", out)
	}
}

func TestFig17bStageLimit(t *testing.T) {
	cfg := quick()
	cfg.Sizes = []float64{4 << 20}
	rows, err := Fig17b(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var s3, s10 *StageRow
	for i := range rows {
		switch rows[i].Stages {
		case 3:
			s3 = &rows[i]
		case 10:
			s10 = &rows[i]
		}
	}
	if s3 == nil || s10 == nil {
		t.Fatal("missing stage rows")
	}
	// ≤3 stages lose nothing on this topology (§7.4).
	if s3.BusBW < s10.BusBW*0.9 {
		t.Errorf("3-stage busbw %.1f below 10-stage %.1f", s3.BusBW/1e9, s10.BusBW/1e9)
	}
	_ = FormatFig17b(rows)
}

func TestFig17cE2Tradeoff(t *testing.T) {
	cfg := quick()
	cfg.Sizes = []float64{64 << 20}
	rows, err := Fig17c(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byE2 := map[float64]E2Row{}
	for _, r := range rows {
		byE2[r.E2] = r
	}
	// Coarser E2 must not produce better schedules than finer E2.
	if byE2[1].BusBW > byE2[0.1].BusBW*1.1 {
		t.Errorf("E2=1 busbw %.1f above E2=0.1 %.1f", byE2[1].BusBW/1e9, byE2[0.1].BusBW/1e9)
	}
	_ = FormatFig17c(rows)
}

func TestTable6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("table6 synthesizes many collectives")
	}
	rows, err := Table6(Config{Quick: true, TECCLBudget: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.SyCCLms <= 0 || r.NCCLms <= 0 {
			t.Fatalf("%s: empty row", r.Config.Name())
		}
		// The paper reports single-digit-% end-to-end gains; allow a
		// modest overshoot (our simulated NCCL lacks production
		// mid-size tuning) but never a regression.
		if r.VsNCCLPct < -1 || r.VsNCCLPct > 20 {
			t.Errorf("%s: vs NCCL %.1f%% implausible", r.Config.Name(), r.VsNCCLPct)
		}
	}
	if !strings.Contains(FormatTable6(rows), "vs NCCL") {
		t.Error("FormatTable6 malformed")
	}
}

func TestFig21aCraftedParity(t *testing.T) {
	cfg := quick()
	cfg.Sizes = []float64{16 << 10, 256 << 20}
	s, err := Fig21a(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range s.Rows {
		if math.IsNaN(r.Crafted) || r.Crafted <= 0 {
			t.Fatalf("crafted missing at %s", SizeLabel(r.Bytes))
		}
		// Appendix C: SyCCL ≈ crafted on the A100 testbed.
		ratio := r.SyCCL / r.Crafted
		if ratio < 0.7 {
			t.Errorf("SyCCL %.1f far below crafted %.1f at %s", r.SyCCL/1e9, r.Crafted/1e9, SizeLabel(r.Bytes))
		}
	}
}

func TestSizeLabel(t *testing.T) {
	cases := map[float64]string{1 << 10: "1K", 4 << 20: "4M", 1 << 30: "1G", 512: "512B"}
	for in, want := range cases {
		if got := SizeLabel(in); got != want {
			t.Errorf("SizeLabel(%g) = %q, want %q", in, got, want)
		}
	}
}

func TestPaperSizes(t *testing.T) {
	s := PaperSizes()
	if s[0] != 1<<10 || s[len(s)-1] != 4<<30 {
		t.Errorf("ladder = %v", s)
	}
	if len(s) != 12 {
		t.Errorf("points = %d, want 12", len(s))
	}
}
