package core

import (
	"testing"

	"syccl/internal/persist"
)

// solveKeysByFormat pins, per persist.FormatVersion, the solve-option
// fingerprints the default coarse and fine passes cache their
// sub-schedules under. The disk corpus is keyed by them, so a rendering
// change needs a FormatVersion bump and a new row here: an old corpus
// then resets at Open instead of keeping entries nothing can look up. A
// bump for a solver change keeps the previous row's keys.
var solveKeysByFormat = map[int]struct{ coarse, fine string }{
	3: {"e3|g1|tau0|mb384|s0|fbfalse", "e0.5|g0|tau0|mb384|s0|fbfalse"},
	4: {"e3|g1|s0", "e0.5|g0|s0"},
	5: {"e3|g1|s0", "e0.5|g0|s0"}, // v4's keys; the over-gate fine-pass solver changed
	6: {"e3|g1|s0", "e0.5|g0|s0"}, // v5's keys; the exact engine's pivot budget counts every pivot
	7: {"e3|g1|s0", "e0.5|g0|s0"}, // v6's keys; every branch-and-bound node is solved cold
}

func TestSolveKeysPinnedToFormatVersion(t *testing.T) {
	want, ok := solveKeysByFormat[persist.FormatVersion]
	if !ok {
		t.Fatalf("no pinned solve keys for persist.FormatVersion %d: add its row", persist.FormatVersion)
	}
	o := Options{}.withDefaults()
	if got := o.passSolver(false).Fingerprint(); got != want.coarse {
		t.Errorf("coarse pass key %q, pinned %q for format v%d: bump persist.FormatVersion", got, want.coarse, persist.FormatVersion)
	}
	if got := o.passSolver(true).Fingerprint(); got != want.fine {
		t.Errorf("fine pass key %q, pinned %q for format v%d: bump persist.FormatVersion", got, want.fine, persist.FormatVersion)
	}
}
