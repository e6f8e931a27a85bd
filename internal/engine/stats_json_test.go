package engine

import (
	"encoding/json"
	"testing"
)

// TestStatsJSONGolden pins the exact /statsz shape of a zero-valued
// Stats: every counter present, explicitly zero, stable snake_case. A
// failure here means the serving API changed — adding fields is fine
// (update the golden), but renaming, retyping, or omitting a zero field
// breaks scrapers that delta successive snapshots. See the Stats doc
// comment for the contract.
func TestStatsJSONGolden(t *testing.T) {
	got, err := json.Marshal(Stats{})
	if err != nil {
		t.Fatal(err)
	}
	const golden = `{"plans":0,"cancelled":0,"solve_hits":0,"solve_misses":0,` +
		`"exact_hits":0,"iso_hits":0,"evictions":0,` +
		`"sketch_hits":0,"sketch_misses":0,` +
		`"bound_hits":0,"bound_misses":0,"bounds_pruned":0,"bounds_proved":0,` +
		`"persist_hits":0,"persist_misses":0,` +
		`"replans":0,"replan_reused":0,"replan_invalidated":0,` +
		`"recipe_hits":0,"recipe_misses":0,"recipe_stale":0}`
	if string(got) != golden {
		t.Errorf("zero Stats JSON drifted:\n got: %s\nwant: %s", got, golden)
	}

	// Non-zero values round-trip field-for-field (no field shares a JSON
	// name with another).
	in := Stats{Plans: 1, Cancelled: 2, SolveHits: 3, SolveMisses: 4,
		ExactHits: 5, IsoHits: 6, Evictions: 7, SketchHits: 8, SketchMisses: 9,
		BoundHits: 10, BoundMisses: 11, BoundsPruned: 12, BoundsProved: 13,
		PersistHits: 14, PersistMisses: 15,
		Replans: 16, ReplanReused: 17, ReplanInvalidated: 18,
		RecipeHits: 19, RecipeMisses: 20, RecipeStale: 21}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Stats
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("Stats did not round-trip: %+v vs %+v", out, in)
	}
}
