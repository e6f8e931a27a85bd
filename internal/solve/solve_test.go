package solve

import (
	"context"
	"math"
	"reflect"
	"testing"

	"syccl/internal/obs"
)

// uniformDemand builds a demand where α=0 and β·bytes=1s, so with E=1 the
// derived τ is 1s and every transfer has span=lat=1 epoch — makespans
// count communication rounds exactly.
func broadcastDemand(n int) *Demand {
	d := &Demand{NumGPUs: n, Alpha: 0, Beta: 1, Pieces: []Piece{{ID: 0, Bytes: 1, Srcs: []int{0}}}}
	for g := 1; g < n; g++ {
		d.Pieces[0].Dsts = append(d.Pieces[0].Dsts, g)
	}
	return d
}

func allGatherDemand(n int) *Demand {
	d := &Demand{NumGPUs: n, Alpha: 0, Beta: 1}
	for g := 0; g < n; g++ {
		p := Piece{ID: g, Bytes: 1, Srcs: []int{g}}
		for o := 0; o < n; o++ {
			if o != g {
				p.Dsts = append(p.Dsts, o)
			}
		}
		d.Pieces = append(d.Pieces, p)
	}
	return d
}

func TestDeriveTau(t *testing.T) {
	alpha, beta, bytes := 1e-6, 1e-9, 1e6 // βs = 1e-3 ≫ α
	coarse := DeriveTau(alpha, beta, bytes, 3.0)
	fine := DeriveTau(alpha, beta, bytes, 0.5)
	if coarse <= fine {
		t.Errorf("E=3 tau %g not coarser than E=0.5 tau %g", coarse, fine)
	}
	// τ must be an admissible multiple of β·s.
	for _, tau := range []float64{coarse, fine} {
		r := tau / (beta * bytes)
		ri := math.Round(r)
		inv := math.Round(1 / r)
		if math.Abs(r-ri) > 1e-9 && math.Abs(1/r-inv) > 1e-9 {
			t.Errorf("tau %g gives r=%g: neither r nor 1/r integral", tau, r)
		}
	}
}

func TestDeriveTauLatencyDominated(t *testing.T) {
	// α ≫ β·s: τ should grow to cover the latency (large r).
	tau := DeriveTau(1e-3, 1e-9, 1e3, 1.0)
	if tau < 1e-9*1e3 {
		t.Errorf("tau %g below β·s", tau)
	}
	r := tau / (1e-9 * 1e3)
	if r < 1 {
		t.Errorf("latency-dominated case picked r=%g < 1", r)
	}
}

func TestGreedyBroadcastBinomial(t *testing.T) {
	// With span=lat=1, optimal broadcast to n-1 peers takes ⌈log2 n⌉
	// rounds; earliest-finish greedy achieves it.
	for _, n := range []int{2, 4, 8} {
		d := broadcastDemand(n)
		s, err := Solve(d, Options{Engine: EngineGreedy, E: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckSolution(d, s); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want := int(math.Ceil(math.Log2(float64(n))))
		if s.Epochs != want {
			t.Errorf("n=%d: %d epochs, want %d", n, s.Epochs, want)
		}
		if len(s.Transfers) != n-1 {
			t.Errorf("n=%d: %d transfers, want %d", n, len(s.Transfers), n-1)
		}
	}
}

func TestGreedyAllGatherOptimal(t *testing.T) {
	// AllGather in an n-clique with span=lat=1 needs exactly n-1 rounds
	// (each ingress must take n-1 deliveries).
	for _, n := range []int{3, 4, 6} {
		d := allGatherDemand(n)
		s, err := Solve(d, Options{Engine: EngineGreedy, E: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckSolution(d, s); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if s.Epochs != n-1 {
			t.Errorf("n=%d: %d epochs, want %d", n, s.Epochs, n-1)
		}
	}
}

func TestExactBroadcastMatchesLowerBound(t *testing.T) {
	for _, n := range []int{3, 4, 5, 6} {
		d := broadcastDemand(n)
		s, err := Solve(d, Options{Engine: EngineExact, E: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckSolution(d, s); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want := int(math.Ceil(math.Log2(float64(n))))
		if s.Epochs != want {
			t.Errorf("n=%d: exact %d epochs, want %d", n, s.Epochs, want)
		}
	}
}

func TestExactWithLatency(t *testing.T) {
	// α = β·s: lat=2·span. Broadcast to 3 peers: optimal is
	// 0→1 @0 (arrive 2), 0→2 @1 (arrive 3), then {0→3 @2 / 1→3 @2}
	// → 4 epochs; the flat fan-out 0→1,0→2,0→3 also ends at 2+... start
	// 2, arrive 4. Optimum 4.
	d := &Demand{NumGPUs: 4, Alpha: 1, Beta: 1, Pieces: []Piece{{ID: 0, Bytes: 1, Srcs: []int{0}, Dsts: []int{1, 2, 3}}}}
	s, err := exactSolve(context.Background(), d, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckSolution(d, s); err != nil {
		t.Fatal(err)
	}
	if s.Epochs != 4 {
		t.Errorf("epochs = %d, want 4", s.Epochs)
	}
}

func TestExactNeverWorseThanGreedy(t *testing.T) {
	demands := []*Demand{
		broadcastDemand(5),
		allGatherDemand(4),
		{ // scatter: root 0 sends distinct pieces to 1..3
			NumGPUs: 4, Alpha: 0.5, Beta: 1,
			Pieces: []Piece{
				{ID: 0, Bytes: 1, Srcs: []int{0}, Dsts: []int{1}},
				{ID: 1, Bytes: 1, Srcs: []int{0}, Dsts: []int{2}},
				{ID: 2, Bytes: 1, Srcs: []int{0}, Dsts: []int{3}},
			},
		},
	}
	for i, d := range demands {
		g, err := Solve(d, Options{Engine: EngineGreedy, E: 1})
		if err != nil {
			t.Fatal(err)
		}
		e, err := Solve(d, Options{Engine: EngineExact, E: 1})
		if err != nil {
			t.Fatal(err)
		}
		if e.Epochs > g.Epochs {
			t.Errorf("demand %d: exact %d epochs worse than greedy %d", i, e.Epochs, g.Epochs)
		}
		if err := CheckSolution(d, e); err != nil {
			t.Errorf("demand %d: %v", i, err)
		}
	}
}

func TestAutoFallsBackWhenTooLarge(t *testing.T) {
	d := allGatherDemand(8) // 8 pieces × 8×7 links = 448 binaries per epoch, over the gate
	d.Pieces[0].Bytes = 2   // break the uniform shape so no fast path fires
	opts := Options{Engine: EngineAuto, E: 1}
	s, err := Solve(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s.Engine != "greedy" {
		t.Errorf("engine = %q, want greedy", s.Engine)
	}
	if want := greedySolve(d, opts.TauFor(d)); !reflect.DeepEqual(s.Transfers, want.Transfers) {
		t.Errorf("over-gate transfers differ from greedySolve's:\n got %+v\nwant %+v", s.Transfers, want.Transfers)
	}
	if err := CheckSolution(d, s); err != nil {
		t.Fatal(err)
	}
}

func TestRotationFastPath(t *testing.T) {
	// Uniform broadcast bundle: k pieces per source, every piece to all
	// others → rotation schedule with k·(n-1) rounds.
	n, k := 4, 2
	d := &Demand{NumGPUs: n, Alpha: 0, Beta: 1}
	for src := 0; src < n; src++ {
		for j := 0; j < k; j++ {
			p := Piece{ID: len(d.Pieces), Bytes: 1, Srcs: []int{src}}
			for o := 0; o < n; o++ {
				if o != src {
					p.Dsts = append(p.Dsts, o)
				}
			}
			d.Pieces = append(d.Pieces, p)
		}
	}
	s, err := Solve(d, Options{Engine: EngineGreedy, E: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Engine != "rotation" {
		t.Errorf("engine = %q, want rotation", s.Engine)
	}
	if s.Epochs != k*(n-1) {
		t.Errorf("epochs = %d, want %d", s.Epochs, k*(n-1))
	}
	if err := CheckSolution(d, s); err != nil {
		t.Fatal(err)
	}
}

func TestFirstFitFastPath(t *testing.T) {
	// Large point-to-point bundle: full n×n pairwise exchange with
	// enough repetitions to exceed the fast-path threshold.
	n := 8
	d := &Demand{NumGPUs: n, Alpha: 0, Beta: 1}
	reps := 40 // 8·7·40 = 2240 deliveries, past the fast-path threshold
	for r := 0; r < reps; r++ {
		for s := 0; s < n; s++ {
			for dd := 0; dd < n; dd++ {
				if s != dd {
					d.Pieces = append(d.Pieces, Piece{ID: len(d.Pieces), Bytes: 1, Srcs: []int{s}, Dsts: []int{dd}})
				}
			}
		}
	}
	s, err := Solve(d, Options{Engine: EngineGreedy, E: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Engine != "flatten" {
		t.Errorf("engine = %q, want flatten", s.Engine)
	}
	// Perfect matching waves: exactly reps·(n-1) epochs.
	if s.Epochs != reps*(n-1) {
		t.Errorf("epochs = %d, want %d", s.Epochs, reps*(n-1))
	}
	if err := CheckSolution(d, s); err != nil {
		t.Fatal(err)
	}
}

func TestMultiSourcePiece(t *testing.T) {
	// Piece held by 0 and 2; destinations 1 and 3 can fetch in parallel
	// → 1 epoch.
	d := &Demand{NumGPUs: 4, Alpha: 0, Beta: 1, Pieces: []Piece{{ID: 0, Bytes: 1, Srcs: []int{0, 2}, Dsts: []int{1, 3}}}}
	s, err := Solve(d, Options{Engine: EngineGreedy, E: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Epochs != 1 {
		t.Errorf("epochs = %d, want 1", s.Epochs)
	}
	if err := CheckSolution(d, s); err != nil {
		t.Fatal(err)
	}
}

func TestDemandValidate(t *testing.T) {
	bad := &Demand{NumGPUs: 1, Beta: 1}
	if bad.Validate() == nil {
		t.Error("accepted 1-GPU demand")
	}
	bad2 := &Demand{NumGPUs: 4, Beta: 1, Pieces: []Piece{{Bytes: 1, Dsts: []int{1}}}}
	if bad2.Validate() == nil {
		t.Error("accepted sourceless piece")
	}
	bad3 := &Demand{NumGPUs: 4, Beta: 1, Pieces: []Piece{{Bytes: 1, Srcs: []int{0}, Dsts: []int{0}}}}
	if bad3.Validate() == nil {
		t.Error("accepted destination that already holds the piece")
	}
}

func TestCheckSolutionCatchesViolations(t *testing.T) {
	d := broadcastDemand(3)
	// Missing delivery to GPU 2.
	s := &SubSchedule{Tau: 1, Epochs: 1, Transfers: []Transfer{{Src: 0, Dst: 1, Piece: 0, Start: 0, Arrive: 1}}}
	if CheckSolution(d, s) == nil {
		t.Error("accepted missing delivery")
	}
	// Double-booked egress.
	s2 := &SubSchedule{Tau: 1, Epochs: 1, Transfers: []Transfer{
		{Src: 0, Dst: 1, Piece: 0, Start: 0, Arrive: 1},
		{Src: 0, Dst: 2, Piece: 0, Start: 0, Arrive: 1},
	}}
	if CheckSolution(d, s2) == nil {
		t.Error("accepted double-booked port")
	}
	// Send before receive.
	s3 := &SubSchedule{Tau: 1, Epochs: 2, Transfers: []Transfer{
		{Src: 1, Dst: 2, Piece: 0, Start: 0, Arrive: 1},
		{Src: 0, Dst: 1, Piece: 0, Start: 1, Arrive: 2},
	}}
	if CheckSolution(d, s3) == nil {
		t.Error("accepted availability violation")
	}
}

func TestMakespanSeconds(t *testing.T) {
	s := &SubSchedule{Tau: 0.25, Epochs: 8}
	if s.Makespan() != 2 {
		t.Errorf("makespan %g", s.Makespan())
	}
}

// TestFingerprintCoversEveryOption walks solve.Options by reflection:
// every field but Span is keyed (all steer the solve except Seed, which
// Options documents), so perturbing it must move the fingerprint, or two
// different solves would answer for each other in the engine's caches
// and the persist corpus. Spelled-out defaults and a Span must not move
// it.
func TestFingerprintCoversEveryOption(t *testing.T) {
	base := Options{}.Fingerprint()
	typ := reflect.TypeOf(Options{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		var o Options
		switch f := reflect.ValueOf(&o).Elem().Field(i); f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(2)
		case reflect.Float64:
			f.SetFloat(1.5)
		case reflect.Bool:
			f.SetBool(true)
		default:
			if name != "Span" {
				t.Errorf("%s: the test cannot perturb this kind of field; teach it", name)
			}
			continue
		}
		if o.Fingerprint() == base {
			t.Errorf("Options.%s steers the solve but not Fingerprint", name)
		}
	}
	rec := obs.NewRecorder()
	for _, o := range []Options{{E: 0.5}, {Span: rec.StartSpan("solve")}} {
		if got := o.Fingerprint(); got != base {
			t.Errorf("%+v renders %q, want the defaults' %q", o, got, base)
		}
	}
}

func TestEngineString(t *testing.T) {
	if EngineAuto.String() != "auto" || EngineExact.String() != "exact" ||
		EngineGreedy.String() != "greedy" || EngineFlow.String() != "flow" || Engine(4).String() != "unknown" {
		t.Error("engine strings wrong")
	}
}
