package core

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"syccl/internal/collective"
	"syccl/internal/schedule"
	"syccl/internal/topology"
)

var updateDigests = flag.Bool("update", false, "regenerate testdata/cold_digests.json from this tree")

const coldDigestFile = "testdata/cold_digests.json"

// coldDigest pins one cold Synthesize: the FNV-1a digest of every schedule
// byte, the bits of the predicted time, the transfer count and the solver
// calls. The 64-bit fields are hex text, since JSON numbers are doubles.
type coldDigest struct {
	Schedule    string `json:"schedule"`
	TimeBits    string `json:"time_bits"`
	Transfers   int    `json:"transfers"`
	SolverCalls int    `json:"solver_calls"`
}

func digestOf(res *Result) coldDigest {
	return coldDigest{
		Schedule:    strconv.FormatUint(scheduleBytesDigest(res.Schedule), 16),
		TimeBits:    strconv.FormatUint(math.Float64bits(res.Time), 16),
		Transfers:   len(res.Schedule.Transfers),
		SolverCalls: res.Stats.SolverCalls,
	}
}

// scheduleBytesDigest folds every field of the schedule, in order, into
// one FNV-1a word.
func scheduleBytesDigest(s *schedule.Schedule) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	num := func(v int) { put(uint64(int64(v))) }
	num(s.NumGPUs)
	num(len(s.Pieces))
	for i := range s.Pieces {
		p := &s.Pieces[i]
		put(math.Float64bits(p.Bytes))
		num(len(p.Chunks))
		for _, c := range p.Chunks {
			num(c)
		}
	}
	num(len(s.Transfers))
	for i := range s.Transfers {
		t := &s.Transfers[i]
		num(t.Src)
		num(t.Dst)
		num(t.Piece)
		num(t.Dim)
		num(t.Order)
		num(len(t.Deps))
		for _, d := range t.Deps {
			num(d)
		}
	}
	return h.Sum64()
}

// digestCase parses "topology:collective:size" in the vocabulary of
// internal/cli (which imports this package, so its parsers are mirrored
// here for the specs the table uses).
func digestCase(t testing.TB, spec string) (*topology.Topology, *collective.Collective) {
	t.Helper()
	parts := strings.Split(spec, ":")
	if len(parts) != 3 {
		t.Fatalf("case %q: want topology:collective:size", spec)
	}
	var top *topology.Topology
	switch parts[0] {
	case "dgx4":
		top = topology.SingleServer(4)
	case "server8":
		top = topology.SingleServer(8)
	case "a100x16":
		top = topology.A100Clos(2)
	case "h800small":
		top = topology.H800Small(6)
	case "h800x64":
		top = topology.H800Rail(8)
	case "h800x512":
		top = topology.H800Rail(64)
	default:
		t.Fatalf("case %q: unknown topology", spec)
	}
	var bytes float64
	switch parts[2] {
	case "1M":
		bytes = 1 << 20
	case "64M":
		bytes = 64 << 20
	case "1G":
		bytes = 1 << 30
	default:
		t.Fatalf("case %q: unknown size", spec)
	}
	n := top.NumGPUs()
	var col *collective.Collective
	switch parts[1] {
	case "allgather":
		col = collective.AllGather(n, bytes/float64(n))
	case "reducescatter":
		col = collective.ReduceScatter(n, bytes/float64(n))
	case "alltoall":
		col = collective.AlltoAll(n, bytes/float64(n*(n-1)))
	case "allreduce":
		col = collective.AllReduce(n, bytes)
	case "broadcast":
		col = collective.Broadcast(n, 0, bytes)
	case "reduce":
		col = collective.Reduce(n, 0, bytes)
	case "scatter":
		col = collective.Scatter(n, 0, bytes/float64(n-1))
	case "gather":
		col = collective.Gather(n, 0, bytes/float64(n-1))
	case "sendrecv":
		col = collective.SendRecv(n, 0, n-1, bytes)
	default:
		t.Fatalf("case %q: unknown collective", spec)
	}
	return top, col
}

// coldDigestSpecs is the pinned matrix: the nine collectives on the
// paper's small fabrics at a latency-bound and a bandwidth-bound size,
// plus the two 64-GPU cases the benchmark times.
func coldDigestSpecs() []string {
	var specs []string
	for _, topo := range []string{"dgx4", "server8", "a100x16", "h800small"} {
		for _, coll := range []string{"allgather", "reducescatter", "alltoall", "allreduce",
			"broadcast", "reduce", "scatter", "gather", "sendrecv"} {
			for _, size := range []string{"1M", "64M"} {
				specs = append(specs, topo+":"+coll+":"+size)
			}
		}
	}
	return append(specs, "h800x64:allgather:64M", "h800x64:alltoall:64M")
}

// scale512Spec is pinned at the defaults, like the matrix, but checked by
// TestScale512 (scale512_test.go) and only outside -short.
const scale512Spec = "h800x512:allgather:1G"

func loadColdDigests(t testing.TB) map[string]coldDigest {
	t.Helper()
	raw, err := os.ReadFile(coldDigestFile)
	if err != nil {
		t.Fatalf("%v (go test ./internal/core -run TestColdScheduleDigests -update writes it)", err)
	}
	table := map[string]coldDigest{}
	if err := json.Unmarshal(raw, &table); err != nil {
		t.Fatalf("%s: %v", coldDigestFile, err)
	}
	return table
}

// TestColdScheduleDigests is the byte-identity proof a perf change to the
// cold pipeline rides on: the table is generated at the parent commit
// (-update) and every case must reproduce it at Workers 1 and 4.
func TestColdScheduleDigests(t *testing.T) {
	specs := coldDigestSpecs()
	if *updateDigests {
		if testing.Short() {
			t.Fatal("-update writes the whole table, the 512-GPU entry included: run it without -short")
		}
		table := map[string]coldDigest{}
		for _, spec := range specs {
			top, col := digestCase(t, spec)
			table[spec] = digestOf(synth(t, top, col, Options{Workers: 1}))
		}
		top, col := digestCase(t, scale512Spec)
		table[scale512Spec] = digestOf(synth(t, top, col, Options{Workers: 1}))
		raw, err := json.MarshalIndent(table, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(coldDigestFile, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(table), coldDigestFile)
	}
	table := loadColdDigests(t)
	if testing.Short() {
		specs = specs[:36] // dgx4 and server8
	}
	for _, spec := range specs {
		want, ok := table[spec]
		if !ok {
			t.Errorf("%s: not in %s", spec, coldDigestFile)
			continue
		}
		top, col := digestCase(t, spec)
		for _, workers := range []int{1, 4} {
			if got := digestOf(synth(t, top, col, Options{Workers: workers})); got != want {
				t.Errorf("%s workers=%d: %s", spec, workers, fmt.Sprintf("got %+v, pinned %+v", got, want))
			}
		}
	}
}
