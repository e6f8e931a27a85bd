package cli

import (
	"flag"
	"io"
	"strings"
	"testing"
	"time"

	"syccl/internal/collective"
)

func newSynth(t *testing.T, args ...string) (*SynthFlags, error) {
	t.Helper()
	fs := flag.NewFlagSet("syccl-synth", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := NewSynthFlags(fs)
	return f, fs.Parse(args)
}

func newSim(t *testing.T, args ...string) (*SimFlags, error) {
	t.Helper()
	fs := flag.NewFlagSet("syccl-sim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := NewSimFlags(fs)
	return f, fs.Parse(args)
}

func TestSynthFlagsDefaults(t *testing.T) {
	f, err := newSynth(t)
	if err != nil {
		t.Fatal(err)
	}
	if f.Topo != "a100x16" || f.Collective != "allgather" || f.Size != "64M" ||
		f.System != "syccl" || f.E1 != 3.0 || f.E2 != 0.5 ||
		f.Budget != 10*time.Second {
		t.Fatalf("defaults: %+v", f)
	}
	top, col, err := f.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if top.NumGPUs() != 16 || col.Kind != collective.KindAllGather {
		t.Fatalf("resolved %s / %v", top.Name, col.Kind)
	}
}

func TestSynthFlagsCollAlias(t *testing.T) {
	f, err := newSynth(t, "-coll", "alltoall")
	if err != nil {
		t.Fatal(err)
	}
	if f.Collective != "alltoall" {
		t.Fatalf("-coll alias: Collective = %q", f.Collective)
	}
	f, err = newSynth(t, "-collective", "reduce")
	if err != nil {
		t.Fatal(err)
	}
	if f.Collective != "reduce" {
		t.Fatalf("-collective: %q", f.Collective)
	}
}

func TestSynthFlagsTimeout(t *testing.T) {
	f, err := newSynth(t)
	if err != nil {
		t.Fatal(err)
	}
	if f.Timeout != 0 {
		t.Fatalf("default -timeout = %v, want 0 (no limit)", f.Timeout)
	}
	f, err = newSynth(t, "-timeout", "750ms")
	if err != nil {
		t.Fatal(err)
	}
	if f.Timeout != 750*time.Millisecond {
		t.Fatalf("-timeout 750ms parsed as %v", f.Timeout)
	}
	if _, err = newSynth(t, "-timeout", "banana"); err == nil {
		t.Fatal("malformed -timeout accepted")
	}
}

func TestSynthFlagsTrace(t *testing.T) {
	f, err := newSynth(t, "-trace", "run.json", "-obs-summary")
	if err != nil {
		t.Fatal(err)
	}
	if f.TracePath != "run.json" || !f.Summary {
		t.Fatalf("trace flags: %+v", f)
	}
}

func TestSynthFlagsErrorPaths(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-topo", "nonsense"}, "unknown topology"},
		{[]string{"-coll", "nope"}, "unknown collective"},
		{[]string{"-size", "banana"}, "bad size"},
		{[]string{"-system", "magic"}, "unknown system"},
	}
	for _, c := range cases {
		f, err := newSynth(t, c.args...)
		if err != nil {
			t.Fatalf("%v: parse: %v", c.args, err)
		}
		_, _, err = f.Resolve()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: err = %v, want %q", c.args, err, c.want)
		}
	}
}

func TestSimFlagsResolve(t *testing.T) {
	f, err := newSim(t, "-xml", "s.xml", "-topo", "h800small", "-coll", "allreduce", "-size", "1M", "-trace", "out.json")
	if err != nil {
		t.Fatal(err)
	}
	top, col, err := f.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if top.NumGPUs() != 24 || col == nil || col.Kind != collective.KindAllReduce {
		t.Fatalf("resolved %s / %v", top.Name, col)
	}
	if f.TracePath != "out.json" {
		t.Fatalf("TracePath = %q", f.TracePath)
	}
}

func TestSimFlagsOptionalCollective(t *testing.T) {
	// Without both -collective and -size no validation collective resolves.
	f, err := newSim(t, "-xml", "s.xml", "-coll", "allgather")
	if err != nil {
		t.Fatal(err)
	}
	_, col, err := f.Resolve()
	if err != nil || col != nil {
		t.Fatalf("col = %v, err = %v", col, err)
	}
}

func TestSimFlagsErrorPaths(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{nil, "-xml is required"},
		{[]string{"-xml", "s.xml", "-topo", "bogus"}, "unknown topology"},
		{[]string{"-xml", "s.xml", "-coll", "bogus", "-size", "1M"}, "unknown collective"},
		{[]string{"-xml", "s.xml", "-coll", "allgather", "-size", "junk"}, "bad size"},
	}
	for _, c := range cases {
		f, err := newSim(t, c.args...)
		if err != nil {
			t.Fatalf("%v: parse: %v", c.args, err)
		}
		_, _, err = f.Resolve()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: err = %v, want %q", c.args, err, c.want)
		}
	}
}
