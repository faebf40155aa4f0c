package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"

	"clustersim/internal/rng"
)

func TestLayerOf(t *testing.T) {
	cases := []struct {
		name  string
		stack []string // leaf first
		want  string
	}{
		{"innermost internal frame wins", []string{
			"clustersim/internal/eventq.(*Queue).Pop",
			"clustersim/internal/cluster.(*engine).run",
			"clustersim/internal/cluster.Run",
		}, "eventq"},
		{"stdlib math inherits its caller", []string{
			"math.Exp",
			"clustersim/internal/host.(*Model).draw",
			"clustersim/internal/host.(*Model).HostCost",
			"clustersim/internal/cluster.(*engine).hostCost",
		}, "host"},
		{"gc background worker", []string{
			"runtime.scanobject",
			"runtime.gcDrain",
			"runtime.gcBgMarkWorker",
		}, "runtime"},
		{"gc assist under program code", []string{
			"runtime.gcAssistAlloc",
			"runtime.mallocgc",
			"clustersim/internal/msg.(*Endpoint).Send",
		}, "runtime"},
		{"allocation charged to its caller", []string{
			"runtime.mallocgc",
			"runtime.growslice",
			"clustersim/internal/msg.(*Endpoint).Send",
		}, "msg"},
		{"coroutine switch inside the guest", []string{
			"runtime.coroswitch_m",
			"runtime.mcall",
			"runtime.coroswitch",
			"iter.Pull[...].func1",
			"clustersim/internal/guest.(*Node).Step",
		}, "guest"},
		{"routing closure", []string{
			"clustersim/internal/cluster.(*engine).sendFrame.func1",
			"clustersim/internal/cluster.(*engine).dispatch",
		}, "cluster.route"},
		{"quantum walk", []string{
			"clustersim/internal/cluster.(*engine).stepNode",
			"clustersim/internal/cluster.(*engine).dispatch",
		}, "cluster.walk"},
		{"benchmark hook before the engine", []string{
			"time.Now",
			"main.(*tracer).QuantumEnd",
			"clustersim/internal/cluster.(*engine).recordQuantum",
		}, "other"},
		{"nested internal package", []string{
			"clustersim/internal/analysis/framework.Run",
		}, "analysis"},
		{"scheduler only", []string{"runtime.findRunnable", "runtime.schedule", "runtime.mstart"}, "runtime"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("%s: layerOf = %q, want %q", c.name, got, c.want)
		}
	}
}

// TestLayerSamplesDecodesProfile profiles a loop in package rng and checks
// the decoder charges its samples there, inlined frames included.
func TestLayerSamplesDecodesProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	s := rng.New(1)
	var sink float64
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			sink += s.Exp(1)
		}
	}
	pprof.StopCPUProfile()
	counts, err := layerSamples(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, v := range counts {
		total += v
	}
	if total == 0 {
		t.Skip("no CPU samples taken")
	}
	// The loop runs only rng code; the rest is the runtime (the race
	// detector's, under -race).
	if counts["rng"] == 0 || counts["rng"]+counts["runtime"] != total {
		t.Errorf("samples %v, want only rng and runtime; sink %v", counts, sink)
	}
}

func TestLayerSamplesRejectsGarbage(t *testing.T) {
	if _, err := layerSamples([]byte("not a profile")); err == nil {
		t.Error("want an error for input that is not gzip")
	}
}

func TestTailOf(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i) // descending: tailOf must sort
		}
		return v
	}
	for _, c := range []struct {
		n          int
		value, pct float64
	}{
		{100, 90, 90}, {20, 10, 50}, {11, 1, 100.0 / 11}, {5, 5, 100},
	} {
		v, p := tailOf(seq(c.n))
		if v != c.value || p != c.pct {
			t.Errorf("tailOf(1..%d) = %v at p%v, want %v at p%v", c.n, v, p, c.value, c.pct)
		}
	}
}
