package cluster

import (
	"reflect"
	"testing"

	"clustersim/internal/faults"
	"clustersim/internal/netmodel"
	"clustersim/internal/simtime"
	"clustersim/internal/workloads"
)

// A nil plan and an empty (fault-free) plan must produce identical results:
// the fault branches are pure pass-throughs when nothing is configured.
func TestNilAndEmptyPlanIdentical(t *testing.T) {
	cfg := testConfig(3, workloads.PingPong(20, 1000), fixed(100*simtime.Microsecond))
	cfg.TracePackets = true
	cfg.TraceQuanta = true
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = &faults.Plan{Seed: 99}
	withEmpty, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, withEmpty) {
		t.Errorf("empty plan changed the result:\n%+v\n%+v", base.Stats, withEmpty.Stats)
	}
}

// Straggler snap-to-boundary semantics under duplication: with Dup == 1 and
// no jitter, every frame is delivered twice at identical ideal arrival
// times, so each copy must be classified identically — Deliveries,
// Stragglers, QuantumSnaps, and StragglerDelay all exactly double while
// Packets (frames routed) stays put.
func TestSnapSemanticsUnderDuplication(t *testing.T) {
	cfg := testConfig(2, workloads.PingPong(30, 1000), fixed(200*simtime.Microsecond))
	cfg.TracePackets = true
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if base.Stats.Stragglers == 0 || base.Stats.QuantumSnaps == 0 {
		t.Fatalf("premise: PingPong at Q=200µs should produce snapped stragglers, got %+v", base.Stats)
	}

	cfg.Faults = &faults.Plan{Seed: 1, Default: faults.Link{Dup: 1}}
	dup, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, b := dup.Stats, base.Stats
	if s.Packets != b.Packets {
		t.Errorf("Packets changed under duplication: %d vs %d", s.Packets, b.Packets)
	}
	if s.Duplicated != b.Packets {
		t.Errorf("Duplicated = %d, want one per routed frame (%d)", s.Duplicated, b.Packets)
	}
	if s.Deliveries != 2*b.Deliveries {
		t.Errorf("Deliveries = %d, want double %d", s.Deliveries, b.Deliveries)
	}
	if s.Stragglers != 2*b.Stragglers {
		t.Errorf("Stragglers = %d, want double %d: each duplicate copy must count", s.Stragglers, b.Stragglers)
	}
	if s.QuantumSnaps != 2*b.QuantumSnaps {
		t.Errorf("QuantumSnaps = %d, want double %d", s.QuantumSnaps, b.QuantumSnaps)
	}
	if s.StragglerDelay != 2*b.StragglerDelay {
		t.Errorf("StragglerDelay = %v, want double %v", s.StragglerDelay, b.StragglerDelay)
	}

	// The packet trace must corroborate the aggregates copy by copy.
	stragglers, dups, delay := 0, 0, simtime.Duration(0)
	for _, p := range dup.Packets {
		if p.Duplicate {
			dups++
		}
		if p.Straggler {
			stragglers++
			delay += p.Arrival.Sub(p.Ideal)
		}
	}
	if stragglers != s.Stragglers || delay != s.StragglerDelay {
		t.Errorf("trace says %d stragglers / %v delay, stats say %d / %v",
			stragglers, delay, s.Stragglers, s.StragglerDelay)
	}
	if dups != s.Duplicated {
		t.Errorf("trace says %d duplicate copies, stats say %d", dups, s.Duplicated)
	}
}

// Dropped frames must not count as stragglers or deliveries — but they must
// still count toward the quantum's packet count so Algorithm 1's np==0 test
// sees the (lost) traffic.
func TestDropsDontCountAsStragglers(t *testing.T) {
	cfg := testConfig(4, workloads.Uniform(60, 1500, 20*simtime.Microsecond, 23), fixed(100*simtime.Microsecond))
	cfg.TraceQuanta = true
	cfg.Faults = &faults.Plan{Default: faults.Link{
		Down: []faults.Window{{Start: 0, End: simtime.GuestInfinity}},
	}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.Packets == 0 {
		t.Fatal("premise: the workload should have routed frames")
	}
	if s.Dropped != s.Packets {
		t.Errorf("Dropped = %d, want every routed frame (%d)", s.Dropped, s.Packets)
	}
	if s.Deliveries != 0 || s.Stragglers != 0 || s.QuantumSnaps != 0 || s.StragglerDelay != 0 || s.Exact != 0 {
		t.Errorf("dropped frames leaked into delivery stats: %+v", s)
	}
	// Quanta that carried only dropped frames still report their traffic.
	sawDroppedTraffic := false
	for _, q := range res.Quanta {
		if q.Packets > 0 {
			sawDroppedTraffic = true
		}
	}
	if !sawDroppedTraffic {
		t.Error("no quantum reported the dropped frames in Packets: Algorithm 1 would see np==0")
	}
}

// Identical configs with identical fault seeds replay bit-identically;
// changing only the seed redraws the outcomes.
func TestFaultSeedReplay(t *testing.T) {
	mk := func(seed uint64) *Result {
		cfg := testConfig(4, workloads.Uniform(60, 1500, 20*simtime.Microsecond, 23), fixed(100*simtime.Microsecond))
		cfg.TracePackets = true
		cfg.Faults = &faults.Plan{Seed: seed, Default: faults.Link{Loss: 0.3, Dup: 0.1, Jitter: 2 * simtime.Microsecond}}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := mk(5), mk(5)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed did not replay bit-identically")
	}
	c := mk(6)
	if a.Stats.Dropped == c.Stats.Dropped && a.Stats.Duplicated == c.Stats.Duplicated {
		t.Errorf("different seeds produced identical fault counts: %+v vs %+v", a.Stats, c.Stats)
	}
}

// Per-node slowdown at ground truth (Q <= T: no stragglers, so guest
// behaviour is unchanged) scales host costs exactly: factor 2 on every node
// doubles HostBusy and HostIdle.
func TestSlowdownScalesHostCosts(t *testing.T) {
	for _, st := range []strategy{reference, production} {
		cfg := testConfig(2, workloads.PingPong(20, 1000), fixed(simtime.Microsecond))
		base, err := st.run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = &faults.Plan{NodeSlowdown: map[int]float64{0: 2, 1: 2}}
		slow, err := st.run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if slow.GuestTime != base.GuestTime {
			t.Errorf("%s: slowdown changed guest time: %v vs %v", st.name, slow.GuestTime, base.GuestTime)
		}
		if slow.Stats.HostBusy != 2*base.Stats.HostBusy {
			t.Errorf("%s: HostBusy = %v, want double %v", st.name, slow.Stats.HostBusy, base.Stats.HostBusy)
		}
		if slow.Stats.HostIdle != 2*base.Stats.HostIdle {
			t.Errorf("%s: HostIdle = %v, want double %v", st.name, slow.Stats.HostIdle, base.Stats.HostIdle)
		}
	}
}

// The full-engagement lookahead bound must be exactly netmodel.MinLatency
// in both lookahead modes — scalar probes it directly, matrix derives it as
// the matrix minimum. Output-queue models are excluded from the fast path
// before the probe, so the exclusion is structural, not a bound disagreement.
func TestFastPathBoundMatchesMinLatency(t *testing.T) {
	models := map[string]*netmodel.Model{
		"paper": netmodel.Paper(),
		"serialization": {
			NIC:    &netmodel.SimpleNIC{BaseLatency: simtime.Microsecond, BytesPerSecond: 1e9},
			Switch: &netmodel.StoreAndForwardSwitch{BytesPerSecond: 1e9},
		},
	}
	for name, m := range models {
		for _, mode := range []LookaheadMode{LookaheadMatrix, LookaheadScalar} {
			cfg := testConfig(4, workloads.Silent(10*simtime.Microsecond), fixed(simtime.Microsecond))
			cfg.Net = m
			cfg.Lookahead = mode
			c := newController(cfg.Net, nil, cfg.Nodes, mode, &Stats{})
			if want := m.MinLatency(cfg.Nodes); c.eligLat != want {
				t.Errorf("%s/mode=%d: fast-path bound %v != MinLatency %v", name, mode, c.eligLat, want)
			}
			if wantLA := mode == LookaheadMatrix; (c.la != nil) != wantLA {
				t.Errorf("%s/mode=%d: lookahead matrix present = %v, want %v", name, mode, c.la != nil, wantLA)
			}
		}
	}

	// With an OutputQueue every quantum is one tight partition.
	out := netmodel.Paper()
	out.Output = &netmodel.OutputQueue{}
	cfg := testConfig(4, workloads.Silent(10*simtime.Microsecond), fixed(simtime.Microsecond))
	cfg.Net = out
	c := newController(cfg.Net, nil, cfg.Nodes, LookaheadMatrix, &Stats{})
	if c.eligLat != 0 || c.la != nil {
		t.Errorf("OutputQueue model engaged the fast path with bound %v (la=%v)", c.eligLat, c.la != nil)
	}
}

// Zero-cost-when-disabled benchmark pair: the nil-plan run is the baseline
// every PR must hold; the active-plan run prices the fault machinery.
func benchFaultRun(b *testing.B, plan *faults.Plan) {
	cfg := testConfig(4, workloads.Phases(3, 150*simtime.Microsecond, 16<<10), fixed(100*simtime.Microsecond))
	cfg.Faults = plan
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFaultsNilPlan(b *testing.B) { benchFaultRun(b, nil) }

func BenchmarkFaultsActivePlan(b *testing.B) {
	// Duplication and jitter, not loss: the Phases workload's collectives
	// block forever on a dropped frame (lossy runs need the reliable
	// transport), and drop-free plans still price every Decide branch.
	benchFaultRun(b, &faults.Plan{Seed: 7, Default: faults.Link{Dup: 0.02, Jitter: simtime.Microsecond}})
}
