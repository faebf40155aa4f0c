package cluster

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"clustersim/internal/faults"
	"clustersim/internal/netmodel"
	"clustersim/internal/obs"
	"clustersim/internal/quantum"
	"clustersim/internal/simtime"
	"clustersim/internal/workloads"
)

// recorder captures the full observer stream for equality checks.
type recorder struct {
	events []string
}

func (r *recorder) RunStart(i obs.RunInfo)  { r.events = append(r.events, fmt.Sprintf("start %+v", i)) }
func (r *recorder) RunEnd(s obs.RunSummary) { r.events = append(r.events, fmt.Sprintf("end %+v", s)) }
func (r *recorder) QuantumStart(i int, start simtime.Guest, q simtime.Duration, h simtime.Host) {
	r.events = append(r.events, fmt.Sprintf("q%d %v %v %v", i, start, q, h))
}
func (r *recorder) QuantumEnd(rec obs.QuantumRecord) {
	r.events = append(r.events, fmt.Sprintf("qe %+v", rec))
}
func (r *recorder) Packet(rec obs.PacketRecord) {
	r.events = append(r.events, fmt.Sprintf("pkt %+v", rec))
}
func (r *recorder) NodePhase(node int, ph obs.Phase, g0, g1 simtime.Guest, h0, h1 simtime.Host) {
	r.events = append(r.events, fmt.Sprintf("ph n%d %v %v %v %v %v", node, ph, g0, g1, h0, h1))
}

// fastCases spans the behaviors the fast path must preserve: lockstep
// traffic with equal-arrival ties (PingPong at 2 and 4 nodes), bursty
// compute/communicate phases, seeded irregular traffic, silence, fault-plan
// loss, and an adaptive policy that moves in and out of the safe
// window mid-run.
type fastCase struct {
	name   string
	nodes  int
	w      workloads.Workload
	pol    func() quantum.Policy
	faults *faults.Plan
	// net overrides the default uniform paper fabric — non-uniform
	// topologies exercise the partitioned (graded) fast path whenever Q
	// falls between latency levels.
	net *netmodel.Model
}

func fastCases() []fastCase {
	return []fastCase{
		{name: "pingpong-2", nodes: 2, w: workloads.PingPong(30, 1000), pol: fixed(simtime.Microsecond)},
		{name: "pingpong-4", nodes: 4, w: workloads.PingPong(20, 4000), pol: fixed(simtime.Microsecond)},
		{name: "phases-4", nodes: 4, w: workloads.Phases(3, 150*simtime.Microsecond, 32<<10), pol: fixed(simtime.Microsecond)},
		{name: "phases-adaptive-5", nodes: 5, w: workloads.Phases(3, 150*simtime.Microsecond, 16<<10),
			pol: adaptive(simtime.Microsecond, simtime.Millisecond, 1.03, 0.02)},
		{name: "uniform-3", nodes: 3, w: workloads.Uniform(60, 2000, 30*simtime.Microsecond, 11), pol: fixed(simtime.Microsecond)},
		{name: "uniform-lossy-4", nodes: 4, w: workloads.Uniform(60, 1500, 20*simtime.Microsecond, 23), pol: fixed(simtime.Microsecond),
			faults: &faults.Plan{Seed: 42, Default: faults.Link{Loss: 0.3}}},
		{name: "silent-4", nodes: 4, w: workloads.Silent(300 * simtime.Microsecond), pol: fixed(simtime.Microsecond)},
		// A fault plan exercising loss, duplication, and delay jitter through
		// both engines: fault decisions are pure per-frame functions, so they
		// must not break worker invariance or fast/classic agreement.
		{name: "faulty-4", nodes: 4, w: workloads.Uniform(60, 1500, 20*simtime.Microsecond, 23), pol: fixed(simtime.Microsecond),
			faults: &faults.Plan{Seed: 7, Default: faults.Link{Loss: 0.1, Dup: 0.15, Jitter: 3 * simtime.Microsecond}}},
		// Per-node host slowdown shifts every host-time cost; results must
		// stay identical across worker counts and engine paths.
		{name: "slowdown-3", nodes: 3, w: workloads.PingPong(20, 1000), pol: fixed(simtime.Microsecond),
			faults: &faults.Plan{Seed: 3, NodeSlowdown: map[int]float64{1: 2.5}}},
		// Partitioned (graded) fast path: rack topology at a quantum between
		// the intra- and inter-rack levels — both racks tight internally,
		// loose to each other.
		{name: "rack-mid-8", nodes: 8, w: workloads.Uniform(120, 2000, 30*simtime.Microsecond, 11),
			pol: fixed(2 * simtime.Microsecond), net: rackNet()},
		// Mixed rack + WAN: one tight rack plus distant loose singletons, the
		// motivating geometry for per-link lookahead; run it clean and with a
		// fault plan, and with an adaptive policy that slides across all
		// three bands (fully loose, partial, fully tight).
		{name: "mixed-wan-8", nodes: 8, w: workloads.Uniform(120, 2000, 30*simtime.Microsecond, 17),
			pol: fixed(2 * simtime.Microsecond), net: mixedWANNet(8)},
		{name: "mixed-wan-faulty-8", nodes: 8, w: workloads.Uniform(120, 2000, 30*simtime.Microsecond, 17),
			pol: fixed(2 * simtime.Microsecond), net: mixedWANNet(8),
			faults: &faults.Plan{Seed: 9, Default: faults.Link{Loss: 0.05, Dup: 0.1, Jitter: 3 * simtime.Microsecond}}},
		{name: "mixed-wan-adaptive-8", nodes: 8, w: workloads.Uniform(120, 2000, 30*simtime.Microsecond, 19),
			pol: adaptive(simtime.Microsecond, 200*simtime.Microsecond, 1.1, 0.02), net: mixedWANNet(8)},
	}
}

// mixedWANNet puts the first four nodes in one 500ns rack and every other
// node 50µs away from everything: a tight rack plus loose WAN singletons.
func mixedWANNet(nodes int) *netmodel.Model {
	lat := make([][]simtime.Duration, nodes)
	for s := range lat {
		lat[s] = make([]simtime.Duration, nodes)
		for d := range lat[s] {
			switch {
			case s == d:
			case s < 4 && d < 4:
				lat[s][d] = 500 * simtime.Nanosecond
			default:
				lat[s][d] = 50 * simtime.Microsecond
			}
		}
	}
	m := netmodel.Paper()
	m.Switch = &netmodel.MatrixSwitch{Lat: lat}
	return m
}

// strategy is one execution strategy under test.
type strategy struct {
	name string
	run  func(Config) (*Result, error)
}

var (
	reference  = strategy{"reference", RunReference}
	production = strategy{"production", Run}
)

func runFast(t *testing.T, c fastCase, st strategy) (*Result, *recorder) {
	t.Helper()
	rec := &recorder{}
	cfg := testConfig(c.nodes, c.w, c.pol)
	if c.net != nil {
		cfg.Net = c.net
	}
	cfg.TraceQuanta = true
	cfg.TracePackets = true
	cfg.Faults = c.faults
	cfg.Observer = rec
	res, err := st.run(cfg)
	if err != nil {
		t.Errorf("%s %s: %v", c.name, st.name, err)
		return nil, rec
	}
	return res, rec
}

// The production walk's output must not depend on what else the process
// runs: a run executed alone and the same run executed concurrently with
// copies of itself (the cross-run fan-out that experiments and the fleet
// use) produce identical Results, fingerprints and byte-for-byte observer
// streams — stream order included, because everything a quantum publishes
// at the barrier is in canonical order. Run with -race, this is also the
// proof that concurrent runs share no mutable state.
func TestFastPathWorkerInvariance(t *testing.T) {
	const concurrent = 3
	for _, c := range fastCases() {
		t.Run(c.name, func(t *testing.T) {
			res1, rec1 := runFast(t, c, production)
			if res1 == nil {
				return
			}
			fp1 := Fingerprint(res1)
			results := make([]*Result, concurrent)
			recs := make([]*recorder, concurrent)
			var wg sync.WaitGroup
			for k := range results {
				wg.Add(1)
				go func(k int) {
					defer wg.Done()
					results[k], recs[k] = runFast(t, c, production)
				}(k)
			}
			wg.Wait()
			for k, resN := range results {
				if resN == nil {
					continue
				}
				if !reflect.DeepEqual(res1, resN) {
					t.Errorf("Result differs between the lone run and concurrent run %d:\n%+v\n%+v", k, res1, resN)
				}
				// The canonical fingerprint is the fleet's definition of
				// "same outcome"; it must agree with DeepEqual here.
				if fpN := Fingerprint(resN); fpN != fp1 {
					t.Errorf("fingerprint differs between the lone run and concurrent run %d: %s vs %s", k, fp1, fpN)
				}
				if !reflect.DeepEqual(rec1.events, recs[k].events) {
					t.Errorf("observer stream differs between the lone run and concurrent run %d", k)
					for i := range rec1.events {
						if i < len(recs[k].events) && rec1.events[i] != recs[k].events[i] {
							t.Errorf("first divergence at event %d:\n  %s\n  %s", i, rec1.events[i], recs[k].events[i])
							break
						}
					}
				}
			}
		})
	}
}

// sortPackets canonicalizes a packet trace for multiset comparison; the
// order is the shared canonical one the result fingerprint uses.
func sortPackets(ps []PacketRecord) []PacketRecord {
	return SortPacketsCanonical(ps)
}

// Against the reference strategy (the event-queue walk of every quantum),
// the production walk must reproduce every number: results, metrics,
// aggregate stats, and the per-quantum records. The packet trace is
// compared as a multiset — the reference interleaves deliveries in
// host-event order while the production walk routes deferred frames at the
// barrier in canonical (node, seq) order, but the recorded deliveries
// themselves are identical.
func TestFastPathMatchesClassicSemantics(t *testing.T) {
	for _, c := range fastCases() {
		t.Run(c.name, func(t *testing.T) {
			seq, _ := runFast(t, c, reference)
			par, _ := runFast(t, c, production)
			if seq == nil || par == nil {
				return
			}

			if seq.GuestTime != par.GuestTime || seq.HostTime != par.HostTime {
				t.Errorf("times differ: reference (%v,%v) production (%v,%v)",
					seq.GuestTime, seq.HostTime, par.GuestTime, par.HostTime)
			}
			if !reflect.DeepEqual(seq.NodeFinish, par.NodeFinish) {
				t.Errorf("node finish times differ:\n%v\n%v", seq.NodeFinish, par.NodeFinish)
			}
			if !reflect.DeepEqual(seq.Metrics, par.Metrics) {
				t.Errorf("metrics differ:\n%v\n%v", seq.Metrics, par.Metrics)
			}
			if seq.Stats != par.Stats {
				t.Errorf("stats differ:\nreference  %+v\nproduction %+v", seq.Stats, par.Stats)
			}
			if !reflect.DeepEqual(seq.Quanta, par.Quanta) {
				t.Error("quantum records differ")
				for i := range seq.Quanta {
					if i < len(par.Quanta) && seq.Quanta[i] != par.Quanta[i] {
						t.Errorf("first divergence at quantum %d:\n%+v\n%+v", i, seq.Quanta[i], par.Quanta[i])
						break
					}
				}
			}
			if !reflect.DeepEqual(sortPackets(seq.Packets), sortPackets(par.Packets)) {
				t.Errorf("packet traces differ as multisets (%d vs %d records)",
					len(seq.Packets), len(par.Packets))
			}
			// Both strategies must collapse to one canonical fingerprint —
			// the invariant the scenario fleet's goldens rely on.
			if fs, fp := Fingerprint(seq), Fingerprint(par); fs != fp {
				t.Errorf("fingerprint differs between reference and production: %s vs %s", fs, fp)
			}
		})
	}
}

// The production walk must actually skip the event queue when it may and
// stand down when it must: every ground-truth quantum (Q = 1µs <= T) is
// safe, a quantum beyond the minimum latency never is, and an adaptive
// policy crosses the boundary both ways mid-run.
func TestFastPathEngages(t *testing.T) {
	count := func(pol func() quantum.Policy, st strategy) (fast, slow int) {
		w := workloads.Phases(3, 150*simtime.Microsecond, 16<<10)
		cfg := testConfig(4, w, pol)
		cfg.onQuantumMode = func(isFast bool) {
			if isFast {
				fast++
			} else {
				slow++
			}
		}
		if _, err := st.run(cfg); err != nil {
			t.Fatal(err)
		}
		return
	}

	if fast, slow := count(fixed(simtime.Microsecond), production); fast == 0 || slow != 0 {
		t.Errorf("ground truth: want all quanta fast, got fast=%d slow=%d", fast, slow)
	}
	if fast, slow := count(fixed(simtime.Millisecond), production); fast != 0 || slow == 0 {
		t.Errorf("Q=1ms: want all quanta slow, got fast=%d slow=%d", fast, slow)
	}
	if fast, slow := count(adaptive(simtime.Microsecond, simtime.Millisecond, 1.03, 0.02), production); fast == 0 || slow == 0 {
		t.Errorf("adaptive: want a mix of fast and slow quanta, got fast=%d slow=%d", fast, slow)
	}
	// The reference strategy walks the event queue even at ground truth.
	if fast, slow := count(fixed(simtime.Microsecond), reference); fast != 0 || slow == 0 {
		t.Errorf("reference: want no fast quanta, got fast=%d slow=%d", fast, slow)
	}
}

// The partitioned walk must actually engage partially on the mixed
// topology — otherwise the bit-identity cases above are vacuously passing on
// the event-queue walk — and the graded Stats accounting must be identical
// under both strategies.
func TestPartitionedPathEngagesPartially(t *testing.T) {
	run := func(st strategy) (res *Result, looseQuanta int) {
		cfg := testConfig(8, workloads.Uniform(120, 2000, 30*simtime.Microsecond, 17), fixed(2*simtime.Microsecond))
		cfg.Net = mixedWANNet(8)
		cfg.onQuantumMode = func(loose bool) {
			if loose {
				looseQuanta++
			}
		}
		res, err := st.run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res, looseQuanta
	}
	base, refLoose := run(reference)
	s := base.Stats
	if s.FastPartialQuanta == 0 || s.FastFullQuanta != 0 {
		t.Fatalf("Q=2µs mixed topology: want only partial engagement, got %+v", s)
	}
	// One tight 4-node rack + 4 loose WAN singletons, every quantum.
	if want := 4 * s.FastPartialQuanta; s.FastNodeQuanta != want {
		t.Errorf("FastNodeQuanta = %d, want %d", s.FastNodeQuanta, want)
	}
	if want := 5 * s.FastPartialQuanta; s.PartialPartitions != want {
		t.Errorf("PartialPartitions = %d, want %d", s.PartialPartitions, want)
	}
	got, prodLoose := run(production)
	if refLoose != 0 || prodLoose != s.Quanta {
		t.Errorf("quanta walking loose nodes: reference %d (want 0), production %d (want %d)", refLoose, prodLoose, s.Quanta)
	}
	if !reflect.DeepEqual(base, got) {
		t.Error("production result differs from the reference strategy")
	}
}

// LookaheadScalar must reproduce the matrix mode's simulation outputs
// exactly — the mode only moves which nodes skip the event queue and the
// graded accounting (all zero under scalar).
func TestScalarLookaheadBitIdentity(t *testing.T) {
	run := func(mode LookaheadMode) *Result {
		cfg := testConfig(8, workloads.Uniform(120, 2000, 30*simtime.Microsecond, 17),
			adaptive(simtime.Microsecond, 200*simtime.Microsecond, 1.1, 0.02))
		cfg.Net = mixedWANNet(8)
		cfg.Lookahead = mode
		cfg.TraceQuanta = true
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	matrix := run(LookaheadMatrix)
	scalar := run(LookaheadScalar)
	if scalar.Stats.FastPartialQuanta != 0 || scalar.Stats.PartialPartitions != 0 {
		t.Errorf("scalar mode reported graded engagement: %+v", scalar.Stats)
	}
	if matrix.Stats.FastPartialQuanta == 0 {
		t.Fatalf("adaptive mixed run never partially engaged: %+v", matrix.Stats)
	}
	// Null out the accounting that is allowed to differ; everything else —
	// including every quantum record — must match bit for bit.
	m, s := *matrix, *scalar
	m.Stats.FastFullQuanta, s.Stats.FastFullQuanta = 0, 0
	m.Stats.FastPartialQuanta, s.Stats.FastPartialQuanta = 0, 0
	m.Stats.FastNodeQuanta, s.Stats.FastNodeQuanta = 0, 0
	m.Stats.PartialPartitions, s.Stats.PartialPartitions = 0, 0
	if !reflect.DeepEqual(&m, &s) {
		t.Errorf("scalar vs matrix results differ:\nmatrix %+v\nscalar %+v", m.Stats, s.Stats)
	}
}
