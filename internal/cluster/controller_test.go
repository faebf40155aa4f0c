package cluster

import (
	"runtime"
	"testing"
	"time"

	"clustersim/internal/faults"
	"clustersim/internal/guest"
	"clustersim/internal/netmodel"
	"clustersim/internal/obs"
	"clustersim/internal/quantum"
	"clustersim/internal/simtime"
	"clustersim/internal/workloads"
)

// TestClassify pins the paper's Fig. 3 cases in the one classification
// function both runners call.
func TestClassify(t *testing.T) {
	const limit = simtime.Guest(100)
	cases := []struct {
		name               string
		tD                 simtime.Guest
		atBarrier          bool
		pos                simtime.Guest
		arr                simtime.Guest
		straggler, snapped bool
	}{
		{"barrier, before limit snaps", 90, true, 0, limit, true, true},
		{"barrier, at limit is exact", 100, true, 0, 100, false, false},
		{"barrier, past limit is exact", 130, true, 0, 130, false, false},
		{"running, future arrival is exact", 70, false, 60, 70, false, false},
		{"running, arrival at position is exact", 60, false, 60, 60, false, false},
		{"running, past arrival is a straggler", 50, false, 60, 60, true, false},
	}
	for _, c := range cases {
		arr, str, snap := classify(c.tD, limit, c.atBarrier, c.pos)
		if arr != c.arr || str != c.straggler || snap != c.snapped {
			t.Errorf("%s: got (%v, %v, %v), want (%v, %v, %v)", c.name, arr, str, snap, c.arr, c.straggler, c.snapped)
		}
	}
}

// packetCounter counts packet records by kind. The parallel runner emits
// them under its controller mutex, so no locking is needed here.
type packetCounter struct {
	obs.Base
	dropped, delivered, dups int
}

func (p *packetCounter) Packet(rec obs.PacketRecord) {
	switch {
	case rec.Dropped:
		p.dropped++
	case rec.Duplicate:
		p.dups++
		p.delivered++
	default:
		p.delivered++
	}
}

// TestParallelControllerInvariants holds the wall-clock runner to the
// deterministic engine's conservation laws under a lossy, duplicating,
// jittered fault plan: every routed frame is dropped or delivered (plus one
// extra delivery per duplicate), every drop is traced as a Dropped record,
// every delivery is exact or a straggler, and at Q <= T there are no
// stragglers at all. Short enough for the race detector.
func TestParallelControllerInvariants(t *testing.T) {
	plan := &faults.Plan{Seed: 7, Default: faults.Link{Loss: 0.1, Dup: 0.15, Jitter: 3 * simtime.Microsecond}}
	net := netmodel.Paper()
	for _, q := range []simtime.Duration{net.MinLatency(4), 100 * simtime.Microsecond} {
		pc := &packetCounter{}
		res, err := RunParallel(ParallelConfig{
			Nodes:    4,
			Guest:    guest.DefaultConfig(),
			Net:      net,
			Policy:   fixed(q),
			Program:  workloads.Uniform(30, 1500, 20*simtime.Microsecond, 23).New,
			MaxGuest: simtime.Guest(10 * simtime.Second),
			Faults:   plan,
			Observer: pc,
		})
		if err != nil {
			t.Fatalf("Q=%v: %v", q, err)
		}
		st := res.Stats
		if st.Dropped == 0 || st.Duplicated == 0 {
			t.Errorf("Q=%v: fault plan did not fire (dropped %d, duplicated %d)", q, st.Dropped, st.Duplicated)
		}
		if want := st.Packets - st.Dropped + st.Duplicated; st.Deliveries != want {
			t.Errorf("Q=%v: deliveries %d != packets %d - dropped %d + duplicated %d", q, st.Deliveries, st.Packets, st.Dropped, st.Duplicated)
		}
		if pc.dropped != st.Dropped {
			t.Errorf("Q=%v: %d Dropped records, Stats.Dropped %d", q, pc.dropped, st.Dropped)
		}
		if pc.delivered != st.Deliveries || pc.dups != st.Duplicated {
			t.Errorf("Q=%v: %d delivery records (%d duplicates), Stats %d (%d)", q, pc.delivered, pc.dups, st.Deliveries, st.Duplicated)
		}
		if st.Exact+st.Stragglers != st.Deliveries {
			t.Errorf("Q=%v: exact %d + stragglers %d != deliveries %d", q, st.Exact, st.Stragglers, st.Deliveries)
		}
		if q <= net.MinLatency(4) && st.Stragglers != 0 {
			t.Errorf("Q=%v <= T: %d stragglers", q, st.Stragglers)
		}
	}
}

// TestRunnersReleaseGoroutines: every run, of either runner, must leave no
// goroutine behind — in particular the workload coroutines of nodes whose
// workload finished before the run ended.
func TestRunnersReleaseGoroutines(t *testing.T) {
	const nodes, runs = 8, 5
	w := workloads.Phases(2, 50*simtime.Microsecond, 4<<10)
	pol := func() quantum.Policy { return quantum.Fixed{Q: 10 * simtime.Microsecond} }
	base := runtime.NumGoroutine()
	for i := 0; i < runs; i++ {
		if _, err := Run(testConfig(nodes, w, pol)); err != nil {
			t.Fatal(err)
		}
		if _, err := RunParallel(ParallelConfig{
			Nodes: nodes, Guest: guest.DefaultConfig(), Net: netmodel.Paper(),
			Policy: pol, Program: w.New, MaxGuest: simtime.Guest(10 * simtime.Second),
		}); err != nil {
			t.Fatal(err)
		}
	}
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
	}
	if n > base {
		t.Errorf("%d goroutines after %d Run and %d RunParallel calls of %d nodes, %d before", n, runs, runs, nodes, base)
	}
}
