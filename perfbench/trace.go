package main

import (
	"sort"
	"time"

	"clustersim/internal/cluster"
	"clustersim/internal/obs"
	"clustersim/internal/simtime"
)

// tracer stamps the engine's public obs.Observer hooks with wall-clock
// time. The deterministic engine fires them from one goroutine and calls
// run one at a time, so it needs no locking.
type tracer struct {
	obs.Base

	callStart, runStart, runEnd, qStart, qEnd time.Time

	// quanta holds the current call's quanta until the call's Stats say
	// which of them were fast-path eligible.
	quanta []quantumSample

	setupMs, teardownMs    []float64
	eligibleNs, ineligible []float64
	gapNs                  []float64
}

type quantumSample struct {
	q  simtime.Duration
	ns float64
}

// begin marks the cluster.Run call.
func (t *tracer) begin() {
	t.quanta = t.quanta[:0]
	t.qEnd = time.Time{}
	t.callStart = time.Now()
}

// RunStart implements obs.Observer.
func (t *tracer) RunStart(obs.RunInfo) { t.runStart = time.Now() }

// RunEnd implements obs.Observer.
func (t *tracer) RunEnd(obs.RunSummary) { t.runEnd = time.Now() }

// QuantumStart implements obs.Observer.
func (t *tracer) QuantumStart(int, simtime.Guest, simtime.Duration, simtime.Host) {
	t.qStart = time.Now()
	if !t.qEnd.IsZero() {
		t.gapNs = append(t.gapNs, float64(t.qStart.Sub(t.qEnd)))
	}
}

// QuantumEnd implements obs.Observer.
func (t *tracer) QuantumEnd(rec obs.QuantumRecord) {
	t.qEnd = time.Now()
	t.quanta = append(t.quanta, quantumSample{q: rec.Q, ns: float64(t.qEnd.Sub(t.qStart))})
}

// end closes the call. Eligibility (full or partial fast path) shrinks as Q
// grows, so the FastFull+FastPartial eligible quanta of a run are exactly
// its smallest-Q quanta; QuantumRecord.FastEligible alone would miss the
// partially eligible ones.
func (t *tracer) end(ok bool, res *cluster.Result) {
	now := time.Now()
	if !ok {
		return
	}
	t.setupMs = append(t.setupMs, float64(t.runStart.Sub(t.callStart))/1e6)
	t.teardownMs = append(t.teardownMs, float64(now.Sub(t.runEnd))/1e6)
	sort.SliceStable(t.quanta, func(i, j int) bool { return t.quanta[i].q < t.quanta[j].q })
	eligible := res.Stats.FastFullQuanta + res.Stats.FastPartialQuanta
	for i, s := range t.quanta {
		if i < eligible {
			t.eligibleNs = append(t.eligibleNs, s.ns)
		} else {
			t.ineligible = append(t.ineligible, s.ns)
		}
	}
}

// simTotals sums the statistics of the simulations a pass exposes.
type simTotals struct {
	quanta, fastFull, fastPartial, fastNode, nodeQuanta, silent int
	packets, deliveries, stragglers, snaps, dropped, duplicated int
	busy, idle, barrier                                         simtime.Duration
}

func (t *simTotals) add(s sim) {
	st := s.stats
	t.quanta += st.Quanta
	t.fastFull += st.FastFullQuanta
	t.fastPartial += st.FastPartialQuanta
	t.fastNode += st.FastNodeQuanta
	t.nodeQuanta += s.nodes * st.Quanta
	t.silent += st.SilentQuanta
	t.packets += st.Packets
	t.deliveries += st.Deliveries
	t.stragglers += st.Stragglers
	t.snaps += st.QuantumSnaps
	t.dropped += st.Dropped
	t.duplicated += st.Duplicated
	t.busy += st.HostBusy
	t.idle += st.HostIdle
	t.barrier += st.HostBarrier
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not reach).
func ratio[T int | int64 | time.Duration](a, b T) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
