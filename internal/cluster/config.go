// Package cluster implements the cluster simulator of the paper: N guest
// nodes coupled through a central network controller, advancing in
// synchronization quanta chosen by a quantum policy.
//
// The engine is a deterministic discrete-event simulation over *host* time
// that simulates the parallel node simulators themselves (see DESIGN.md §4):
// it reproduces the races that create stragglers — which node simulator has
// raced ahead when a packet crosses the controller — without depending on
// real wall-clock scheduling, so every run is exactly replayable from its
// seed. A separate real-goroutine runner (parallel.go) executes the same
// models against actual wall-clock time.
package cluster

import (
	"fmt"

	"clustersim/internal/faults"
	"clustersim/internal/guest"
	"clustersim/internal/host"
	"clustersim/internal/netmodel"
	"clustersim/internal/obs"
	"clustersim/internal/prof"
	"clustersim/internal/quantum"
	"clustersim/internal/simtime"
)

// Config describes one cluster-simulation run.
type Config struct {
	// Nodes is the number of simulated nodes (the paper uses 2–64).
	Nodes int
	// Guest configures the guest CPU/NIC software costs, identical across
	// nodes.
	Guest guest.Config
	// Net is the network timing model (NIC + switch).
	Net *netmodel.Model
	// Host is the host-execution model.
	Host host.Params
	// Policy constructs the quantum policy for this run. A constructor
	// rather than a value because adaptive policies carry state.
	Policy func() quantum.Policy
	// Program builds the workload for each rank.
	Program func(rank, size int) guest.Program
	// MaxGuest aborts the run if the guest clock passes it without all
	// workloads finishing — a deadlock/livelock backstop. Zero disables it.
	MaxGuest simtime.Guest
	// TracePackets records every routed frame (memory-heavy; off by
	// default).
	TracePackets bool
	// TraceQuanta records one entry per synchronization quantum (needed for
	// the Figure 9 speedup-over-time series).
	TraceQuanta bool
	// LossRate must be zero.
	//
	// Deprecated: Faults is the one loss mechanism; use a plan with
	// Default.Loss set (faults.Plan{Default: faults.Link{Loss: p}}).
	// Validate rejects a non-zero value.
	LossRate float64
	// Faults, when non-nil, injects deterministic per-link loss,
	// duplication, delay jitter, link-down windows, and per-node host
	// slowdowns (see internal/faults). Every decision is a pure function of
	// (Plan.Seed, Frame.ID, src, dst, send time), so faulty runs stay
	// bit-identical under both execution strategies (Run, RunReference)
	// and are replayable from this config. Nil injects nothing and costs
	// one branch per frame.
	Faults *faults.Plan
	// Observer receives streaming lifecycle hooks (quantum boundaries,
	// packet deliveries, node busy/idle segments) while the run executes.
	// Nil disables all hooks at zero cost. See internal/obs.
	Observer obs.Observer
	// Profiler, when non-nil, accumulates the sync-overhead attribution
	// profile of the run (per-node compute/idle/barrier-wait decomposition,
	// fast-path eligibility causes, per-link lookahead slack — see
	// internal/prof and DESIGN.md §10). Nil disables all attribution at
	// zero cost, exactly like Observer. The resulting prof.Report is
	// byte-identical under Run and RunReference for a fixed configuration.
	Profiler *prof.Profiler
	// Workers must be zero.
	//
	// Deprecated: the intra-quantum worker pool it selected is gone; every
	// run uses the one quantum executor (see Run and RunReference).
	// Validate rejects a non-zero value.
	Workers int
	// Lookahead selects how the lookahead bound is computed. The default
	// (LookaheadMatrix) probes the per-link lookahead matrix and partitions
	// the cluster per quantum (DESIGN.md §11), so quanta above the global
	// minimum latency can still walk the loose part of the cluster without
	// the event queue; LookaheadScalar is the escape hatch restoring the
	// original all-or-nothing Q <= MinLatency gate. The choice never
	// changes simulation results — only how a quantum is executed and how
	// engagement is accounted (the graded Stats fields and profiler causes
	// are zero/boolean under LookaheadScalar).
	Lookahead LookaheadMode
	// onQuantumMode, when non-nil, is called at the start of each quantum
	// with whether its execution partitioning walks any node without the
	// event queue. Package-internal test hook.
	onQuantumMode func(fast bool)
}

// LookaheadMode selects the lookahead-bound computation.
type LookaheadMode int

const (
	// LookaheadMatrix (the default) probes a per-link lookahead matrix and
	// derives a lookahead-closed partitioning per quantum.
	LookaheadMatrix LookaheadMode = iota
	// LookaheadScalar restores the scalar Q <= MinLatency gate.
	LookaheadScalar
)

// Validate reports configuration errors.
func (c *Config) Validate() error {
	switch {
	case c.Nodes < 1:
		return fmt.Errorf("cluster: need at least 1 node, got %d", c.Nodes)
	case c.Net == nil:
		return fmt.Errorf("cluster: nil network model")
	case c.Policy == nil:
		return fmt.Errorf("cluster: nil quantum policy constructor")
	case c.Program == nil:
		return fmt.Errorf("cluster: nil workload program constructor")
	case c.Guest.CPUHz <= 0:
		return fmt.Errorf("cluster: guest CPUHz must be positive, got %v", c.Guest.CPUHz)
	case c.LossRate != 0:
		return fmt.Errorf("cluster: LossRate is deprecated and must be 0 (use Faults), got %v", c.LossRate)
	case c.Workers != 0:
		return fmt.Errorf("cluster: Workers is deprecated and must be 0, got %d", c.Workers)
	}
	if err := c.Net.Validate(c.Nodes); err != nil {
		return err
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	if err := c.Faults.ValidateNodes(c.Nodes); err != nil {
		return err
	}
	return c.Host.Validate()
}

// Stats aggregates what the controller observed during a run.
type Stats struct {
	// Quanta is the number of synchronization quanta executed.
	Quanta int
	// Packets is the number of frames routed by the controller.
	Packets int
	// Deliveries counts frame deliveries to destination nodes (a broadcast
	// contributes Nodes-1).
	Deliveries int
	// Exact counts deliveries scheduled at their precise simulated arrival
	// time (paper case 2).
	Exact int
	// Stragglers counts deliveries whose correct arrival time had already
	// passed on the destination (paper case 3).
	Stragglers int
	// QuantumSnaps counts stragglers that additionally had to wait for the
	// next quantum boundary (paper Figure 3(d)).
	QuantumSnaps int
	// StragglerDelay is the total guest time by which straggler deliveries
	// were late versus their ideal arrival.
	StragglerDelay simtime.Duration
	// Dropped counts frames discarded by the fault plan — its loss draws
	// and link-down windows (zero on the paper's perfect switch). Every
	// drop is also traced as a PacketRecord with Dropped set.
	Dropped int
	// Duplicated counts extra frame copies injected by a fault plan's
	// duplication probability. Each copy is delivered and classified
	// independently, so Deliveries = Packets - Dropped - unroutable
	// + Duplicated.
	Duplicated int
	// HostBusy/HostIdle sum the host time the node simulators spent in
	// detailed execution and in idle fast-path across all nodes;
	// HostBarrier sums the per-quantum barrier costs. Together they show
	// where the paper's "synchronization overhead" (Figure 5) lives.
	HostBusy    simtime.Duration
	HostIdle    simtime.Duration
	HostBarrier simtime.Duration
	// MinQ/MaxQ/MeanQ summarize the quantum durations used.
	MinQ, MaxQ simtime.Duration
	MeanQ      simtime.Duration
	// SilentQuanta is the number of quanta that carried no packets (the
	// np==0 branch of Algorithm 1).
	SilentQuanta int
	// FastFullQuanta counts quanta where the whole cluster was fast-path
	// eligible (Q at or below every link's lookahead) and FastPartialQuanta
	// those where only part of it was: at least one lookahead partition
	// loose, at least one tight (always zero under LookaheadScalar).
	// Eligibility state, not execution state: the counts are identical
	// under Run and RunReference.
	FastFullQuanta    int
	FastPartialQuanta int
	// FastNodeQuanta sums the fast-walkable node count over all quanta, so
	// FastNodeQuanta/(Nodes*Quanta) is the run's node-level engagement
	// fraction. PartialPartitions sums the partition counts over the
	// partially engaged quanta (the engaged partitions among them are the
	// loose singletons, one per fast node).
	FastNodeQuanta    int
	PartialPartitions int
}

// observeQuantum folds one quantum's duration and traffic into the
// aggregate. Shared by the deterministic engine and the parallel runner so
// the min/max/silent accounting cannot drift between them.
func (s *Stats) observeQuantum(q simtime.Duration, packets int) {
	s.Quanta++
	if q < s.MinQ || s.Quanta == 1 {
		s.MinQ = q
	}
	if q > s.MaxQ {
		s.MaxQ = q
	}
	if packets == 0 {
		s.SilentQuanta++
	}
}

// finalize closes out the aggregate after the last quantum: MeanQ is derived
// from the running sum, and a run with no quanta keeps MinQ at zero rather
// than leaking a sentinel.
func (s *Stats) finalize(sumQ float64) {
	if s.Quanta == 0 {
		s.MinQ = 0
		return
	}
	s.MeanQ = simtime.Duration(sumQ / float64(s.Quanta))
}

// QuantumRecord traces one synchronization quantum. It is defined in
// internal/obs (the streaming hooks deliver the same record) and aliased
// here for the trace slices of Result.
type QuantumRecord = obs.QuantumRecord

// PacketRecord traces one routed frame; aliased from internal/obs like
// QuantumRecord.
type PacketRecord = obs.PacketRecord

// Result is the outcome of a run.
type Result struct {
	// GuestTime is the guest time at which the last workload finished: the
	// cluster application's simulated wall-clock time.
	GuestTime simtime.Guest
	// HostTime is the modelled host time consumed to simulate the run —
	// the denominator of all the paper's speedups.
	HostTime simtime.Duration
	// NodeFinish holds each workload's guest finish time.
	NodeFinish []simtime.Guest
	// Metrics holds each node's reported application metrics.
	Metrics []map[string]float64
	// Stats aggregates controller observations.
	Stats Stats
	// Quanta is the per-quantum trace (nil unless Config.TraceQuanta).
	Quanta []QuantumRecord
	// Packets is the per-frame trace (nil unless Config.TracePackets).
	Packets []PacketRecord
	// PolicyName records the quantum policy used.
	PolicyName string
}

// Metric returns rank 0's reported value for name (the application-level
// result, by the convention described at Proc.Report), and whether it was
// reported.
func (r *Result) Metric(name string) (float64, bool) {
	if len(r.Metrics) == 0 {
		return 0, false
	}
	v, ok := r.Metrics[0][name]
	return v, ok
}
