package cluster

import (
	"clustersim/internal/faults"
	"clustersim/internal/netmodel"
	"clustersim/internal/obs"
	"clustersim/internal/pkt"
	"clustersim/internal/prof"
	"clustersim/internal/simtime"
)

// controller is the paper's centralized network controller (Algorithm 1,
// Fig. 3): the per-frame logic both runners share. It owns the link physics
// (NIC departure, switch output-port contention, arrival time), the fault
// decision, straggler classification and the controller's accounting —
// Stats, the per-quantum packet/straggler counters, the lookahead
// eligibility accounting, and the profiler, observer and packet-trace sinks.
// The runners keep only what is their own: the deterministic engine its
// flight interning, barrier deferral and idle-wake re-aiming, the parallel
// runner its mutex (held around every call here except sendFrameDepart) and
// the parked-node wake.
type controller struct {
	net    *netmodel.Model
	faults *faults.Plan
	nodes  int
	// portFree tracks, per destination, when its switch output port frees
	// up (guest time); used only when the net model has an OutputQueue.
	portFree []simtime.Guest

	stats *Stats
	np    int // frames routed this quantum
	str   int // stragglers this quantum

	// obs, prof and packets are the sinks; each is nil when disabled, and
	// every hook site is nil-guarded so a run without them pays one branch.
	// packets is the Result.Packets trace of a Config.TracePackets run.
	obs     obs.Observer
	prof    *prof.Profiler
	packets *[]PacketRecord

	// Lookahead (DESIGN.md §7, §11). la is the per-link lookahead
	// structure: the probed node-pair latency matrix and the
	// lookahead-closed partitionings it induces per quantum size, built for
	// every configuration that admits lookahead (matrix mode, no output
	// tap, positive bounds) whatever the execution strategy. eligLat is the
	// scalar eligibility lookahead (la.min in matrix mode, Net.MinLatency in
	// scalar mode): any quantum Q <= eligLat is provably free of
	// intra-quantum arrivals cluster-wide. Zero when the output-queue tap or
	// the topology rules lookahead out; la is then nil, as it is in scalar
	// mode. Configurations with switch output-port contention are excluded
	// before the probe: the port-free state must be updated in the exact
	// order the controller observes frames, which only the event queue
	// reproduces.
	la      *lookahead
	eligLat simtime.Duration
	qElig   bool // current quantum's full (cluster-wide) eligibility
	nElig   int  // eligible quanta so far
}

// flight is one frame copy in flight through the controller toward one
// destination: the frame, its endpoints, its send time and its exact ideal
// arrival. The engine interns flights in a per-quantum slab; the parallel
// runner builds them on the stack.
type flight struct {
	f        *pkt.Frame
	src, dst int32
	tSend    simtime.Guest // guest time the frame left the source workload
	tD       simtime.Guest // exact simulated arrival time
}

func newController(net *netmodel.Model, fp *faults.Plan, nodes int, mode LookaheadMode, stats *Stats) *controller {
	c := &controller{net: net, faults: fp, nodes: nodes, stats: stats, portFree: make([]simtime.Guest, nodes)}
	if net.Output == nil {
		if mode == LookaheadScalar {
			c.eligLat = net.MinLatency(nodes)
		} else if c.la = newLookahead(net, nodes); c.la != nil {
			c.eligLat = c.la.min
		}
	}
	return c
}

// runStart fires the observer's and profiler's run-start hooks.
func (c *controller) runStart(policy string, maxGuest simtime.Guest, parallel bool) {
	if c.obs != nil {
		c.obs.RunStart(obs.RunInfo{Nodes: c.nodes, Policy: policy, Parallel: parallel, MaxGuest: maxGuest})
	}
	if c.prof != nil {
		engine := "deterministic"
		if parallel {
			engine = "parallel"
		}
		net := c.net
		c.prof.RunStart(prof.RunMeta{
			Engine:      engine,
			Nodes:       c.nodes,
			Policy:      policy,
			Lookahead:   c.eligLat,
			OutputQueue: net.Output != nil,
			LinkLat: func(src, dst int) simtime.Duration {
				return net.FrameLatency(netmodel.MinProbe(), src, dst)
			},
		})
	}
}

// beginQuantum resets the per-quantum counters and does the quantum's
// eligibility accounting. It returns the quantum's lookahead partitioning
// (nil in scalar mode or without lookahead). The accounting is pure
// (Q, lookahead) state, so Stats and the profiler report are the same
// under every execution strategy and both runners.
func (c *controller) beginQuantum(qi int, Q simtime.Duration) *partitioning {
	c.np, c.str = 0, 0
	c.qElig = c.eligLat > 0 && Q <= c.eligLat
	if c.qElig {
		c.nElig++
	}
	var part *partitioning
	if c.la != nil {
		part = c.la.partitionFor(Q)
	}
	switch {
	case c.qElig:
		c.stats.FastFullQuanta++
		c.stats.FastNodeQuanta += c.nodes
	case part != nil && part.fastNodes > 0:
		c.stats.FastPartialQuanta++
		c.stats.FastNodeQuanta += part.fastNodes
		c.stats.PartialPartitions += part.nparts
	}
	if c.prof != nil {
		c.prof.BeginQuantum(qi, Q, part.grade())
	}
	return part
}

// sendFrameDepart models the source NIC: the frame queues behind the
// transmitter (txFree, updated) and is serialized onto the wire. It
// returns the guest time the frame's last bit leaves the source. Reads
// only immutable state, so the parallel runner calls it without its mutex.
func (c *controller) sendFrameDepart(txFree *simtime.Guest, f *pkt.Frame, tSend simtime.Guest) simtime.Guest {
	depart := simtime.MaxGuest(tSend, *txFree).Add(c.net.NIC.Serialization(f))
	*txFree = depart
	return depart
}

// routeFlightFanout resolves the destinations of a frame sent by src: the
// range [lo, hi) minus skip — every other node for a broadcast, the
// addressed node (self included) otherwise. A frame to an unknown MAC is
// flooded nowhere (there are no other ports in this cluster): it is counted
// here as routed traffic and fans out to the empty range.
func (c *controller) routeFlightFanout(f *pkt.Frame, src int) (lo, hi, skip int) {
	if f.Dst.IsBroadcast() {
		return 0, c.nodes, src
	}
	dst := f.Dst.Node()
	if dst < 0 || dst >= c.nodes {
		c.np++
		c.stats.Packets++
		return 0, 0, -1
	}
	return dst, dst + 1, -1
}

// arrivalTime computes the exact simulated arrival of a frame that left its
// source NIC at guest time depart, including switch output-port contention
// when the network models it. Contention state is updated in the order the
// controller observes the frames — exactly what the paper's centralized
// network timing module would do.
func (c *controller) arrivalTime(f *pkt.Frame, src, dst int, depart simtime.Guest) simtime.Guest {
	out := c.net.Output
	if out == nil {
		return depart.Add(c.net.PostTxLatency(f, src, dst))
	}
	atPort := depart.Add(c.net.PreQueueLatency(f, src, dst))
	start := simtime.MaxGuest(atPort, c.portFree[dst])
	c.portFree[dst] = start.Add(out.Serialization(f))
	return c.portFree[dst].Add(c.net.PostQueueLatency(f))
}

// routeFlight is the controller receiving one frame copy bound for fl.dst,
// fl.tD its ideal arrival. It counts the frame toward the quantum's traffic
// (drops included, so Algorithm 1's np==0 test still sees lost traffic),
// records the link's slack, and applies the fault plan — the one loss
// mechanism: a drop is counted and traced as a PacketRecord{Dropped: true},
// injected delay only ever increases the arrival time (preserving the
// Q <= T safety bound). It returns how many copies survive (0, 1, or 2
// with a duplicate) and their arrival times: tD for the original, dupTD
// for the duplicate. Fault outcomes are pure per-frame functions, so they
// cannot differ between runners or execution strategies.
func (c *controller) routeFlight(fl flight) (copies int, tD, dupTD simtime.Guest) {
	c.np++
	c.stats.Packets++
	if c.prof != nil {
		// Slack accounting uses the ideal (pre-fault) arrival; the per-link
		// accumulators are order-independent, so they match across paths.
		c.prof.Frame(int(fl.src), int(fl.dst), fl.tD.Sub(fl.tSend))
	}
	if c.faults == nil {
		return 1, fl.tD, 0
	}
	d := c.faults.Decide(fl.f.ID, int(fl.src), int(fl.dst), fl.tSend)
	if d.Drop {
		c.stats.Dropped++
		if c.packets != nil || c.obs != nil {
			c.emitPacket(PacketRecord{
				SendGuest: fl.tSend, Ideal: fl.tD,
				Src: int(fl.src), Dst: int(fl.dst), Size: fl.f.Size,
				Dropped: true,
			})
		}
		return 0, 0, 0
	}
	if !d.Dup {
		return 1, fl.tD.Add(d.Delay), 0
	}
	c.stats.Duplicated++
	return 2, fl.tD.Add(d.Delay), fl.tD.Add(d.DupDelay)
}

// classify places one frame copy with ideal arrival tD against its
// destination (paper Fig. 3): a destination at the barrier (atBarrier)
// takes an arrival before the quantum end limit at the limit — a straggler
// snapped to the next boundary (Fig. 3(d)) — and a later one exactly; a
// running destination at guest position pos takes a future arrival exactly
// (case 2) and a past one immediately, as a straggler (case 3).
func classify(tD, limit simtime.Guest, atBarrier bool, pos simtime.Guest) (arr simtime.Guest, straggler, snapped bool) {
	if atBarrier {
		if tD < limit {
			return limit, true, true
		}
		return tD, false, false
	}
	if tD >= pos {
		return tD, false, false
	}
	return pos, true, false
}

// deliverCopy classifies one surviving copy of fl arriving ideally at tD,
// counts it in the exact/straggler statistics and traces it. Each copy —
// the original and any fault-injected duplicate — counts independently. It
// returns the arrival time at which the runner hands the copy to the
// destination, and whether it was a straggler.
func (c *controller) deliverCopy(fl flight, tD, limit simtime.Guest, atBarrier bool, pos simtime.Guest, dup bool) (simtime.Guest, bool) {
	st := c.stats
	st.Deliveries++
	arr, straggler, snapped := classify(tD, limit, atBarrier, pos)
	if straggler {
		st.Stragglers++
		c.str++
		st.StragglerDelay += arr.Sub(tD)
		if snapped {
			st.QuantumSnaps++
		}
	} else {
		st.Exact++
	}
	if c.packets != nil || c.obs != nil {
		c.emitPacket(PacketRecord{
			SendGuest: fl.tSend, Ideal: tD, Arrival: arr,
			Src: int(fl.src), Dst: int(fl.dst), Size: fl.f.Size,
			Straggler: straggler, Snapped: snapped, Duplicate: dup,
		})
	}
	return arr, straggler
}

// emitPacket routes one packet record to the trace slice and the observer.
func (c *controller) emitPacket(rec PacketRecord) {
	if c.packets != nil {
		*c.packets = append(*c.packets, rec) //simlint:hotalloc packet tracing is opt-in diagnostics; the trace slice is the product, not scratch
	}
	if c.obs != nil {
		c.obs.Packet(rec)
	}
}
