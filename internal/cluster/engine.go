package cluster

import (
	"errors"
	"fmt"

	"clustersim/internal/eventq"
	"clustersim/internal/guest"
	"clustersim/internal/host"
	"clustersim/internal/obs"
	"clustersim/internal/pkt"
	"clustersim/internal/prof"
	"clustersim/internal/quantum"
	"clustersim/internal/simtime"
)

// ErrGuestLimit is returned when a run exceeds Config.MaxGuest without all
// workloads finishing — usually a deadlocked workload.
var ErrGuestLimit = errors.New("cluster: guest time limit exceeded before workloads finished")

// event kinds in the host-time queue.
type evKind int32

const (
	evFrame evKind = iota // a frame reaches the controller/destination
	evStep                // a node's current segment ends; resume stepping
	evWake                // an idle node reaches its wake guest time
)

// event priorities: at identical host times, frames are routed before nodes
// resume, so a delivery racing a segment end is observed by the resuming
// node. Any fixed rule would do; this one minimizes spurious blocking.
const (
	priFrame = 0
	priWake  = 1
	priStep  = 2
)

// event is a queue entry: 12 bytes, all indices. Frame events carry only the
// flight-arena index (DESIGN.md §12) — the frame pointer, endpoints and
// timestamps live in the flight record; wake events read their guest target
// from the node arena's wakeG lane. The previous layout carried all of that
// inline (a 72-byte payload copied through every heap operation).
type event struct {
	kind evKind
	node int32 // evStep/evWake: the node to act on
	fi   int32 // evFrame: index into the quantum's flight arena
}

type nodePhase int32

const (
	phRunning nodePhase = iota // executing; a segment/step event is pending
	phIdle                     // blocked; a wake event is pending
	phAtLimit                  // reached the quantum boundary
)

// nodeArena holds every per-node engine field as parallel slices indexed by
// node — structure-of-arrays instead of the previous []*nodeState pointer
// farm. The layout is flat and trivially copyable (a snapshot is one copy()
// per lane, no pointer graph to chase beyond the guest nodes themselves),
// which is the substrate the roadmap's optimistic checkpoint/rollback engine
// needs; see DESIGN.md §12.
//
//simlint:snapshotroot one copy() per lane is the whole checkpoint contract
type nodeArena struct {
	node  []*guest.Node //simlint:snapshotsafe guest nodes are their own snapshot root; the arena lane only re-binds pointers on restore
	phase []nodePhase

	// Execution cursor: the host time corresponding to the node's position
	// at the *end* of the current segment. While a segment is in flight,
	// interpolate with the segment lanes below.
	hostNow []simtime.Host

	// Current segment (busy execution or idle wait) for interpolating the
	// node's guest position at an arbitrary host instant.
	inSeg     []bool
	segMode   []host.Mode
	segStartG []simtime.Guest
	segStartH []simtime.Host
	segEndG   []simtime.Guest
	segEndH   []simtime.Host

	wakeEv     []eventq.Handle // cancellable pending wake (zero = none)
	wakeG      []simtime.Guest // pending wake's guest target
	doneIdling []bool          // workload finished; idling to each barrier

	txFree     []simtime.Guest // guest time the NIC's transmitter frees up
	finishHost []simtime.Host  // host time the node reached the current barrier
	doneHost   []simtime.Host  // host time the workload finished
}

func newNodeArena(n int) nodeArena {
	return nodeArena{
		node:       make([]*guest.Node, n),
		phase:      make([]nodePhase, n),
		hostNow:    make([]simtime.Host, n),
		inSeg:      make([]bool, n),
		segMode:    make([]host.Mode, n),
		segStartG:  make([]simtime.Guest, n),
		segStartH:  make([]simtime.Host, n),
		segEndG:    make([]simtime.Guest, n),
		segEndH:    make([]simtime.Host, n),
		wakeEv:     make([]eventq.Handle, n),
		wakeG:      make([]simtime.Guest, n),
		doneIdling: make([]bool, n),
		txFree:     make([]simtime.Guest, n),
		finishHost: make([]simtime.Host, n),
		doneHost:   make([]simtime.Host, n),
	}
}

// routed is one deferred barrier entry: a flight and the controller-arrival
// host time the event-queue walk would have dispatched it at.
type routed struct {
	h  simtime.Host
	fi int32
}

// pendDeliv is one surviving frame copy awaiting the batched per-destination
// push: the route pass classifies and records every copy in canonical order,
// then the delivery pass hands contiguous per-destination runs to the guest.
type pendDeliv struct {
	dst int32
	f   *pkt.Frame
	arr simtime.Guest
}

// engine runs one configuration.
type engine struct {
	cfg    Config
	hm     *host.Model
	na     nodeArena
	q      eventq.Queue[event]
	policy quantum.Policy
	// obs mirrors cfg.Observer; every hook site is guarded by a nil check so
	// an unobserved run builds no records and pays only the branch.
	obs obs.Observer
	// prof mirrors cfg.Profiler with the same nil-guard discipline.
	prof *prof.Profiler
	// ctl is the network controller: link physics, faults, classification
	// and the controller's accounting, shared with the parallel runner.
	ctl *controller

	// flights is the quantum's flight slab: the interned records evFrame
	// events and deferred barrier entries point at. Every frame sent in a
	// quantum is also routed in it, so the slab resets to length zero at
	// each quantum start and reaches a steady state with no allocation.
	// pend, delivCnt, delivOff and delivSorted are the batched barrier
	// router's reusable buffers (DESIGN.md §12).
	flights     []flight
	pend        []pendDeliv
	delivCnt    []int32
	delivOff    []int32
	delivSorted []guest.Arrival
	// batching: deliver records surviving copies in pend instead of pushing
	// them to the guest one at a time.
	batching bool

	limit    simtime.Guest // current quantum end
	lastEvtH simtime.Host  // latest frame event host time this quantum

	doneCount int
	res       Result
	sumQ      float64
	firstErr  error

	// slow holds the per-node host slowdown factor from the fault plan, or
	// nil when every node runs at factor 1 — the nil check keeps the
	// fault-free path byte-identical to an engine without the feature.
	slow []float64

	// reference selects the reference strategy (RunReference): every
	// quantum executes as tightAll, the pure event-queue walk.
	reference bool
	// tightAll and looseAll are the degenerate execution partitionings:
	// every node in one tight partition (the event-queue walk), and every
	// node loose (the eligible-quantum walk under LookaheadScalar, which
	// has no lookahead partitionings of its own; nil otherwise).
	tightAll, looseAll *partitioning
	// exec is the executing quantum's partitioning: sendFrame reads it to
	// defer frames from loose nodes and across tight partitions to the
	// barrier.
	exec *partitioning
	// defs holds, per node, the quantum's flights deferred to the barrier
	// with the controller-arrival host times the event-queue walk would
	// have dispatched them at. routeBatch empties the lanes, so they are
	// empty at every quantum start.
	defs [][]routed
	// partFin is the per-partition last-finish scratch for the profiler's
	// partition-wait attribution, reused across quanta.
	partFin []simtime.Host
}

// Run executes the configuration and returns its result. Every quantum runs
// through one executor (runQuantum) on the quantum's execution
// partitioning: loose nodes are walked without the event queue, tight
// partitions through it (DESIGN.md §7, §11).
func Run(cfg Config) (*Result, error) { return runEngine(cfg, false) }

// RunReference executes the configuration with the reference strategy:
// every quantum walks all nodes through the event queue, whatever the
// lookahead allows. Its Result, Stats, quantum records and profiler report
// are identical to Run's; only the order of the packet and observer
// streams within a quantum that Run walks partly loose differs (host-event
// order here, canonical (node, send-sequence) order under Run). It exists so tests,
// the scenario fleet and the benchmark gate can compare two execution
// strategies byte for byte.
func RunReference(cfg Config) (*Result, error) { return runEngine(cfg, true) }

func runEngine(cfg Config, reference bool) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &engine{
		cfg:       cfg,
		hm:        host.NewModel(cfg.Host),
		policy:    cfg.Policy(),
		obs:       cfg.Observer,
		prof:      cfg.Profiler,
		reference: reference,
	}
	e.hm.Reserve(cfg.Nodes)
	defer e.shutdown()
	e.na = newNodeArena(cfg.Nodes)
	e.ctl = newController(cfg.Net, cfg.Faults, cfg.Nodes, cfg.Lookahead, &e.res.Stats)
	e.ctl.obs, e.ctl.prof = cfg.Observer, cfg.Profiler
	if cfg.TracePackets {
		e.ctl.packets = &e.res.Packets
	}
	e.delivCnt = make([]int32, cfg.Nodes)
	e.delivOff = make([]int32, cfg.Nodes)
	e.defs = make([][]routed, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		prog := cfg.Program(i, cfg.Nodes)
		if prog == nil {
			return nil, fmt.Errorf("cluster: nil program for rank %d", i)
		}
		e.na.node[i] = guest.NewNode(i, cfg.Nodes, cfg.Guest, prog)
	}
	if fp := cfg.Faults; fp != nil && fp.HasSlowdown() {
		e.slow = make([]float64, cfg.Nodes)
		for i := range e.slow {
			e.slow[i] = fp.Slowdown(i)
		}
	}
	e.initPartitionings()
	e.res.PolicyName = e.policy.Name()
	if err := e.run(); err != nil {
		return nil, err
	}
	if e.firstErr != nil {
		return nil, e.firstErr
	}
	return &e.res, nil
}

func (e *engine) shutdown() {
	for _, n := range e.na.node {
		if n != nil {
			n.Shutdown()
		}
	}
}

// initPartitionings builds the degenerate execution partitionings from the
// controller's lookahead (newController probes it).
func (e *engine) initPartitionings() {
	n := e.cfg.Nodes
	e.tightAll = newPartitioning(make([]int32, n), 1)
	if e.ctl.la == nil && e.ctl.eligLat > 0 {
		ids := make([]int32, n)
		for i := range ids {
			ids[i] = int32(i)
		}
		e.looseAll = newPartitioning(ids, n)
	}
}

// execution picks the quantum's execution partitioning from its lookahead
// partitioning part (nil without a matrix). Eligible quanta (Q <= eligLat)
// walk every node loose — the matrix partitioning is then all singletons;
// quanta whose partitioning leaves loose nodes walk those loose and the
// rest through the event queue; everything else, and every quantum of the
// reference strategy, is one tight partition.
func (e *engine) execution(part *partitioning) *partitioning {
	switch {
	case e.reference:
		return e.tightAll
	case part != nil && part.fastNodes > 0:
		return part
	case e.ctl.qElig:
		return e.looseAll
	default:
		return e.tightAll
	}
}

func (e *engine) run() error {
	var start simtime.Guest
	var hostNow simtime.Host
	Q := e.policy.First()
	if Q <= 0 {
		return fmt.Errorf("cluster: policy %q issued non-positive quantum %v", e.policy.Name(), Q)
	}
	e.ctl.runStart(e.policy.Name(), e.cfg.MaxGuest, false)

	nodes := e.cfg.Nodes
	for qi := 0; ; qi++ {
		e.limit = start.Add(Q)
		e.lastEvtH = hostNow
		e.flights = e.flights[:0]
		if e.obs != nil {
			e.obs.QuantumStart(qi, start, Q, hostNow)
		}
		// The quantum's lookahead partitioning drives the eligibility
		// accounting and the execution partitioning derives from it.
		part := e.ctl.beginQuantum(qi, Q)
		exec := e.execution(part)
		if e.cfg.onQuantumMode != nil {
			e.cfg.onQuantumMode(len(exec.loose) > 0)
		}
		e.runQuantum(hostNow, exec)

		// Barrier: wait for the slowest node and any late frames, pay the
		// barrier cost plus the controller's per-packet occupancy.
		maxH := e.lastEvtH
		for _, fh := range e.na.finishHost {
			maxH = simtime.MaxHost(maxH, fh)
		}
		barrierEnd := maxH.
			Add(e.cfg.Host.BarrierCost).
			Add(simtime.Duration(e.ctl.np) * e.cfg.Host.PacketHostCost)
		e.res.Stats.HostBarrier += barrierEnd.Sub(maxH)
		if e.prof != nil {
			// Per-node barrier wait: finishing the quantum until the last
			// arrival (the shared barrier+routing costs are attributed once,
			// below, not per node).
			for i := 0; i < nodes; i++ {
				e.prof.NodeWait(i, maxH.Sub(e.na.finishHost[i]))
			}
			e.profPartitionWaits(part, maxH)
			e.prof.EndQuantum(prof.QuantumStats{
				Span:       barrierEnd.Sub(hostNow),
				Routing:    simtime.Duration(e.ctl.np) * e.cfg.Host.PacketHostCost,
				Barrier:    e.cfg.Host.BarrierCost,
				Packets:    e.ctl.np,
				Stragglers: e.ctl.str,
			})
		}

		e.recordQuantum(qi, start, Q, hostNow, maxH, barrierEnd)

		hostNow = barrierEnd
		start = e.limit

		if e.doneCount == nodes {
			break
		}
		if e.cfg.MaxGuest > 0 && start > e.cfg.MaxGuest {
			return fmt.Errorf("%w (reached %v)", ErrGuestLimit, start)
		}

		Q = e.policy.Next(quantum.Feedback{
			Packets:    e.ctl.np,
			Stragglers: e.ctl.str,
			Now:        e.limit,
		})
		if Q <= 0 {
			return fmt.Errorf("cluster: policy %q issued non-positive quantum %v", e.policy.Name(), Q)
		}
	}

	for i := 0; i < nodes; i++ {
		n := e.na.node[i]
		e.res.NodeFinish = append(e.res.NodeFinish, n.FinishedAt())
		e.res.Metrics = append(e.res.Metrics, n.Metrics())
		e.res.GuestTime = simtime.MaxGuest(e.res.GuestTime, n.FinishedAt())
		if d := e.na.doneHost[i]; simtime.Duration(d) > e.res.HostTime {
			e.res.HostTime = simtime.Duration(d)
		}
	}
	e.res.Stats.finalize(e.sumQ)
	if e.obs != nil {
		e.obs.RunEnd(obs.RunSummary{
			GuestTime:          e.res.GuestTime,
			HostEnd:            hostNow,
			Quanta:             e.res.Stats.Quanta,
			FastEligibleQuanta: e.ctl.nElig,
		})
	}
	if e.prof != nil {
		e.prof.RunEnd(e.res.GuestTime, hostNow)
	}
	return nil
}

func (e *engine) recordQuantum(qi int, start simtime.Guest, Q simtime.Duration, hStart, barrierStart, hEnd simtime.Host) {
	e.res.Stats.observeQuantum(Q, e.ctl.np)
	e.sumQ += float64(Q)
	if e.cfg.TraceQuanta || e.obs != nil {
		rec := QuantumRecord{
			Index:        qi,
			Start:        start,
			Q:            Q,
			Packets:      e.ctl.np,
			Stragglers:   e.ctl.str,
			HostStart:    hStart,
			BarrierStart: barrierStart,
			HostEnd:      hEnd,
			FastEligible: e.ctl.qElig,
		}
		if e.cfg.TraceQuanta {
			e.res.Quanta = append(e.res.Quanta, rec)
		}
		if e.obs != nil {
			e.obs.QuantumEnd(rec)
		}
	}
}

func (e *engine) dispatch(h simtime.Host, ev event) {
	switch ev.kind {
	case evStep:
		e.stepNode(int(ev.node), h)
	case evWake:
		i := int(ev.node)
		gTarget := e.na.wakeG[i]
		if e.obs != nil {
			// The idle segment's extent is only final here: deliveries may
			// have re-aimed it since idleTo, so it is reported at its end.
			e.obs.NodePhase(i, obs.PhaseIdle, e.na.segStartG[i], gTarget, e.na.segStartH[i], h)
		}
		e.na.wakeEv[i] = eventq.Handle{}
		e.na.inSeg[i] = false
		e.na.hostNow[i] = h
		e.na.node[i].WakeAt(gTarget)
		if e.na.doneIdling[i] {
			// The finished node reached the barrier.
			e.na.phase[i] = phAtLimit
			e.na.finishHost[i] = h
			return
		}
		e.na.phase[i] = phRunning
		e.stepNode(i, h)
	case evFrame:
		e.routeFlight(h, ev.fi)
	}
}

// stepNode drives a node's Step loop from host time h until the node blocks,
// starts a busy segment, reaches the limit, or finishes.
func (e *engine) stepNode(i int, h simtime.Host) {
	n := e.na.node[i]
	for {
		st := n.Step()
		switch st.Kind {
		case guest.StepBusy:
			cost := e.hostCost(i, st.From, st.To, host.Busy)
			e.res.Stats.HostBusy += cost
			if e.prof != nil {
				e.prof.Segment(i, prof.SegBusy, cost)
			}
			endH := h.Add(cost)
			e.na.inSeg[i] = true
			e.na.segMode[i] = host.Busy
			e.na.segStartG[i] = st.From
			e.na.segStartH[i] = h
			e.na.segEndG[i] = st.To
			e.na.segEndH[i] = endH
			e.na.hostNow[i] = endH
			if e.obs != nil {
				// Busy segments always run to completion, so the extent is
				// final at creation.
				e.obs.NodePhase(i, obs.PhaseBusy, st.From, st.To, h, endH)
			}
			e.q.PushPri(int64(endH), priStep, event{kind: evStep, node: int32(i)})
			return

		case guest.StepSend:
			e.sendFrame(i, h, st.To, st.Frame)
			// Sending costs no additional host time beyond the guest
			// overhead already charged; keep stepping.

		case guest.StepBlocked:
			target := simtime.MinGuest(st.NextArrival, st.Deadline)
			target = simtime.MinGuest(target, e.limit)
			if target <= st.To {
				// Blocked exactly at the quantum boundary.
				e.na.phase[i] = phAtLimit
				e.na.inSeg[i] = false
				e.na.finishHost[i] = h
				e.na.hostNow[i] = h
				return
			}
			e.idleTo(i, target, h)
			return

		case guest.StepLimit:
			e.na.phase[i] = phAtLimit
			e.na.inSeg[i] = false
			e.na.finishHost[i] = h
			e.na.hostNow[i] = h
			return

		case guest.StepDone:
			if st.Err != nil && e.firstErr == nil {
				e.firstErr = fmt.Errorf("cluster: rank %d: %w", i, st.Err) //simlint:hotalloc error path: fires at most once per node, at workload failure
			}
			e.doneCount++
			e.na.doneHost[i] = h
			if e.obs != nil {
				g := n.Clock()
				e.obs.NodePhase(i, obs.PhaseDone, g, g, h, h)
			}
			// The simulator keeps idling to the barrier.
			e.idleTo(i, e.limit, h)
			return
		}
	}
}

// idleTo puts the node into an idle segment from its current clock to guest
// time target, scheduling the wake event.
func (e *engine) idleTo(i int, target simtime.Guest, h simtime.Host) {
	n := e.na.node[i]
	from := n.Clock()
	if target < from {
		panic(fmt.Sprintf("cluster: node %d idling backwards %v -> %v", i, from, target))
	}
	cost := e.hostCost(i, from, target, host.Idle)
	e.res.Stats.HostIdle += cost
	if e.prof != nil {
		e.prof.Segment(i, prof.SegIdle, cost)
	}
	endH := h.Add(cost)
	e.na.phase[i] = phIdle
	e.na.inSeg[i] = true
	e.na.segMode[i] = host.Idle
	e.na.segStartG[i] = from
	e.na.segStartH[i] = h
	e.na.segEndG[i] = target
	e.na.segEndH[i] = endH
	e.na.hostNow[i] = endH
	e.na.doneIdling[i] = n.Done()
	e.na.wakeG[i] = target
	e.na.wakeEv[i] = e.q.PushPri(int64(endH), priWake, event{kind: evWake, node: int32(i)})
}

// sendFrame hands a frame to the controller: NIC departure, destination
// fan-out and the exact arrival time per destination, then ships each copy
// to the controller in host time — an interned flight plus, in the
// event-queue walk, a queued 12-byte event dispatched at its
// controller-arrival host time. Frames from a loose node, and frames
// crossing tight partitions, are deferred to the barrier instead: their
// destination lies across a loose link, so the arrival time is provably at
// or past the limit and routing them later is behavior-neutral
// (DESIGN.md §11).
func (e *engine) sendFrame(src int, h simtime.Host, tSend simtime.Guest, f *pkt.Frame) {
	depart := e.ctl.sendFrameDepart(&e.na.txFree[src], f, tSend)
	arrHost := h.Add(e.cfg.Host.PacketTransit)
	lo, hi, skip := e.ctl.routeFlightFanout(f, src)
	for dst := lo; dst < hi; dst++ {
		if dst == skip {
			continue
		}
		fi := int32(len(e.flights))
		e.flights = append(e.flights, flight{ //simlint:hotalloc flight log grows to the per-quantum high-water mark once; length-reset each quantum
			f: f, src: int32(src), dst: int32(dst), tSend: tSend,
			tD: e.ctl.arrivalTime(f, src, dst, depart),
		})
		if p := e.exec; p.fastNode[src] || p.part[dst] != p.part[src] {
			e.defs[src] = append(e.defs[src], routed{h: arrHost, fi: fi}) //simlint:hotalloc deferred-flight lane grows to its watermark once; routeBatch length-resets it
			continue
		}
		e.q.PushPri(int64(arrHost), priFrame, event{kind: evFrame, fi: fi})
	}
}

// hostCost is the host.Model cost scaled by the node's fault-plan slowdown
// factor; with no slowdowns (slow == nil) it is the model cost verbatim.
func (e *engine) hostCost(id int, from, to simtime.Guest, mode host.Mode) simtime.Duration {
	c := e.hm.HostCost(id, from, to, mode)
	if e.slow != nil {
		c = c.Scale(e.slow[id])
	}
	return c
}

// guestPos returns node i's guest position at host time h.
func (e *engine) guestPos(i int, h simtime.Host) simtime.Guest {
	if !e.na.inSeg[i] {
		return e.na.node[i].Clock()
	}
	if h >= e.na.segEndH[i] {
		return e.na.segEndG[i]
	}
	if h <= e.na.segStartH[i] {
		return e.na.segStartG[i]
	}
	elapsed := h.Sub(e.na.segStartH[i])
	if e.slow != nil {
		// A slowed node burns factor-times the host time per unit of guest
		// progress; interpolate with the unscaled elapsed time.
		elapsed = elapsed.Scale(1 / e.slow[i])
	}
	return e.hm.GuestAt(i, e.na.segStartG[i], elapsed, e.na.segMode[i], e.na.segEndG[i])
}

// routeFlight is the controller receiving one flight at host time h: the
// controller kernel counts it, applies the fault plan and returns the
// surviving copies, which are delivered original first. Every path funnels
// through here — the event queue dispatches it at the flight's
// controller-arrival host time, the batched barrier router calls it in
// canonical order.
func (e *engine) routeFlight(h simtime.Host, fi int32) {
	if h > e.lastEvtH {
		e.lastEvtH = h
	}
	fl := e.flights[fi]
	n, tD, dupTD := e.ctl.routeFlight(fl)
	if n > 0 {
		e.deliver(h, fl, tD, false)
	}
	if n > 1 {
		e.deliver(h, fl, dupTD, true)
	}
}

// deliver classifies one copy of fl arriving ideally at tD against the
// destination's progress (the controller's classify: a node at the limit
// is at the barrier, any other is at its interpolated guest position) and
// hands it to the node. Under the batched barrier router (e.batching) the
// copy is recorded for the per-destination delivery pass instead of being
// pushed immediately; every destination is at the barrier then, so the
// idle-wake adjustments below are provably dead in that mode.
func (e *engine) deliver(h simtime.Host, fl flight, tD simtime.Guest, dupCopy bool) {
	dst := int(fl.dst)
	atLimit := e.na.phase[dst] == phAtLimit
	var pos simtime.Guest
	if !atLimit {
		pos = e.guestPos(dst, h)
	}
	arr, straggler := e.ctl.deliverCopy(fl, tD, e.limit, atLimit, pos, dupCopy)

	if e.batching {
		e.pend = append(e.pend, pendDeliv{dst: fl.dst, f: fl.f, arr: arr}) //simlint:hotalloc pending-delivery buffer grows to its watermark once; length-reset each quantum
		return
	}

	e.na.node[dst].Deliver(fl.f, arr)

	// If the destination is idling, the new arrival may change its wake
	// time: a straggler wakes it right now; an exact future arrival earlier
	// than its current target re-aims the wake.
	if e.na.phase[dst] != phIdle || e.na.doneIdling[dst] {
		return
	}
	if straggler {
		if !e.q.Remove(e.na.wakeEv[dst]) {
			panic("cluster: idle node without a cancellable wake event")
		}
		// The cancelled tail of the idle segment is never simulated.
		trunc := e.na.segEndH[dst].Sub(simtime.MaxHost(h, e.na.segStartH[dst]))
		e.res.Stats.HostIdle -= trunc
		if e.prof != nil {
			e.prof.Segment(dst, prof.SegIdle, -trunc)
		}
		if e.obs != nil {
			// Report the truncated idle segment: the straggler cut it short.
			e.obs.NodePhase(dst, obs.PhaseIdle, e.na.segStartG[dst], arr,
				e.na.segStartH[dst], simtime.MaxHost(h, e.na.segStartH[dst]))
		}
		e.na.wakeEv[dst] = eventq.Handle{}
		e.na.inSeg[dst] = false
		e.na.hostNow[dst] = h
		e.na.node[dst].WakeAt(arr)
		e.na.phase[dst] = phRunning
		e.stepNode(dst, h)
		return
	}
	if arr < e.na.segEndG[dst] {
		// Re-aim the idle segment at the earlier arrival.
		if !e.q.Remove(e.na.wakeEv[dst]) {
			panic("cluster: idle node without a cancellable wake event")
		}
		cost := e.hostCost(dst, e.na.segStartG[dst], arr, host.Idle)
		refund := e.na.segEndH[dst].Sub(e.na.segStartH[dst]) - cost
		e.res.Stats.HostIdle -= refund
		if e.prof != nil {
			e.prof.Segment(dst, prof.SegIdle, -refund)
		}
		endH := e.na.segStartH[dst].Add(cost)
		e.na.segEndG[dst] = arr
		e.na.segEndH[dst] = endH
		e.na.hostNow[dst] = endH
		e.na.wakeG[dst] = arr
		e.na.wakeEv[dst] = e.q.PushPri(int64(endH), priWake, event{kind: evWake, node: fl.dst})
	}
}

// routeBatch routes the quantum's deferred flights: one pass through the
// per-node lanes in canonical (node, send-sequence) order — counters, fault
// decisions, traces and observer hooks fire here in exactly the order the
// one-at-a-time tail produced — then the surviving copies are delivered in
// per-destination contiguous runs via a stable counting sort. Delivery
// order within a destination is the route order, and the guest receive
// queue orders by (arrival, Frame.ID, push sequence), so regrouping is
// invisible to the workload (DESIGN.md §12).
func (e *engine) routeBatch() {
	e.pend = e.pend[:0]
	e.batching = true
	for i, lane := range e.defs {
		for _, d := range lane {
			e.routeFlight(d.h, d.fi)
		}
		e.defs[i] = lane[:0]
	}
	e.batching = false
	if len(e.pend) == 0 {
		return
	}

	cnt := e.delivCnt
	for i := range cnt {
		cnt[i] = 0
	}
	for i := range e.pend {
		cnt[e.pend[i].dst]++
	}
	off := e.delivOff
	var sum int32
	for d := range cnt {
		off[d] = sum
		sum += cnt[d]
	}
	if cap(e.delivSorted) < len(e.pend) {
		e.delivSorted = make([]guest.Arrival, len(e.pend)) //simlint:hotalloc sort scratch grows to the high-water mark once, then reslices allocation-free
	}
	sorted := e.delivSorted[:len(e.pend)]
	for i := range e.pend {
		p := &e.pend[i]
		sorted[off[p.dst]] = guest.Arrival{Frame: p.f, Time: p.arr}
		off[p.dst]++
	}
	var start int32
	for d := range cnt {
		if cnt[d] == 0 {
			continue
		}
		e.na.node[d].DeliverBatch(sorted[start:off[d]])
		start = off[d]
	}
}

// runQuantum executes one quantum on the execution partitioning p
// (DESIGN.md §7, §11). Tight partitions run the event-queue walk one
// partition at a time — the shared queue then only ever holds the current
// partition's events, and because restricting a deterministic total order
// to a subset preserves relative order, each partition's walk is
// bit-identical to its slice of the whole-cluster walk. Loose nodes, whose
// every link has latency >= Q, are walked inline to the barrier in node
// order. sendFrame defers every frame that leaves a loose node or crosses
// partitions; at the barrier the deferred flights publish in canonical
// (node, send-sequence) order through the batched router. Every arrival
// time is then at or past the limit and every destination is at the
// barrier, so each such delivery is exact.
//
// The event-queue walk (tightAll) and the all-loose walk are the two
// degenerate partitionings.
//
//simlint:hotpath the quantum loop: every quantum of every run executes here
func (e *engine) runQuantum(hostNow simtime.Host, p *partitioning) {
	e.exec = p
	for _, members := range p.tight {
		for _, m := range members {
			i := int(m)
			n := e.na.node[i]
			n.BeginQuantum(e.limit)
			e.na.phase[i] = phRunning
			e.na.hostNow[i] = hostNow
			e.na.inSeg[i] = false
			e.na.wakeEv[i] = eventq.Handle{}
			e.na.finishHost[i] = hostNow
			if n.Done() {
				// A finished workload's simulator idles through the
				// quantum (OS housekeeping only).
				e.idleTo(i, e.limit, hostNow)
				continue
			}
			e.q.PushPri(int64(hostNow), priStep, event{kind: evStep, node: int32(i)})
		}
		for e.q.Len() > 0 {
			ev := e.q.Pop()
			e.dispatch(simtime.Host(ev.Time), ev.Payload)
		}
	}
	for _, i := range p.loose {
		e.walkNode(int(i), hostNow)
	}
	if len(p.tight) == 1 && len(p.loose) == 0 {
		return // the whole cluster is one tight partition: nothing was deferred
	}
	e.routeBatch()
}

// profPartitionWaits charges each lookahead partition's barrier wait for
// the quantum: the release point minus the partition's last member finish.
// With an unknown partitioning the whole cluster is one partition. Derived
// purely from simulated time, so the attribution is identical under both
// execution strategies.
func (e *engine) profPartitionWaits(p *partitioning, maxH simtime.Host) {
	if p == nil {
		last := e.na.finishHost[0]
		for _, fh := range e.na.finishHost[1:] {
			last = simtime.MaxHost(last, fh)
		}
		e.prof.PartitionWait(maxH.Sub(last))
		return
	}
	if cap(e.partFin) < p.nparts {
		e.partFin = make([]simtime.Host, p.nparts)
	}
	fin := e.partFin[:p.nparts]
	for i := range fin {
		fin[i] = 0
	}
	for i, fh := range e.na.finishHost {
		pid := p.part[i]
		fin[pid] = simtime.MaxHost(fin[pid], fh)
	}
	for _, f := range fin {
		e.prof.PartitionWait(maxH.Sub(f))
	}
}

// walkNode steps one loose node from the quantum start to the barrier
// without the event queue, mirroring stepNode/idleTo/the wake dispatch of
// the event-queue walk exactly. No delivery can land on a loose node before
// the limit, so its idle segments are never truncated or re-aimed and every
// segment's extent is final when it is created; its sends are deferred to
// the barrier by sendFrame.
func (e *engine) walkNode(i int, hostNow simtime.Host) {
	n := e.na.node[i]
	n.BeginQuantum(e.limit)
	e.na.inSeg[i] = false
	e.na.wakeEv[i] = eventq.Handle{}
	h := hostNow

	finish := func() { //simlint:hotalloc non-escaping closure: called and discarded inside walkNode, stays on the stack
		e.na.phase[i] = phAtLimit
		e.na.finishHost[i] = h
		e.na.hostNow[i] = h
	}
	// idle mirrors idleTo plus the evWake dispatch: charge the idle cost,
	// report the phase, advance the cursor, and wake the node at target.
	idle := func(target simtime.Guest) { //simlint:hotalloc non-escaping closure: called and discarded inside walkNode, stays on the stack
		from := n.Clock()
		if target < from {
			panic(fmt.Sprintf("cluster: node %d idling backwards %v -> %v", i, from, target))
		}
		cost := e.hostCost(i, from, target, host.Idle)
		e.res.Stats.HostIdle += cost
		if e.prof != nil {
			e.prof.Segment(i, prof.SegIdle, cost)
		}
		end := h.Add(cost)
		if e.obs != nil {
			e.obs.NodePhase(i, obs.PhaseIdle, from, target, h, end)
		}
		h = end
		e.na.doneIdling[i] = n.Done()
		n.WakeAt(target)
	}

	if n.Done() {
		// A finished workload's simulator idles through the quantum.
		idle(e.limit)
		finish()
		return
	}
	for {
		st := n.Step()
		switch st.Kind {
		case guest.StepBusy:
			cost := e.hostCost(i, st.From, st.To, host.Busy)
			e.res.Stats.HostBusy += cost
			if e.prof != nil {
				e.prof.Segment(i, prof.SegBusy, cost)
			}
			end := h.Add(cost)
			if e.obs != nil {
				e.obs.NodePhase(i, obs.PhaseBusy, st.From, st.To, h, end)
			}
			h = end

		case guest.StepSend:
			e.sendFrame(i, h, st.To, st.Frame)

		case guest.StepBlocked:
			target := simtime.MinGuest(st.NextArrival, st.Deadline)
			target = simtime.MinGuest(target, e.limit)
			if target <= st.To {
				// Blocked exactly at the quantum boundary.
				finish()
				return
			}
			idle(target)
			// Loop to Step() again: arrivals already in the receive queue
			// (delivered at earlier barriers) become consumable at target.

		case guest.StepLimit:
			finish()
			return

		case guest.StepDone:
			if st.Err != nil && e.firstErr == nil {
				e.firstErr = fmt.Errorf("cluster: rank %d: %w", i, st.Err) //simlint:hotalloc error path: fires at most once per node, at workload failure
			}
			e.doneCount++
			e.na.doneHost[i] = h
			if e.obs != nil {
				g := n.Clock()
				e.obs.NodePhase(i, obs.PhaseDone, g, g, h, h)
			}
			// The simulator keeps idling to the barrier.
			idle(e.limit)
			finish()
			return
		}
	}
}
