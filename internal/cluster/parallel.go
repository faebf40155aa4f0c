package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"clustersim/internal/faults"
	"clustersim/internal/guest"
	"clustersim/internal/netmodel"
	"clustersim/internal/obs"
	"clustersim/internal/pkt"
	"clustersim/internal/prof"
	"clustersim/internal/quantum"
	"clustersim/internal/simtime"
)

// ParallelConfig configures a real-time parallel run: one OS-scheduled
// goroutine per simulated node, synchronized by a real barrier, exchanging
// frames through a mutex-guarded controller — the shape of the paper's
// actual deployment (N SimNow processes + a network controller process).
//
// Unlike the deterministic engine, wall-clock time is real and straggler
// races come from the Go scheduler, so results vary run to run exactly as
// the paper's did. Guest idle is modelled as infinitely fast (a blocked
// simulator reaches its quantum boundary immediately), the limiting case of
// the deterministic engine's IdleSlowdown → 0.
type ParallelConfig struct {
	Nodes   int
	Guest   guest.Config
	Net     *netmodel.Model
	Policy  func() quantum.Policy
	Program func(rank, size int) guest.Program
	// SpinPerGuestBusy is real nanoseconds of host CPU burned per guest
	// nanosecond of busy execution — the real-time analogue of the host
	// model's BusySlowdown. Zero runs at full speed (no spinning).
	SpinPerGuestBusy float64
	// MaxGuest aborts a deadlocked run.
	MaxGuest simtime.Guest
	// Observer receives streaming lifecycle hooks; host times in the hooks
	// are real wall-clock nanoseconds since the run started. Node goroutines
	// fire NodePhase concurrently, so the observer must be safe for
	// concurrent use (all bundled obs implementations are). Nil disables
	// all hooks at zero cost.
	Observer obs.Observer
	// Faults injects per-link loss/duplication/jitter at the controller and
	// scales per-node spin by the plan's slowdown factors. Frame-level
	// decisions come from the controller kernel the deterministic engine
	// uses, but wall-clock scheduling still varies run to run. Nil injects
	// nothing.
	Faults *faults.Plan
	// Profiler accumulates the sync-overhead attribution profile of the
	// run. Host-time values come from the real wall clock, so — unlike the
	// deterministic engine's — parallel reports are measurements that vary
	// run to run; the barrier decomposition is first-arrival→release and
	// per-node wait is arrival→release. Guest idle is free in real time, so
	// idle attribution is always zero here. Nil disables at zero cost.
	Profiler *prof.Profiler
	// Lookahead mirrors Config.Lookahead: the default matrix mode derives
	// the per-quantum lookahead partitioning so eligibility causes report
	// graded engagement and barrier participation is tracked per partition
	// (each partition's last arrival, under the existing global barrier);
	// LookaheadScalar restores the scalar accounting.
	Lookahead LookaheadMode
}

// ParallelResult is the outcome of a real-time parallel run.
type ParallelResult struct {
	GuestTime simtime.Guest
	// Wall is the real elapsed time of the run.
	Wall time.Duration
	// Metrics holds each node's reported application metrics.
	Metrics []map[string]float64
	Stats   Stats
	// PolicyName records the quantum policy used.
	PolicyName string
}

// Metric returns rank 0's reported value for name.
func (r *ParallelResult) Metric(name string) (float64, bool) {
	if len(r.Metrics) == 0 {
		return 0, false
	}
	v, ok := r.Metrics[0][name]
	return v, ok
}

// ErrParallelGuestLimit is returned when a parallel run exceeds MaxGuest.
var ErrParallelGuestLimit = errors.New("cluster: parallel run exceeded guest time limit")

type pnodeState int

const (
	pnRunning pnodeState = iota
	pnParked             // blocked at the quantum boundary, wakeable by delivery
	pnAtLimit            // reached the boundary executing; waits for the barrier
	pnDone               // workload finished
)

type pnode struct {
	n      *guest.Node
	state  pnodeState // guarded by prun.mu
	txFree simtime.Guest
	// wake is this node's private wakeup hint (buffered 1): delivery unpark
	// or stale-park flush at quantum end. All state decisions are re-checked
	// under prun.mu; the channel only bounds who gets woken. A delivery
	// therefore wakes exactly its destination goroutine — never the whole
	// cluster, as the previous cond.Broadcast barrier did.
	wake chan struct{}
	// start carries the controller's quantum-generation signal (a negative
	// value means shutdown). Strict alternation — the node consumes one
	// token per quantum before it can arrive at the barrier, and the
	// controller sends the next only after every node has arrived — keeps
	// the 1-buffer from ever blocking a send. The channel handoff is also
	// the happens-before edge under which the node reads its limit below,
	// so quantum entry costs no controller-mutex round-trip at all.
	start chan int
	// limit caches the current quantum's boundary: written by the
	// controller before it posts the start token, read by the owning
	// goroutine after consuming it.
	limit simtime.Guest
	// spinPerBusy is real nanoseconds of CPU burned per guest busy
	// nanosecond for this node: SpinPerGuestBusy times the fault plan's
	// slowdown factor. Immutable after construction.
	spinPerBusy float64
	// arrH is the host time this node last arrived at the current
	// quantum's barrier (reset to the quantum start on entry); guarded by
	// prun.mu and only maintained when a profiler is attached.
	arrH simtime.Host
}

// prun is the shared state of one parallel run. The controller mutex guards
// node states, routing and per-quantum counters — the centralized network
// controller of the paper. Synchronization around it is channel-based:
// barrier signals flow point-to-point instead of broadcast-waking all N
// goroutines on every delivery and arrival.
type prun struct {
	cfg  ParallelConfig
	obs  obs.Observer
	prof *prof.Profiler
	// ctl is the network controller shared with the deterministic engine;
	// guarded by mu.
	ctl *controller
	// startWall is the epoch for hook host times; set before any goroutine
	// can fire a hook.
	startWall time.Time

	mu sync.Mutex
	// barrier tells the controller the quantum may be over: the last arrival
	// (or a failing node) posts one token. Buffered 1, non-blocking sends;
	// the controller re-checks the arrival count under mu, so a stale token
	// costs one spurious re-check, never a missed release.
	barrier chan struct{}

	nodes   []*pnode
	gen     int  // quantum generation counter
	stop    bool // shutdown flag
	limit   simtime.Guest
	atLimit int // nodes parked, at-limit or done this quantum
	done    int
	// firstArr is the host time of this quantum's first barrier arrival;
	// haveArr gates it. The span from firstArr to the barrier release is the
	// real synchronization wait charged to Stats.HostBarrier.
	firstArr simtime.Host
	haveArr  bool
	// part is this quantum's lookahead partitioning (nil without a matrix);
	// partLeft counts each partition's nodes still running and partArrH
	// records the host time its last member reached the barrier, so the
	// profiler can attribute barrier wait per partition under the single
	// global barrier. lastArr is the whole-cluster fallback. Only maintained
	// when a profiler is attached; all guarded by mu.
	part     *partitioning
	partLeft []int
	partArrH []simtime.Host
	lastArr  simtime.Host
	stats    Stats
	sumQ     float64
	wErr     error
}

// RunParallel executes the configuration with real parallelism and returns
// wall-clock results.
func RunParallel(cfg ParallelConfig) (*ParallelResult, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 node, got %d", cfg.Nodes)
	}
	if cfg.Net == nil || cfg.Policy == nil || cfg.Program == nil {
		return nil, fmt.Errorf("cluster: parallel config missing net/policy/program")
	}
	if err := cfg.Faults.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Faults.ValidateNodes(cfg.Nodes); err != nil {
		return nil, err
	}
	r := &prun{cfg: cfg, obs: cfg.Observer, prof: cfg.Profiler, barrier: make(chan struct{}, 1)}
	r.ctl = newController(cfg.Net, cfg.Faults, cfg.Nodes, cfg.Lookahead, &r.stats)
	r.ctl.obs, r.ctl.prof = cfg.Observer, cfg.Profiler
	for i := 0; i < cfg.Nodes; i++ {
		spinPer := cfg.SpinPerGuestBusy
		if cfg.Faults != nil {
			// A slowed node burns proportionally more real CPU per guest
			// nanosecond — the wall-clock analogue of the deterministic
			// engine's scaled host costs.
			spinPer *= cfg.Faults.Slowdown(i)
		}
		r.nodes = append(r.nodes, &pnode{
			n:           guest.NewNode(i, cfg.Nodes, cfg.Guest, cfg.Program(i, cfg.Nodes)),
			wake:        make(chan struct{}, 1),
			start:       make(chan int, 1),
			spinPerBusy: spinPer,
		})
	}
	policy := cfg.Policy()
	r.startWall = time.Now() //simlint:wallclock the real-time runner measures actual wall time by design; the deterministic engine models it instead
	r.ctl.runStart(policy.Name(), cfg.MaxGuest, true)

	var wg sync.WaitGroup
	for _, pn := range r.nodes {
		wg.Add(1)
		go func(pn *pnode) {
			defer wg.Done()
			r.nodeLoop(pn)
		}(pn)
	}

	start := r.startWall
	var guestStart simtime.Guest
	Q := policy.First()
	// live and parked are the controller's per-quantum scratch: the nodes
	// to start, and the subset that ended the previous quantum parked (they
	// wait on their wake channel inside park, not on the start channel).
	live := make([]*pnode, 0, cfg.Nodes)
	parked := make([]*pnode, 0, cfg.Nodes)
	err := func() error {
		for qi := 0; ; qi++ {
			if Q <= 0 {
				return fmt.Errorf("cluster: policy %q issued non-positive quantum %v", policy.Name(), Q)
			}
			r.mu.Lock()
			r.limit = guestStart.Add(Q)
			// Nodes that finished in earlier quanta stand permanently at the
			// barrier; pre-counting them keeps the arrival count consistent
			// however unevenly the workloads drain.
			r.atLimit = r.done
			r.haveArr = false
			live, parked = live[:0], parked[:0]
			for _, pn := range r.nodes {
				if pn.state != pnDone {
					if pn.state == pnParked {
						parked = append(parked, pn)
					}
					pn.n.BeginQuantum(r.limit)
					pn.state = pnRunning
					pn.limit = r.limit
					live = append(live, pn)
				}
			}
			qStartH := r.hostNow()
			if r.obs != nil {
				r.obs.QuantumStart(qi, guestStart, Q, qStartH)
			}
			// Graded-engagement accounting, identical to the deterministic
			// engine's: eligibility is a function of (Q, matrix) alone.
			r.part = r.ctl.beginQuantum(qi, Q)
			if r.prof != nil {
				// Nodes already done stand at the barrier for the whole
				// quantum; everyone else overwrites this on arrival.
				for _, pn := range r.nodes {
					pn.arrH = qStartH
				}
				r.lastArr = qStartH
				if p := r.part; p != nil {
					if cap(r.partLeft) < p.nparts {
						r.partLeft = make([]int, p.nparts)
						r.partArrH = make([]simtime.Host, p.nparts)
					}
					r.partLeft = r.partLeft[:p.nparts]
					r.partArrH = r.partArrH[:p.nparts]
					for i := range r.partLeft {
						r.partLeft[i] = 0
						// A partition whose nodes all finished earlier stands
						// at the barrier from the quantum start, like a done
						// node in the per-node accounting.
						r.partArrH[i] = qStartH
					}
					for i, pn := range r.nodes {
						if pn.state != pnDone {
							r.partLeft[p.part[i]]++
						}
					}
				}
			}
			r.gen++
			gen := r.gen
			// Parked nodes wait inside park on their wake channel; flush
			// them now that the generation has advanced (park re-checks gen
			// under mu, sees the new one and falls through to nodeLoop).
			for _, pn := range parked {
				wakeNode(pn)
			}
			r.mu.Unlock()
			// Start the quantum outside the lock: each node begins stepping
			// the moment its token lands instead of the whole cluster piling
			// up on the controller mutex to read the new generation. Strict
			// alternation (every live node consumed its previous token before
			// arriving, and the controller only got here after all arrived)
			// keeps the buffered send from ever blocking.
			for _, pn := range live {
				pn.start <- gen
			}
			r.mu.Lock()
			for r.atLimit < len(r.nodes) && r.wErr == nil {
				r.mu.Unlock()
				<-r.barrier
				r.mu.Lock()
			}
			if r.wErr != nil {
				r.mu.Unlock()
				return r.wErr
			}
			r.recordQuantum(qi, guestStart, Q, qStartH)
			allDone := r.done == len(r.nodes)
			np, str := r.ctl.np, r.ctl.str
			r.mu.Unlock()
			guestStart = r.limit
			if allDone {
				return nil
			}
			if cfg.MaxGuest > 0 && guestStart > cfg.MaxGuest {
				return fmt.Errorf("%w (reached %v)", ErrParallelGuestLimit, guestStart)
			}
			Q = policy.Next(quantum.Feedback{Packets: np, Stragglers: str, Now: guestStart})
		}
	}()

	// Shut the node goroutines down (normal completion leaves them waiting
	// for the next generation). The wake flush unblocks anything parked
	// mid-quantum after an error; closing the start channels ends every
	// nodeLoop (each buffer is provably drained, see the start send above).
	r.mu.Lock()
	r.stop = true
	for _, pn := range r.nodes {
		wakeNode(pn)
	}
	r.mu.Unlock()
	for _, pn := range r.nodes {
		close(pn.start)
	}
	wg.Wait()
	for _, pn := range r.nodes {
		pn.n.Shutdown()
	}
	if err != nil {
		return nil, err
	}

	res := &ParallelResult{
		Wall:       time.Since(start), //simlint:wallclock reporting the measured wall duration of a real-time run
		Stats:      r.stats,
		PolicyName: policy.Name(),
	}
	res.Stats.finalize(r.sumQ)
	for _, pn := range r.nodes {
		res.Metrics = append(res.Metrics, pn.n.Metrics())
		res.GuestTime = simtime.MaxGuest(res.GuestTime, pn.n.FinishedAt())
	}
	if r.obs != nil {
		r.obs.RunEnd(obs.RunSummary{
			GuestTime:          res.GuestTime,
			HostEnd:            r.hostNow(),
			Quanta:             res.Stats.Quanta,
			FastEligibleQuanta: r.ctl.nElig,
		})
	}
	if r.prof != nil {
		r.prof.RunEnd(res.GuestTime, r.hostNow())
	}
	return res, nil
}

// wakeNode posts a wakeup hint to pn. Non-blocking: a token already in the
// buffer guarantees the node will re-check its state, so a second is
// redundant.
func wakeNode(pn *pnode) {
	select {
	case pn.wake <- struct{}{}:
	default:
	}
}

// arrive records pn at the barrier (parked, at-limit or done). Called with
// mu held. The last arrival releases the controller.
func (r *prun) arrive(pn *pnode) {
	r.atLimit++
	if !r.haveArr {
		r.haveArr = true
		r.firstArr = r.hostNow()
	}
	if r.prof != nil {
		pn.arrH = r.hostNow()
		r.lastArr = pn.arrH
		if p := r.part; p != nil {
			pid := p.part[pn.n.ID()]
			if r.partLeft[pid]--; r.partLeft[pid] == 0 {
				r.partArrH[pid] = pn.arrH
			}
		}
	}
	if r.atLimit == len(r.nodes) {
		r.signalController()
	}
}

// signalController posts the barrier token (non-blocking; buffered 1).
func (r *prun) signalController() {
	select {
	case r.barrier <- struct{}{}:
	default:
	}
}

// hostNow is the hook host clock: real nanoseconds since the run started.
func (r *prun) hostNow() simtime.Host {
	//simlint:guestwall hostNow is the sanctioned wall→host bridge: the real-time runner's host clock IS the wall clock
	return simtime.Host(time.Since(r.startWall).Nanoseconds()) //simlint:wallclock see above; observer host timestamps come from here
}

func (r *prun) recordQuantum(qi int, start simtime.Guest, Q simtime.Duration, qStartH simtime.Host) {
	r.stats.observeQuantum(Q, r.ctl.np)
	r.sumQ += float64(Q)
	end := r.hostNow()
	// The barrier span runs from the first arrival to the release that is
	// happening right now. A quantum whose nodes all arrived "at once" (or
	// where every node was already done) collapses to the end instant.
	bStart := end
	if r.haveArr && r.firstArr < end {
		bStart = r.firstArr
	}
	r.stats.HostBarrier += end.Sub(bStart)
	if r.prof != nil {
		// Per-node wait: the node's own barrier arrival to the release
		// happening now (a done node waits the whole quantum).
		for i, pn := range r.nodes {
			r.prof.NodeWait(i, end.Sub(pn.arrH))
		}
		// Per-partition wait: each partition's completion (its last member's
		// barrier arrival) to the release — barrier participation under the
		// single global barrier, graded by the lookahead partitioning. With
		// no partitioning the whole cluster is one partition.
		if r.part != nil {
			for pid := range r.partArrH {
				r.prof.PartitionWait(end.Sub(r.partArrH[pid]))
			}
		} else {
			r.prof.PartitionWait(end.Sub(r.lastArr))
		}
		r.prof.EndQuantum(prof.QuantumStats{
			Span:       end.Sub(qStartH),
			Barrier:    end.Sub(bStart),
			Packets:    r.ctl.np,
			Stragglers: r.ctl.str,
		})
	}
	if r.obs != nil {
		r.obs.QuantumEnd(obs.QuantumRecord{
			Index:        qi,
			Start:        start,
			Q:            Q,
			Packets:      r.ctl.np,
			Stragglers:   r.ctl.str,
			HostStart:    qStartH,
			BarrierStart: bStart,
			HostEnd:      end,
			FastEligible: r.ctl.qElig,
		})
	}
}

// nodeLoop drives one node across quanta. Quantum entry is a single channel
// receive: the start token carries the generation and publishes pn.limit
// (written by the controller before the send), so the node never touches the
// controller mutex until it has something to report.
func (r *prun) nodeLoop(pn *pnode) {
	for {
		gen, ok := <-pn.start
		if !ok {
			return // shutdown
		}
		if done := r.runQuantum(pn, gen); done {
			return
		}
	}
}

// runQuantum advances pn until it reaches the quantum boundary (possibly
// parking and being re-woken by deliveries) or its workload finishes. It
// reports whether the workload finished.
func (r *prun) runQuantum(pn *pnode, gen int) bool {
	for {
		st := pn.n.Step()
		switch st.Kind {
		case guest.StepBusy:
			if r.obs != nil || r.prof != nil {
				h0 := r.hostNow()
				//simlint:guestwall guest busy-time is deliberately exchanged for real CPU burn, scaled by spinPerBusy
				spin(time.Duration(float64(st.To.Sub(st.From)) * pn.spinPerBusy))
				h1 := r.hostNow()
				if r.obs != nil {
					r.obs.NodePhase(pn.n.ID(), obs.PhaseBusy, st.From, st.To, h0, h1)
				}
				if r.prof != nil {
					r.prof.Segment(pn.n.ID(), prof.SegBusy, h1.Sub(h0))
				}
			} else {
				//simlint:guestwall guest busy-time is deliberately exchanged for real CPU burn, scaled by spinPerBusy
				spin(time.Duration(float64(st.To.Sub(st.From)) * pn.spinPerBusy))
			}

		case guest.StepSend:
			r.route(pn, st.Frame, st.To)

		case guest.StepBlocked:
			// pn.limit is the node-local copy of this quantum's boundary —
			// no controller-mutex round-trip on the hot blocked path.
			target := simtime.MinGuest(st.NextArrival, st.Deadline)
			target = simtime.MinGuest(target, pn.limit)
			if target > st.To {
				// Idle simulation is effectively free in real time: jump.
				pn.n.WakeAt(target)
				continue
			}
			// Blocked at the boundary with nothing deliverable: park.
			if !r.park(pn, gen) {
				return false // quantum ended (or shutdown) while parked
			}
			// Re-woken by a delivery: keep stepping.

		case guest.StepLimit:
			r.mu.Lock()
			pn.state = pnAtLimit
			r.arrive(pn)
			r.mu.Unlock()
			return false

		case guest.StepDone:
			if r.obs != nil {
				h := r.hostNow()
				r.obs.NodePhase(pn.n.ID(), obs.PhaseDone, st.To, st.To, h, h)
			}
			r.mu.Lock()
			if st.Err != nil && r.wErr == nil {
				r.wErr = fmt.Errorf("cluster: rank %d: %w", pn.n.ID(), st.Err)
				r.signalController() // fail the run even with nodes still out
			}
			pn.state = pnDone
			r.done++
			r.arrive(pn)
			r.mu.Unlock()
			return true
		}
	}
}

// park blocks pn at the quantum boundary. It reports true if the node was
// re-woken by a delivery within the same quantum (continue stepping) and
// false if the quantum ended or the run is shutting down.
func (r *prun) park(pn *pnode, gen int) bool {
	r.mu.Lock()
	pn.state = pnParked
	r.arrive(pn)
	for pn.state == pnParked && r.gen == gen && !r.stop {
		r.mu.Unlock()
		<-pn.wake
		r.mu.Lock()
	}
	ok := pn.state == pnRunning && r.gen == gen && !r.stop
	r.mu.Unlock()
	return ok
}

// route hands a frame to the controller kernel — the same link physics,
// fault decision and classification the deterministic engine uses — with
// the destination's live state deciding stragglerhood: the real race the
// deterministic engine models.
func (r *prun) route(pn *pnode, f *pkt.Frame, tSend simtime.Guest) {
	src := pn.n.ID()
	depart := r.ctl.sendFrameDepart(&pn.txFree, f, tSend)

	r.mu.Lock()
	defer r.mu.Unlock()
	lo, hi, skip := r.ctl.routeFlightFanout(f, src)
	for dst := lo; dst < hi; dst++ {
		if dst == skip {
			continue
		}
		fl := flight{f: f, src: int32(src), dst: int32(dst), tSend: tSend, tD: r.ctl.arrivalTime(f, src, dst, depart)}
		n, tD, dupTD := r.ctl.routeFlight(fl)
		if n > 0 {
			r.deliver(fl, tD, false)
		}
		if n > 1 {
			r.deliver(fl, dupTD, true)
		}
	}
}

// deliver classifies one copy of fl arriving ideally at tD against the
// destination's live state — parked, at-limit and done nodes are at the
// barrier, a running node at its live clock — and hands it over. The
// caller holds r.mu.
func (r *prun) deliver(fl flight, tD simtime.Guest, dupCopy bool) {
	dn := r.nodes[fl.dst]
	atBarrier := dn.state != pnRunning
	var pos simtime.Guest
	if !atBarrier {
		pos = dn.n.Clock()
	}
	arr, _ := r.ctl.deliverCopy(fl, tD, r.limit, atBarrier, pos, dupCopy)
	dn.n.Deliver(fl.f, arr)
	// A parked destination that can now make progress is re-woken —
	// point-to-point, leaving every other node undisturbed.
	if dn.state == pnParked && arr <= r.limit {
		dn.state = pnRunning
		r.atLimit--
		if r.prof != nil && r.part != nil {
			// The destination's partition has a member running again; its
			// next full arrival re-stamps the completion time.
			r.partLeft[r.part.part[fl.dst]]++
		}
		wakeNode(dn)
	}
}

// spin burns real CPU for d, the real-time analogue of simulation slowdown.
// The clock is read once per calibrated batch of loop iterations rather
// than every iteration, so short spins do not spend most of their budget in
// time.Now.
func spin(d time.Duration) {
	if d <= 0 {
		return
	}
	spinOnce.Do(calibrateSpin)
	batch := int(atomic.LoadInt64(&spinBatch))
	var acc uint64
	start := time.Now() //simlint:wallclock spin burns real CPU time; the clock read is the loop's termination condition
	for time.Since(start) < d {
		acc = spinWork(acc, batch)
	}
	atomic.StoreUint64(&spinSink, acc) // keep the work observable (no DCE)
}

// spinBatchTarget is how much wall time one batch of spin work should take
// between clock reads: long enough that time.Now is a rounding error, short
// enough that spins only overshoot by a fraction of a microsecond.
const spinBatchTarget = 200 * time.Nanosecond

var (
	spinOnce  sync.Once
	spinBatch int64 = 1 << 10 // calibrated at first use
	spinSink  uint64
)

// calibrateSpin times a probe run of spinWork and sizes the batch so one
// batch costs roughly spinBatchTarget.
func calibrateSpin() {
	const probe = 1 << 18
	start := time.Now() //simlint:wallclock calibration times real spin work against the wall clock; affects pacing only, never results
	acc := spinWork(1, probe)
	elapsed := time.Since(start) //simlint:wallclock see calibration note above
	atomic.StoreUint64(&spinSink, acc)
	if elapsed <= 0 {
		return // keep the default batch
	}
	b := int64(float64(probe) * float64(spinBatchTarget) / float64(elapsed))
	if b < 16 {
		b = 16
	}
	atomic.StoreInt64(&spinBatch, b)
}

// spinWork is the unit of busy work between clock reads. It feeds its
// result back to the caller (and ultimately a package sink) so the compiler
// cannot eliminate the loop.
//
//go:noinline
func spinWork(acc uint64, n int) uint64 {
	for i := 0; i < n; i++ {
		acc = acc*6364136223846793005 + 1442695040888963407
	}
	return acc
}
