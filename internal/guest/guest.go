// Package guest models one simulated cluster node: a guest machine executing
// a workload program against a guest clock and a NIC.
//
// In the paper each node is a full x86 system under AMD SimNow; here a node
// executes a *workload program* — ordinary Go code written against the Proc
// API (Compute, Send, Recv, Sleep) — on its own coroutine (iter.Pull). The
// node and the workload run strictly hand-over-hand (exactly one of them is
// ever active; every switch is an explicit resume, never a scheduler
// round-trip), so execution is deterministic and the co-simulation engine
// observes the node as a sequential state machine:
//
//	Step() → "I computed [a,b)" | "I sent a frame" | "I am blocked" |
//	         "I reached the quantum limit" | "I finished"
//
// The engine owns all host-time accounting; this package is purely in the
// guest clock domain.
package guest

import (
	"fmt"
	"iter"
	"sync"
	"sync/atomic"

	"clustersim/internal/eventq"
	"clustersim/internal/pkt"
	"clustersim/internal/simtime"
)

// atomicGuest is a guest clock readable from any goroutine.
type atomicGuest struct {
	v atomic.Int64 //simlint:snapshotsafe identity-free counter: restore is one store() of the checkpointed value
}

func (a *atomicGuest) load() simtime.Guest   { return simtime.Guest(a.v.Load()) }
func (a *atomicGuest) store(g simtime.Guest) { a.v.Store(int64(g)) }

// Config holds the per-node guest timing parameters.
type Config struct {
	// CPUHz is the guest CPU frequency, used by ComputeCycles.
	CPUHz float64
	// SendOverhead is the guest CPU time consumed to push one frame through
	// the guest network stack and NIC driver.
	SendOverhead simtime.Duration
	// RecvOverhead is the guest CPU time consumed to receive one frame.
	RecvOverhead simtime.Duration
}

// DefaultConfig resembles the paper's nodes: 2.6 GHz Opterons with a
// TCP-era per-frame software cost well under the 1 µs wire latency.
func DefaultConfig() Config {
	return Config{
		CPUHz:        2.6e9,
		SendOverhead: 700 * simtime.Nanosecond,
		RecvOverhead: 700 * simtime.Nanosecond,
	}
}

// Program is a workload executed on a node. It runs on its own goroutine and
// must use only the Proc API to interact with time and the network.
type Program func(p *Proc) error

// Arrival is a frame as observed by the guest: the frame plus the guest time
// at which the node's NIC made it visible.
type Arrival struct {
	Frame *pkt.Frame //simlint:snapshotsafe frames are immutable once the sending NIC stamps ID; aliasing is safe
	Time  simtime.Guest
}

// StepKind classifies what a node did during one Step call.
type StepKind int

// Step kinds returned by Node.Step.
const (
	// StepBusy: the node executed guest code for [From, To). Call Step
	// again once the engine has accounted the host time.
	StepBusy StepKind = iota
	// StepSend: the node handed Frame to its NIC at guest time To.
	StepSend
	// StepBlocked: the node is waiting for a frame (or sleeping) at guest
	// time To. NextArrival is the earliest queued-but-future arrival
	// (GuestInfinity if none); Deadline is the recv deadline or sleep
	// target (GuestInfinity if none). The engine must WakeAt the earliest
	// relevant guest time.
	StepBlocked
	// StepLimit: the node's clock reached the quantum limit.
	StepLimit
	// StepDone: the workload finished (possibly with Err).
	StepDone
)

func (k StepKind) String() string {
	switch k {
	case StepBusy:
		return "busy"
	case StepSend:
		return "send"
	case StepBlocked:
		return "blocked"
	case StepLimit:
		return "limit"
	case StepDone:
		return "done"
	default:
		return fmt.Sprintf("StepKind(%d)", int(k))
	}
}

// Step describes one observable step of a node's execution.
type Step struct {
	Kind        StepKind
	From, To    simtime.Guest
	Frame       *pkt.Frame    // StepSend only
	NextArrival simtime.Guest // StepBlocked only
	Deadline    simtime.Guest // StepBlocked only
	Err         error         // StepDone only
}

type opKind int

const (
	opCompute opKind = iota
	opSend
	opRecv
	opSleep
	opDone
)

type request struct {
	kind     opKind
	dur      simtime.Duration // compute
	frame    *pkt.Frame       //simlint:snapshotsafe frames are immutable once stamped; aliasing is safe // send
	deadline simtime.Guest    // recv deadline / sleep target (absolute)
	err      error            //simlint:snapshotsafe error values are immutable; aliasing is safe // done
}

type reply struct {
	arrival Arrival // recv result (valid iff hasArr)
	hasArr  bool
}

// Node is one simulated cluster node.
//
// A node is driven by one engine goroutine (Step/WakeAt/BeginQuantum) while
// frames may be delivered from other goroutines: Deliver and Clock are safe
// for concurrent use, which the real-time parallel runner relies on. The
// deterministic engine is single-threaded and pays only uncontended locks.
//
// The workload runs as a coroutine (iter.Pull): next resumes it until its
// next request, yield suspends it until the engine resumes it with a staged
// reply. Both directions are direct coroutine switches — no goroutine
// parking, no scheduler — and all request/reply state lives in the Node by
// value, so the steady-state Step loop allocates nothing.
//
//simlint:snapshotroot per-node state the optimistic engine checkpoints at quantum barriers
type Node struct {
	id   int
	size int
	cfg  Config

	clock atomicGuest
	limit simtime.Guest

	rxMu    sync.Mutex               //simlint:snapshotsafe checkpoints quiesce at quantum barriers with rx unlocked; restore reinitializes the zero mutex
	rx      eventq.Queue[*pkt.Frame] //simlint:snapshotsafe queue lanes deep-copy; payloads are immutable frames, aliasing is safe
	frameID uint64
	// frameBlk is the tail of the current frame block: outgoing frames are
	// carved from batch-allocated arrays instead of allocated one by one.
	// Frames are never recycled — a block is garbage-collected as a whole
	// once every frame carved from it has been dropped — so pointer
	// identity and immutability are exactly as with individual allocations.
	// Touched only by the workload goroutine (like frameID).
	frameBlk []pkt.Frame

	// Coroutine handshake. next/stop drive the workload; yield (captured at
	// coroutine start) hands a request to the engine from inside call. reply
	// is staged by the engine before the resume that completes a call.
	next  func() (request, bool) //simlint:snapshotsafe coroutine handles are not copyable: restore re-creates the coroutine and replays the quantum deterministically
	stop  func()                 //simlint:snapshotsafe coroutine handle; see next
	yield func(request) bool     //simlint:snapshotsafe coroutine handle; see next
	reply reply

	pending     request
	havePending bool
	overhead    simtime.Duration // busy time still owed before pending completes
	recvArr     Arrival          // arrival being charged RecvOverhead
	haveRecv    bool
	started     bool
	done        bool
	doneErr     error //simlint:snapshotsafe error values are immutable; aliasing is safe
	finishedAt  simtime.Guest

	program Program            //simlint:snapshotsafe workload code, never mutated; re-bound on restore
	metrics map[string]float64 //simlint:snapshotsafe flat string->float64 map, deep-copied per checkpoint
}

// NewNode creates node id of a cluster with size nodes, running program.
func NewNode(id, size int, cfg Config, program Program) *Node {
	return &Node{
		id:      id,
		size:    size,
		cfg:     cfg,
		program: program,
		metrics: map[string]float64{},
	}
}

// ID returns the node's rank.
func (n *Node) ID() int { return n.id }

// Clock returns the node's guest clock.
func (n *Node) Clock() simtime.Guest { return n.clock.load() }

// Done reports whether the workload has finished.
func (n *Node) Done() bool { return n.done }

// FinishedAt returns the guest time at which the workload finished.
func (n *Node) FinishedAt() simtime.Guest { return n.finishedAt }

// Err returns the workload's error, if any.
func (n *Node) Err() error { return n.doneErr }

// Metrics returns the metrics the workload reported via Proc.Report.
func (n *Node) Metrics() map[string]float64 { return n.metrics }

// BeginQuantum sets the guest-time limit (absolute) for the next quantum.
func (n *Node) BeginQuantum(limit simtime.Guest) {
	if limit < n.clock.load() {
		panic(fmt.Sprintf("guest: node %d quantum limit %v before clock %v", n.id, limit, n.clock.load()))
	}
	n.limit = limit
}

// Deliver makes frame visible to the node at guest time arr. arr may be in
// the node's already-simulated past (a straggler delivered mid-segment); the
// frame then becomes visible at the next Recv, exactly as a late interrupt
// would in a real full-system simulator.
//
// Equal-arrival frames are consumed in Frame.ID order — an intrinsic,
// canonical tie-break (IDs encode (source, per-source sequence)) — rather
// than in delivery order. This keeps the receive order independent of
// *when* the controller routed the frames, which is what lets the engine's
// barrier-routed parallel fast path and the classic event-queue path feed
// identical frame sequences to the workload.
func (n *Node) Deliver(f *pkt.Frame, arr simtime.Guest) {
	n.rxMu.Lock()
	n.rx.PushPri(int64(arr), int(f.ID), f)
	n.rxMu.Unlock()
}

// DeliverBatch delivers a run of arrivals under one lock acquisition — the
// batched barrier router's per-destination tail. Ordering semantics are
// identical to repeated Deliver calls: the receive queue orders by
// (arrival time, Frame.ID, push sequence), so batch boundaries are
// invisible to the workload.
func (n *Node) DeliverBatch(batch []Arrival) {
	if len(batch) == 0 {
		return
	}
	n.rxMu.Lock()
	for _, a := range batch {
		n.rx.PushPri(int64(a.Time), int(a.Frame.ID), a.Frame)
	}
	n.rxMu.Unlock()
}

// WakeAt advances the node's clock to g (idle time passed while blocked or
// at a barrier). g must not be before the current clock or past the limit.
func (n *Node) WakeAt(g simtime.Guest) {
	if g < n.clock.load() {
		panic(fmt.Sprintf("guest: node %d woken at %v before clock %v", n.id, g, n.clock.load()))
	}
	if g > n.limit {
		panic(fmt.Sprintf("guest: node %d woken at %v past limit %v", n.id, g, n.limit))
	}
	n.clock.store(g)
}

// Step advances the node until its next externally visible event and reports
// it. The engine must call BeginQuantum before the first Step of each
// quantum, account host time for every StepBusy interval, and call Step
// again afterwards.
//
// Stepping is self-contained: Step, BeginQuantum, and WakeAt touch only
// this node's state (the private clock, limit, receive queue, and the
// handshake with this node's workload goroutine), never shared controller
// state. Different nodes may therefore be stepped by different goroutines
// concurrently. Calls on a single node must still be serialized, but may
// migrate between goroutines across quanta as long as a happens-before
// edge (e.g. the engine's barrier) separates the old stepper from the new
// one. Deliver and Clock remain safe to call from any goroutine.
func (n *Node) Step() Step {
	if n.done {
		return Step{Kind: StepDone, From: n.clock.load(), To: n.clock.load(), Err: n.doneErr}
	}
	if !n.started {
		n.started = true
		n.next, n.stop = iter.Pull(n.coroutine)
	}
	for {
		if !n.havePending {
			req, ok := n.next()
			if !ok {
				// The coroutine body always yields opDone last, so this is
				// unreachable short of a runtime defect.
				panic("guest: workload coroutine ended without opDone")
			}
			n.pending = req
			n.havePending = true
			switch req.kind {
			case opCompute:
				n.overhead = req.dur
			case opSend:
				n.overhead = n.cfg.SendOverhead
			case opRecv, opSleep, opDone:
				n.overhead = 0
			}
		}
		req := n.pending

		// A recv that already holds its arrival is just finishing its
		// receive-side CPU overhead.
		if n.haveRecv {
			if step, ok := n.chargeBusy(); !ok {
				return step
			}
			arr := n.recvArr
			n.haveRecv = false
			n.complete(reply{arrival: arr, hasArr: true})
			continue
		}

		switch req.kind {
		case opCompute:
			if step, ok := n.chargeBusy(); !ok {
				return step
			}
			n.complete(reply{})

		case opSend:
			if step, ok := n.chargeBusy(); !ok {
				return step
			}
			f := req.frame
			n.complete(reply{})
			return Step{Kind: StepSend, From: n.clock.load(), To: n.clock.load(), Frame: f}

		case opRecv:
			now := n.clock.load()
			n.rxMu.Lock()
			if it, ok := n.rx.Peek(); ok && simtime.Guest(it.Time) <= now {
				n.rx.Pop()
				n.rxMu.Unlock()
				n.recvArr = Arrival{Frame: it.Payload, Time: simtime.Guest(it.Time)}
				n.haveRecv = true
				n.overhead = n.cfg.RecvOverhead
				continue
			}
			next := simtime.GuestInfinity
			if it, ok := n.rx.Peek(); ok {
				next = simtime.Guest(it.Time)
			}
			n.rxMu.Unlock()
			if req.deadline <= now {
				// Deadline already passed with nothing deliverable.
				n.complete(reply{})
				continue
			}
			if next <= now {
				// Unreachable given the branch above, but keep the
				// invariant explicit.
				panic("guest: queued arrival not delivered")
			}
			return Step{Kind: StepBlocked, From: now, To: now, NextArrival: next, Deadline: req.deadline}

		case opSleep:
			now := n.clock.load()
			if req.deadline <= now {
				n.complete(reply{})
				continue
			}
			return Step{Kind: StepBlocked, From: now, To: now, NextArrival: simtime.GuestInfinity, Deadline: req.deadline}

		case opDone:
			n.done = true
			n.doneErr = req.err
			n.finishedAt = n.clock.load()
			n.havePending = false
			return Step{Kind: StepDone, From: n.finishedAt, To: n.finishedAt, Err: req.err}
		}
	}
}

// chargeBusy consumes the pending op's owed busy time up to the quantum
// limit. It reports (step, false) when the engine must take over (busy
// interval to account, or the limit was reached), or (_, true) when the owed
// time is fully consumed.
func (n *Node) chargeBusy() (Step, bool) {
	if n.overhead <= 0 {
		return Step{}, true
	}
	now := n.clock.load()
	if now >= n.limit {
		return Step{Kind: StepLimit, From: now, To: now}, false
	}
	adv := simtime.MinDuration(n.overhead, n.limit.Sub(now))
	n.clock.store(now.Add(adv))
	n.overhead -= adv
	return Step{Kind: StepBusy, From: now, To: now.Add(adv)}, false
}

// complete stages the reply the workload will read when the engine's next
// resume returns control to its suspended call.
func (n *Node) complete(r reply) {
	n.havePending = false
	n.reply = r
}

// frameBlkLen is the frame block size: big enough to amortize allocation,
// small enough that a retained frame pins only a few KB of block.
const frameBlkLen = 64

// newFrame carves one zeroed frame from the node's block. Workload-goroutine
// only (called via Proc.Send/Broadcast).
func (n *Node) newFrame() *pkt.Frame {
	if len(n.frameBlk) == 0 {
		n.frameBlk = make([]pkt.Frame, frameBlkLen)
	}
	f := &n.frameBlk[0]
	n.frameBlk = n.frameBlk[1:]
	return f
}

type poisonError struct{}

func (poisonError) Error() string { return "guest: node shut down" }

// Shutdown terminates the node's workload coroutine. A still-running
// workload is unwound: the coroutine's pending yield returns false, call
// panics with the poison sentinel, and the coroutine body runs to
// completion before stop returns. A finished workload's coroutine is parked
// at its final yield and is released the same way, leaving doneErr and
// finishedAt as the workload left them. Safe to call on never-started
// nodes and more than once.
func (n *Node) Shutdown() {
	if !n.started {
		return
	}
	n.stop()
	if n.done {
		return
	}
	// The coroutine body has run to completion under stop and recorded the
	// poison sentinel in doneErr before its final yield.
	n.done = true
	n.finishedAt = n.clock.load()
}

// coroutine is the workload side of the handshake; it runs inside the
// iter.Pull coroutine and always yields an opDone request last, whether the
// program returned, failed, or was poisoned by Shutdown.
func (n *Node) coroutine(yield func(request) bool) {
	n.yield = yield
	p := &Proc{n: n}
	var err error
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(poisonError); ok {
					err = poisonError{}
					return
				}
				panic(r)
			}
		}()
		err = n.program(p)
	}()
	n.doneErr = err
	yield(request{kind: opDone, err: err})
}

// call issues one workload request and suspends until the engine's reply.
// Runs inside the coroutine; a false yield means the engine is tearing the
// node down via stop.
func (n *Node) call(req request) reply {
	if !n.yield(req) {
		panic(poisonError{})
	}
	return n.reply
}
