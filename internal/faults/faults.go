// Package faults provides deterministic, seeded fault injection for the
// cluster engines: per-link packet loss, duplication, extra delay jitter,
// link-down windows, and per-node host slowdown factors.
//
// Every per-frame decision is a pure function of (Plan.Seed, Frame.ID, src,
// dst, tSend) computed with internal/rng's stateless hash. No fault decision
// reads or mutates shared state, so outcomes are bit-identical regardless of
// how many workers route frames or in which order, and a run is fully
// replayable from its Config. Injected delay only ever *increases* a frame's
// arrival time, preserving the engine's Q <= T fast-path safety argument.
package faults

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"clustersim/internal/rng"
	"clustersim/internal/simtime"
)

// Hash-domain separators: the purpose constant is mixed into every draw so
// the loss, duplication and jitter decisions for one frame are independent
// streams even though they share (seed, frame, link) inputs.
const (
	purposeLoss uint64 = 0x10c5 + iota
	purposeDup
	purposeJitter
	purposeDupJitter
)

// Window is a half-open guest-time interval [Start, End).
type Window struct {
	Start simtime.Guest
	End   simtime.Guest
}

// contains reports whether t falls inside the window.
func (w Window) contains(t simtime.Guest) bool { return t >= w.Start && t < w.End }

// Link describes the fault behaviour of one directed link (or the plan-wide
// default). The zero value is a perfect link.
type Link struct {
	// Loss is the per-frame drop probability in [0, 1).
	Loss float64
	// Dup is the per-frame duplication probability in [0, 1]. A duplicated
	// frame is delivered twice; each copy is classified independently by
	// the engine. Unlike Loss, 1 is allowed: duplicating every frame is a
	// well-defined deterministic stress mode.
	Dup float64
	// Jitter is the maximum extra one-way delay. Each frame (and each
	// duplicate copy) independently draws a uniform extra delay in
	// [0, Jitter]. Extra delay is always non-negative.
	Jitter simtime.Duration
	// Down lists guest-time windows during which the link drops every
	// frame whose send time falls inside [Start, End).
	Down []Window
}

// zero reports whether the link injects no faults at all.
func (l Link) zero() bool {
	return l.Loss == 0 && l.Dup == 0 && l.Jitter == 0 && len(l.Down) == 0
}

// LinkKey names one directed link.
type LinkKey struct {
	Src, Dst int
}

// Decision is the fault outcome for one routed frame.
type Decision struct {
	// Drop discards the frame before delivery. When set, the remaining
	// fields are zero.
	Drop bool
	// Dup delivers a second copy of the frame.
	Dup bool
	// Delay is extra arrival delay for the (first) copy, in [0, Jitter].
	Delay simtime.Duration
	// DupDelay is extra arrival delay for the duplicate copy, drawn
	// independently from the same [0, Jitter] range. Only meaningful when
	// Dup is set.
	DupDelay simtime.Duration
}

// Plan is a complete fault-injection schedule. A nil *Plan means no faults
// and costs nothing; the engines nil-check it once per frame.
type Plan struct {
	// Seed keys every probabilistic decision. Two runs with equal plans
	// are bit-identical; changing the seed redraws every outcome.
	Seed uint64
	// Default applies to every directed link without an entry in Links.
	Default Link
	// Links overrides Default per directed (src, dst) link.
	Links map[LinkKey]Link
	// NodeSlowdown scales a node's host-time costs: factor 2 means the
	// node's simulator runs twice as slowly in host time. Absent nodes run
	// at factor 1. Factors must be positive.
	NodeSlowdown map[int]float64
}

// link resolves the effective Link for a directed pair.
func (p *Plan) link(src, dst int) Link {
	if l, ok := p.Links[LinkKey{src, dst}]; ok {
		return l
	}
	return p.Default
}

// Decide returns the fault outcome for one frame. It is a pure function of
// (p.Seed, frameID, src, dst, tSend): no state is read or written, so it is
// safe to call from any goroutine and yields the same answer at every call
// site — the property that keeps fault runs worker-count invariant.
func (p *Plan) Decide(frameID uint64, src, dst int, tSend simtime.Guest) Decision {
	l := p.link(src, dst)
	if l.zero() {
		return Decision{}
	}
	for _, w := range l.Down {
		if w.contains(tSend) {
			return Decision{Drop: true}
		}
	}
	s, d := uint64(src), uint64(dst)
	if l.Loss > 0 && rng.HashFloat01(p.Seed, purposeLoss, frameID, s, d) < l.Loss {
		return Decision{Drop: true}
	}
	var dec Decision
	if l.Jitter > 0 {
		dec.Delay = simtime.Duration(rng.HashFloat01(p.Seed, purposeJitter, frameID, s, d) * float64(l.Jitter))
	}
	// HashFloat01 draws from the open interval (0, 1), so Dup == 1
	// duplicates every frame.
	if l.Dup > 0 && rng.HashFloat01(p.Seed, purposeDup, frameID, s, d) < l.Dup {
		dec.Dup = true
		if l.Jitter > 0 {
			dec.DupDelay = simtime.Duration(rng.HashFloat01(p.Seed, purposeDupJitter, frameID, s, d) * float64(l.Jitter))
		}
	}
	return dec
}

// Slowdown returns the host slowdown factor for a node (1 when unset).
func (p *Plan) Slowdown(node int) float64 {
	if f, ok := p.NodeSlowdown[node]; ok {
		return f
	}
	return 1
}

// HasSlowdown reports whether any node runs at a factor other than 1.
func (p *Plan) HasSlowdown() bool {
	//simlint:maporder existence predicate: the result is the same whichever order the entries are visited
	for _, f := range p.NodeSlowdown {
		if f != 1 {
			return true
		}
	}
	return false
}

// validateLink checks one link's parameters.
func validateLink(name string, l Link) error {
	if l.Loss < 0 || l.Loss >= 1 {
		return fmt.Errorf("faults: %s loss %v outside [0, 1)", name, l.Loss)
	}
	if l.Dup < 0 || l.Dup > 1 {
		return fmt.Errorf("faults: %s dup %v outside [0, 1]", name, l.Dup)
	}
	if l.Jitter < 0 {
		return fmt.Errorf("faults: %s negative jitter %v", name, l.Jitter)
	}
	for _, w := range l.Down {
		if w.End < w.Start {
			return fmt.Errorf("faults: %s down window %v-%v ends before it starts", name, w.Start, w.End)
		}
	}
	return nil
}

// Validate checks the plan's parameters. A nil plan is valid.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	if err := validateLink("default link", p.Default); err != nil {
		return err
	}
	// Walk keys in sorted order so a plan with several invalid entries
	// reports the same (first) error on every run; ranging the maps
	// directly made the reported error depend on map iteration order.
	for _, k := range sortedLinkKeys(p.Links) {
		if err := validateLink(fmt.Sprintf("link %d->%d", k.Src, k.Dst), p.Links[k]); err != nil {
			return err
		}
	}
	for _, n := range sortedSlowdownNodes(p.NodeSlowdown) {
		if f := p.NodeSlowdown[n]; f <= 0 {
			return fmt.Errorf("faults: node %d slowdown %v must be positive", n, f)
		}
	}
	return nil
}

// ValidateNodes checks that every node the plan names — each Links
// endpoint and each NodeSlowdown key — lies in [0, nodes): a fault aimed
// at a node outside the cluster would otherwise be accepted and never fire.
// A nil plan is valid.
func (p *Plan) ValidateNodes(nodes int) error {
	if p == nil {
		return nil
	}
	in := func(n int) bool { return n >= 0 && n < nodes }
	for _, k := range sortedLinkKeys(p.Links) {
		if !in(k.Src) || !in(k.Dst) {
			return fmt.Errorf("faults: link %d->%d outside the %d-node cluster", k.Src, k.Dst, nodes)
		}
	}
	for _, n := range sortedSlowdownNodes(p.NodeSlowdown) {
		if !in(n) {
			return fmt.Errorf("faults: slowdown node %d outside the %d-node cluster", n, nodes)
		}
	}
	return nil
}

// sortedLinkKeys returns the plan's link keys in (src, dst) order.
func sortedLinkKeys(links map[LinkKey]Link) []LinkKey {
	lks := make([]LinkKey, 0, len(links))
	for k := range links {
		lks = append(lks, k)
	}
	sort.Slice(lks, func(i, j int) bool {
		if lks[i].Src != lks[j].Src {
			return lks[i].Src < lks[j].Src
		}
		return lks[i].Dst < lks[j].Dst
	})
	return lks
}

// sortedSlowdownNodes returns the slowdown map's node ids in ascending order.
func sortedSlowdownNodes(slow map[int]float64) []int {
	nodes := make([]int, 0, len(slow))
	for n := range slow {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	return nodes
}

// Key returns a canonical fingerprint of the plan, suitable for memoization
// keys (equal fingerprints imply identical fault behaviour). A nil plan's
// key is the empty string.
func (p *Plan) Key() string {
	if p == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d;%s", p.Seed, linkKeyStr(p.Default))
	for _, k := range sortedLinkKeys(p.Links) {
		fmt.Fprintf(&b, ";%d->%d:%s", k.Src, k.Dst, linkKeyStr(p.Links[k]))
	}
	for _, n := range sortedSlowdownNodes(p.NodeSlowdown) {
		fmt.Fprintf(&b, ";slow%d=%g", n, p.NodeSlowdown[n])
	}
	return b.String()
}

func linkKeyStr(l Link) string {
	var b strings.Builder
	fmt.Fprintf(&b, "loss=%g,dup=%g,jitter=%d", l.Loss, l.Dup, int64(l.Jitter))
	for _, w := range l.Down {
		fmt.Fprintf(&b, ",down=%d-%d", int64(w.Start), int64(w.End))
	}
	return b.String()
}

// Parse builds a Plan from a CLI spec string and seed. The spec is a
// comma-separated list of key=value fields applied to the default link,
// plus per-node slowdowns:
//
//	loss=0.01            per-frame drop probability
//	dup=0.001            per-frame duplication probability
//	jitter=5us           max extra one-way delay
//	down=10ms-12ms       link-down window (repeatable)
//	slow=3:2.5           node 3 runs at 2.5x host slowdown (repeatable)
//
// An empty spec returns a nil plan (no faults). The returned plan is
// validated.
func Parse(spec string, seed uint64) (*Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	p := &Plan{Seed: seed}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("faults: field %q is not key=value", field)
		}
		switch key {
		case "loss":
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: bad loss %q: %v", val, err)
			}
			p.Default.Loss = v
		case "dup":
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: bad dup %q: %v", val, err)
			}
			p.Default.Dup = v
		case "jitter":
			d, err := simtime.ParseDuration(val)
			if err != nil {
				return nil, fmt.Errorf("faults: bad jitter %q: %v", val, err)
			}
			p.Default.Jitter = d
		case "down":
			a, b, ok := strings.Cut(val, "-")
			if !ok {
				return nil, fmt.Errorf("faults: down window %q is not start-end", val)
			}
			start, err := simtime.ParseDuration(a)
			if err != nil {
				return nil, fmt.Errorf("faults: bad down start %q: %v", a, err)
			}
			end, err := simtime.ParseDuration(b)
			if err != nil {
				return nil, fmt.Errorf("faults: bad down end %q: %v", b, err)
			}
			p.Default.Down = append(p.Default.Down, Window{Start: simtime.Guest(start), End: simtime.Guest(end)})
		case "slow":
			n, f, ok := strings.Cut(val, ":")
			if !ok {
				return nil, fmt.Errorf("faults: slowdown %q is not node:factor", val)
			}
			node, err := strconv.Atoi(n)
			if err != nil {
				return nil, fmt.Errorf("faults: bad slowdown node %q: %v", n, err)
			}
			factor, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: bad slowdown factor %q: %v", f, err)
			}
			if p.NodeSlowdown == nil {
				p.NodeSlowdown = map[int]float64{}
			}
			p.NodeSlowdown[node] = factor
		default:
			return nil, fmt.Errorf("faults: unknown field %q (want loss, dup, jitter, down, slow)", key)
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
