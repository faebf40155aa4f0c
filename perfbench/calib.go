package main

import (
	"math"
	"time"
)

// calNominal is the calibration's best time on the quiet reference host
// (2-vCPU Xeon VM, go1.24). When the host's neighbours load it for longer
// than a run, the calibration slows with the simulator: in five runs each
// of wan64_graded and paper_grid made in such a period, the calls' best
// times spread 8% and 13% and their ratio to the best calibration 2% and
// 4%. When the load comes and goes within a run, the best times already
// escape it and the scaling adds a few percent of its own.
const calNominal = 7 * time.Millisecond

// calibrator times a fixed piece of work that uses none of the program's
// code, to track the host's speed while a run goes on.
type calibrator struct {
	heap []calEvent
	// sink keeps the compiler from dropping the computation.
	sink float64
}

type calEvent struct {
	at int64
	id int32
}

// calHeapSize and calSteps fix the calibration's work: a 512 KB event
// heap, rebuilt and then churned by pops and pushes, each step also
// drawing a jittered float, roughly the mix of the simulator's event queue
// and host model.
const (
	calHeapSize = 1 << 15
	calSteps    = 60000
)

func newCalibrator() *calibrator {
	return &calibrator{heap: make([]calEvent, 0, calHeapSize)}
}

// run does the calibration once and returns its wall time. The caller
// collects the garbage first, so that no collection overlaps it.
func (c *calibrator) run() time.Duration {
	start := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	h := c.heap[:0]
	for i := 0; i < calHeapSize; i++ {
		h = calPush(h, calEvent{at: int64(next() >> 40), id: int32(i)})
	}
	acc := 0.0
	for i := 0; i < calSteps; i++ {
		var e calEvent
		h, e = calPop(h)
		r := next()
		acc += math.Exp(-float64(r>>44) / float64(1<<20))
		e.at += int64(r>>50) + 1
		h = calPush(h, e)
	}
	c.heap = h
	c.sink += acc
	return time.Since(start)
}

func calPush(h []calEvent, e calEvent) []calEvent {
	h = append(h, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].at <= h[i].at {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

func calPop(h []calEvent) ([]calEvent, calEvent) {
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && h[r].at < h[l].at {
			m = r
		}
		if h[i].at <= h[m].at {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return h, top
}
