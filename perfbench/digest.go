package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"sort"

	"clustersim/internal/cluster"
	"clustersim/internal/experiments"
)

// goldenJSON holds the digest of every call on the default seed, keyed by
// workload and call name. Regenerate with -write-golden after a change that
// is meant to alter simulated results.
//
//go:embed golden.json
var goldenJSON []byte

func loadGolden() (map[string]map[string]string, error) {
	var g map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// The digests are the benchmark's own, over the named fields below, rather
// than cluster.Fingerprint: a later change to the fingerprint's schema must
// not read as a changed simulation. Floats are hashed by their bits, so a
// speed-only change must leave every digest identical.

func putFloat(h hash.Hash, v float64) { fmt.Fprintf(h, "%x;", math.Float64bits(v)) }

func putStats(h hash.Hash, s cluster.Stats) {
	fmt.Fprintf(h, "stats %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d;",
		s.Quanta, s.Packets, s.Deliveries, s.Exact, s.Stragglers, s.QuantumSnaps,
		s.StragglerDelay, s.Dropped, s.Duplicated, s.HostBusy, s.HostIdle, s.HostBarrier,
		s.MinQ, s.MaxQ, s.MeanQ, s.SilentQuanta,
		s.FastFullQuanta, s.FastPartialQuanta, s.FastNodeQuanta, s.PartialPartitions)
}

// digestResult covers a cluster.Run result: guest and host time, every
// node's finish time and metrics, and the controller statistics.
func digestResult(r *cluster.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "guest %d host %d;", r.GuestTime, r.HostTime)
	for _, f := range r.NodeFinish {
		fmt.Fprintf(h, "%d;", f)
	}
	for i, m := range r.Metrics {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(h, "node %d:", i)
		for _, k := range keys {
			fmt.Fprintf(h, "%s=", k)
			putFloat(h, m[k])
		}
	}
	putStats(h, r.Stats)
	return hex.EncodeToString(h.Sum(nil))
}

// digestGrid covers a Fig6/Fig7 result: the aggregated rows, which depend
// on the hidden ground-truth runs, and every cell.
func digestGrid(rows []experiments.AggRow, cells []experiments.Cell) string {
	h := sha256.New()
	for _, r := range rows {
		fmt.Fprintf(h, "row %s %d ", r.Config, r.Nodes)
		putFloat(h, r.AccErr)
		putFloat(h, r.Speedup)
	}
	for _, c := range cells {
		fmt.Fprintf(h, "cell %s %d %s guest %d host %d ", c.Workload, c.Nodes, c.Config, c.GuestTime, c.HostTime)
		putFloat(h, c.Metric)
		putFloat(h, c.BaseMetric)
		putFloat(h, c.AccErr)
		putFloat(h, c.Speedup)
		putStats(h, c.Stats)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkSims returns the invariants, true on any seed, that the visible
// simulations break: ground truth makes no stragglers, and runs without a
// fault plan drop and duplicate nothing.
func checkSims(sims []sim) []string {
	var bad []string
	for _, s := range sims {
		if s.groundTruth && s.stats.Stragglers != 0 {
			bad = append(bad, fmt.Sprintf("ground truth on %d nodes made %d stragglers", s.nodes, s.stats.Stragglers))
		}
		if !s.faulty && (s.stats.Dropped != 0 || s.stats.Duplicated != 0) {
			bad = append(bad, fmt.Sprintf("fault-free run on %d nodes dropped %d, duplicated %d", s.nodes, s.stats.Dropped, s.stats.Duplicated))
		}
		if s.stats.Quanta == 0 {
			bad = append(bad, fmt.Sprintf("run on %d nodes executed no quanta", s.nodes))
		}
	}
	return bad
}
