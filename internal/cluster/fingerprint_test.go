package cluster

import (
	"reflect"
	"strings"
	"testing"

	"clustersim/internal/faults"
	"clustersim/internal/simtime"
	"clustersim/internal/workloads"
)

// The fingerprint must be insensitive to packet stream order (the one
// engine-path difference the equivalence tests allow) and sensitive to
// everything else a Result asserts.
func TestFingerprintCanonicalization(t *testing.T) {
	base := func() *Result {
		cfg := testConfig(3, workloads.Uniform(40, 1500, 25*simtime.Microsecond, 5), fixed(simtime.Microsecond))
		cfg.TraceQuanta = true
		cfg.TracePackets = true
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	a, b := base(), base()
	if Fingerprint(a) != Fingerprint(b) {
		t.Fatal("identical runs produced different fingerprints")
	}
	if len(a.Packets) < 2 {
		t.Fatal("run routed too few packets to test order insensitivity")
	}

	// Reversing the packet stream must not change the fingerprint...
	rev := *a
	rev.Packets = append([]PacketRecord(nil), a.Packets...)
	for i, j := 0, len(rev.Packets)-1; i < j; i, j = i+1, j-1 {
		rev.Packets[i], rev.Packets[j] = rev.Packets[j], rev.Packets[i]
	}
	if Fingerprint(a) != Fingerprint(&rev) {
		t.Error("fingerprint depends on packet stream order")
	}

	// ...but any change to a packet, a stat, a metric, or a time must.
	mutations := []struct {
		name string
		mut  func(r *Result)
	}{
		{"guest time", func(r *Result) { r.GuestTime++ }},
		{"host time", func(r *Result) { r.HostTime++ }},
		{"policy name", func(r *Result) { r.PolicyName += "x" }},
		{"node finish", func(r *Result) { r.NodeFinish[1]++ }},
		{"stats quanta", func(r *Result) { r.Stats.Quanta++ }},
		{"stats stragglers", func(r *Result) { r.Stats.Stragglers++ }},
		{"stats graded", func(r *Result) { r.Stats.FastPartialQuanta++ }},
		{"quantum record", func(r *Result) { r.Quanta[0].Packets++ }},
		{"packet size", func(r *Result) { r.Packets[0].Size++ }},
		{"packet dropped bit", func(r *Result) { r.Packets[0].Dropped = !r.Packets[0].Dropped }},
		{"metric value", func(r *Result) {
			for k := range r.Metrics[0] {
				r.Metrics[0][k]++
				break
			}
		}},
	}
	want := Fingerprint(a)
	for _, m := range mutations {
		r := base()
		m.mut(r)
		if Fingerprint(r) == want {
			t.Errorf("mutation %q did not change the fingerprint", m.name)
		}
	}
}

// The canonical bytes are versioned and structured; spot-check the header so
// a schema bump cannot happen silently.
func TestCanonicalResultHeader(t *testing.T) {
	cfg := testConfig(2, workloads.PingPong(5, 500), fixed(simtime.Microsecond))
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	enc := string(CanonicalResult(res))
	if !strings.HasPrefix(enc, FingerprintSchema+"\n") {
		t.Errorf("canonical encoding does not start with the schema line:\n%s", enc[:80])
	}
	if !strings.Contains(enc, "\nstats ") {
		t.Error("canonical encoding lacks a stats line")
	}
}

// SortPacketsCanonical must be a pure reordering: same multiset, and a
// total order (sorting twice, or sorting a shuffled copy, is stable).
func TestSortPacketsCanonicalIsTotal(t *testing.T) {
	cfg := testConfig(4, workloads.Uniform(60, 1500, 20*simtime.Microsecond, 23), fixed(simtime.Microsecond))
	cfg.TracePackets = true
	cfg.Faults = &faults.Plan{Seed: 42, Default: faults.Link{Loss: 0.3}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sorted := SortPacketsCanonical(res.Packets)
	if len(sorted) != len(res.Packets) {
		t.Fatalf("sort changed length: %d -> %d", len(res.Packets), len(sorted))
	}
	rev := append([]PacketRecord(nil), res.Packets...)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	if !reflect.DeepEqual(sorted, SortPacketsCanonical(rev)) {
		t.Error("canonical order depends on input order")
	}
}
