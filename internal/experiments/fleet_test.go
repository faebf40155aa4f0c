package experiments

import (
	"strings"
	"testing"
)

// tinyManifest is a fast three-scenario fleet touching all three execution
// shapes: the event-queue walk (Q above every latency), the all-loose walk,
// and the graded mixedwan geometry.
const tinyManifest = `{
  "schema": "clustersim-fleet-manifest/1",
  "scenarios": [
    {"name": "classic", "workload": "pingpong", "nodes": 2, "quantum": "2us",
     "max_guest": "5ms"},
    {"name": "fast", "workload": "pingpong", "nodes": 4, "quantum": "1us",
     "max_guest": "5ms"},
    {"name": "graded", "workload": "uniform", "nodes": 6, "quantum": "5us",
     "topo": "mixedwan:4:500ns:50us", "max_guest": "50ms"}
  ]
}`

func parseTiny(t *testing.T) *Manifest {
	t.Helper()
	m, err := ParseManifest(strings.NewReader(tinyManifest))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestParseManifestValidation(t *testing.T) {
	cases := []struct {
		name, json, want string
	}{
		{"bad schema", `{"schema": "nope/9", "scenarios": [{"name": "a", "workload": "pingpong", "nodes": 2}]}`, "schema"},
		{"no scenarios", `{"schema": "clustersim-fleet-manifest/1", "scenarios": []}`, "no scenarios"},
		{"missing name", `{"schema": "clustersim-fleet-manifest/1", "scenarios": [{"workload": "pingpong", "nodes": 2}]}`, "no name"},
		{"duplicate name", `{"schema": "clustersim-fleet-manifest/1", "scenarios": [
			{"name": "a", "workload": "pingpong", "nodes": 2},
			{"name": "a", "workload": "pingpong", "nodes": 2}]}`, "duplicate"},
		{"unknown workload", `{"schema": "clustersim-fleet-manifest/1", "scenarios": [{"name": "a", "workload": "wat", "nodes": 2}]}`, "unknown workload"},
		{"zero nodes", `{"schema": "clustersim-fleet-manifest/1", "scenarios": [{"name": "a", "workload": "pingpong"}]}`, "nodes"},
		{"bad quantum", `{"schema": "clustersim-fleet-manifest/1", "scenarios": [{"name": "a", "workload": "pingpong", "nodes": 2, "quantum": "fast"}]}`, "quantum"},
		{"negative quantum", `{"schema": "clustersim-fleet-manifest/1", "scenarios": [{"name": "a", "workload": "pingpong", "nodes": 2, "quantum": "-1us"}]}`, "positive"},
		{"bad dyn", `{"schema": "clustersim-fleet-manifest/1", "scenarios": [{"name": "a", "workload": "pingpong", "nodes": 2, "dyn": "1us:1ms"}]}`, "dyn"},
		{"dyn zero factors", `{"schema": "clustersim-fleet-manifest/1", "scenarios": [{"name": "a", "workload": "pingpong", "nodes": 2, "dyn": "1us:1ms:0:0"}]}`, "Inc"},
		{"dyn inverted bounds", `{"schema": "clustersim-fleet-manifest/1", "scenarios": [{"name": "a", "workload": "pingpong", "nodes": 2, "dyn": "1ms:1us:1.03:0.02"}]}`, "Max"},
		{"bad topo", `{"schema": "clustersim-fleet-manifest/1", "scenarios": [{"name": "a", "workload": "pingpong", "nodes": 2, "topo": "ring:4"}]}`, "topo"},
		{"negative rack edge latency", `{"schema": "clustersim-fleet-manifest/1", "scenarios": [{"name": "a", "workload": "pingpong", "nodes": 2, "topo": "rack:4:-1us:2us"}]}`, "edge latency"},
		{"zero rack core latency", `{"schema": "clustersim-fleet-manifest/1", "scenarios": [{"name": "a", "workload": "pingpong", "nodes": 2, "topo": "rack:4:500ns:0s"}]}`, "core latency"},
		{"negative wan latency", `{"schema": "clustersim-fleet-manifest/1", "scenarios": [{"name": "a", "workload": "pingpong", "nodes": 2, "topo": "mixedwan:4:500ns:-50us"}]}`, "wan latency"},
		{"bad lookahead", `{"schema": "clustersim-fleet-manifest/1", "scenarios": [{"name": "a", "workload": "pingpong", "nodes": 2, "lookahead": "psychic"}]}`, "lookahead"},
		{"bad faults", `{"schema": "clustersim-fleet-manifest/1", "scenarios": [{"name": "a", "workload": "pingpong", "nodes": 2, "faults": "chaos=1"}]}`, "chaos"},
		{"faults slowdown node past the cluster", `{"schema": "clustersim-fleet-manifest/1", "scenarios": [{"name": "a", "workload": "pingpong", "nodes": 2, "faults": "slow=2:2"}]}`, "slowdown node 2 outside the 2-node cluster"},
		{"faults negative slowdown node", `{"schema": "clustersim-fleet-manifest/1", "scenarios": [{"name": "a", "workload": "pingpong", "nodes": 2, "faults": "slow=-1:2"}]}`, "slowdown node -1 outside"},
		{"retired workers field", `{"schema": "clustersim-fleet-manifest/1", "scenarios": [{"name": "a", "workload": "pingpong", "nodes": 2, "workers": [0]}]}`, "workers"},
		{"unknown field", `{"schema": "clustersim-fleet-manifest/1", "scenarios": [{"name": "a", "workload": "pingpong", "nodes": 2, "qantum": "1us"}]}`, "qantum"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseManifest(strings.NewReader(c.json))
			if err == nil {
				t.Fatal("manifest accepted, want error")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
	if m := parseTiny(t); len(m.Scenarios) != 3 {
		t.Errorf("tiny manifest parsed %d scenarios, want 3", len(m.Scenarios))
	}
}

// The fleet must be deterministic end to end: outcomes in manifest order,
// both execution strategies bit-identical, and two full fleet runs
// byte-equal.
func TestRunFleetDeterministic(t *testing.T) {
	m := parseTiny(t)
	run := func() []ScenarioOutcome { return RunFleet(m, 2, nil) }
	a, b := run(), run()
	if len(a) != len(m.Scenarios) {
		t.Fatalf("got %d outcomes, want %d", len(a), len(m.Scenarios))
	}
	for i, o := range a {
		if o.Name != m.Scenarios[i].Name {
			t.Errorf("outcome %d is %q, want manifest order %q", i, o.Name, m.Scenarios[i].Name)
		}
		if o.Err != nil {
			t.Errorf("%s: %v", o.Name, o.Err)
		}
		if o.Mismatch != "" {
			t.Errorf("%s: %s", o.Name, o.Mismatch)
		}
		if len(o.Fingerprint) != 64 {
			t.Errorf("%s: fingerprint %q is not a sha256 hex", o.Name, o.Fingerprint)
		}
		if o.Fingerprint != b[i].Fingerprint {
			t.Errorf("%s: fingerprint differs across fleet runs", o.Name)
		}
	}
	// Distinct scenarios must not collide.
	if a[0].Fingerprint == a[1].Fingerprint || a[1].Fingerprint == a[2].Fingerprint {
		t.Error("distinct scenarios produced equal fingerprints")
	}
}

func TestGoldenRoundTripAndDiff(t *testing.T) {
	m := parseTiny(t)
	outcomes := RunFleet(m, 0, nil)
	g, err := BuildGolden(outcomes)
	if err != nil {
		t.Fatal(err)
	}
	if d := DiffGolden(outcomes, g); !d.Empty() {
		t.Fatalf("self-diff not empty:\n%s", d.JSON())
	}

	// A changed fingerprint is reported by name.
	bent := *g
	bent.Scenarios = append([]GoldenEntry(nil), g.Scenarios...)
	for i := range bent.Scenarios {
		if bent.Scenarios[i].Name == "fast" {
			bent.Scenarios[i].Fingerprint = strings.Repeat("0", 64)
		}
	}
	d := DiffGolden(outcomes, &bent)
	if len(d.Changed) != 1 || d.Changed[0].Name != "fast" {
		t.Errorf("changed = %+v, want exactly scenario fast", d.Changed)
	}

	// A scenario absent from the golden is missing; a golden entry no
	// longer in the manifest is extra.
	short := *g
	short.Scenarios = g.Scenarios[1:]
	d = DiffGolden(outcomes, &short)
	if len(d.Missing) != 1 || d.Missing[0] != g.Scenarios[0].Name {
		t.Errorf("missing = %v, want [%s]", d.Missing, g.Scenarios[0].Name)
	}
	d = DiffGolden(outcomes[1:], g)
	if len(d.Extra) != 1 || d.Extra[0] != outcomes[0].Name {
		t.Errorf("extra = %v, want [%s]", d.Extra, outcomes[0].Name)
	}

	// An encoding bump is called out explicitly.
	old := *g
	old.FingerprintSchema = "clustersim-fp/0"
	if d := DiffGolden(outcomes, &old); d.EncodingChanged == "" {
		t.Error("fingerprint-schema mismatch not reported")
	}

	// A failed scenario lands in Failed, never silently in Changed.
	broken := append([]ScenarioOutcome(nil), outcomes...)
	broken[2].Mismatch = "synthetic divergence"
	d = DiffGolden(broken, g)
	if len(d.Failed) != 1 || d.Failed[0].Name != broken[2].Name {
		t.Errorf("failed = %+v, want scenario %s", d.Failed, broken[2].Name)
	}
	if _, err := BuildGolden(broken); err == nil {
		t.Error("BuildGolden accepted a diverged outcome")
	}
}
