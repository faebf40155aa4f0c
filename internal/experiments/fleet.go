package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"clustersim/internal/cluster"
	"clustersim/internal/faults"
	"clustersim/internal/netmodel"
	"clustersim/internal/pkt"
	"clustersim/internal/prof"
	"clustersim/internal/quantum"
	"clustersim/internal/simtime"
	"clustersim/internal/workerpool"
	"clustersim/internal/workloads"
)

// This file implements the scenario regression fleet (DESIGN.md §13): a
// declarative manifest of simulation scenarios — topology × workload ×
// quantum policy × fault plan × lookahead mode — each executed under both
// engine execution strategies (cluster.RunReference and cluster.Run),
// fingerprinted canonically, and diffed against committed goldens.
// cmd/simfleet is the CLI; the fleet-smoke CI job and `make fleet` gate on
// it.

// ManifestSchema identifies the fleet manifest encoding.
const ManifestSchema = "clustersim-fleet-manifest/1"

// GoldenSchema identifies the committed fingerprint file encoding.
const GoldenSchema = "clustersim-fleet/1"

// Scenario is one declarative fleet entry. String fields reuse the CLI
// flag syntaxes (simtime durations, faults.Parse specs, rack topologies) so
// a scenario is a clustersim invocation made data.
type Scenario struct {
	// Name uniquely identifies the scenario; goldens are keyed on it.
	Name string `json:"name"`
	// Workload names a workload known to ResolveWorkload (nas.ep, pingpong,
	// phases, reliable-phases, uniform, silent, ...).
	Workload string `json:"workload"`
	// Scale multiplies the workload's compute phases; 0 means 1.0.
	Scale float64 `json:"scale,omitempty"`
	// Nodes is the cluster size.
	Nodes int `json:"nodes"`
	// Quantum is a fixed quantum ("100us"); Dyn, when set, selects the
	// adaptive policy as min:max:inc:dec and overrides Quantum.
	Quantum string `json:"quantum,omitempty"`
	Dyn     string `json:"dyn,omitempty"`
	// Topo overrides the paper's perfect switch: "" keeps it,
	// "rack:<radix>:<edge>:<core>" builds a two-level fat-tree, and
	// "mixedwan:<rack>:<rackLat>:<wanLat>" builds one tight rack of the
	// given size with every other node a WAN singleton — the geometry that
	// exercises the partitioned (graded) walk.
	Topo string `json:"topo,omitempty"`
	// Lookahead is "matrix" (default) or "scalar" (cluster.LookaheadMode).
	Lookahead string `json:"lookahead,omitempty"`
	// Faults is a faults.Parse spec (empty = no plan); FaultSeed keys its
	// decisions (0 means 1).
	Faults    string `json:"faults,omitempty"`
	FaultSeed uint64 `json:"fault_seed,omitempty"`
	// Seed is the host-model seed (0 means 1).
	Seed uint64 `json:"seed,omitempty"`
	// MaxGuest caps guest time ("50ms"); empty keeps the environment
	// default. Fleet scenarios should set it low enough to stay cheap.
	MaxGuest string `json:"max_guest,omitempty"`
}

// Manifest is a parsed fleet manifest.
type Manifest struct {
	Schema    string     `json:"schema"`
	Scenarios []Scenario `json:"scenarios"`
}

// ParseManifest decodes and validates a manifest: schema match, at least
// one scenario, unique names, and every scenario's string fields parseable
// — a manifest error is a configuration bug and must fail loudly before
// any simulation runs.
func ParseManifest(r io.Reader) (*Manifest, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var m Manifest
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("fleet manifest: %v", err)
	}
	if m.Schema != ManifestSchema {
		return nil, fmt.Errorf("fleet manifest: schema %q, want %q", m.Schema, ManifestSchema)
	}
	if len(m.Scenarios) == 0 {
		return nil, fmt.Errorf("fleet manifest: no scenarios")
	}
	seen := make(map[string]bool, len(m.Scenarios))
	for i := range m.Scenarios {
		sc := &m.Scenarios[i]
		if sc.Name == "" {
			return nil, fmt.Errorf("fleet manifest: scenario %d has no name", i)
		}
		if seen[sc.Name] {
			return nil, fmt.Errorf("fleet manifest: duplicate scenario name %q", sc.Name)
		}
		seen[sc.Name] = true
		if _, err := sc.config(); err != nil {
			return nil, fmt.Errorf("fleet manifest: scenario %q: %v", sc.Name, err)
		}
	}
	return &m, nil
}

// LoadManifest reads a manifest file.
func LoadManifest(path string) (*Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseManifest(f)
}

// scenarioConfig is everything a scenario resolves to before running.
type scenarioConfig struct {
	w         workloads.Workload
	env       Env
	policy    func() quantum.Policy
	plan      *faults.Plan
	lookahead cluster.LookaheadMode
}

// config resolves every string field of the scenario. It is the single
// validation point: ParseManifest calls it for fail-fast checking and the
// runner calls it again per run (it is cheap and pure).
func (sc *Scenario) config() (*scenarioConfig, error) {
	scale := sc.Scale
	if scale == 0 {
		scale = 1.0
	}
	w, err := ResolveWorkload(sc.Workload, scale)
	if err != nil {
		return nil, err
	}
	if sc.Nodes < 1 {
		return nil, fmt.Errorf("nodes must be >= 1, got %d", sc.Nodes)
	}
	policy, err := ParsePolicy(sc.Quantum, sc.Dyn)
	if err != nil {
		return nil, err
	}
	env := DefaultEnv()
	if sc.Seed != 0 {
		env.Host.Seed = sc.Seed
	}
	if sc.Topo != "" {
		sw, err := ParseTopo(sc.Topo)
		if err != nil {
			return nil, err
		}
		env.Net.Switch = sw
	}
	if sc.MaxGuest != "" {
		d, err := simtime.ParseDuration(sc.MaxGuest)
		if err != nil {
			return nil, fmt.Errorf("max_guest: %v", err)
		}
		env.MaxGuest = simtime.Guest(d)
	}
	seed := sc.FaultSeed
	if seed == 0 {
		seed = 1
	}
	plan, err := faults.Parse(sc.Faults, seed)
	if err != nil {
		return nil, err
	}
	if err := plan.ValidateNodes(sc.Nodes); err != nil {
		return nil, err
	}
	lookahead, err := ParseLookahead(sc.Lookahead)
	if err != nil {
		return nil, err
	}
	return &scenarioConfig{w: w, env: env, policy: policy, plan: plan, lookahead: lookahead}, nil
}

// ResolveWorkload maps a workload name to its runnable form with compute
// scaled by scale — the single name registry shared by clustersim's
// -workload flag and fleet manifests.
func ResolveWorkload(name string, scale float64) (workloads.Workload, error) {
	for _, w := range NASSuite(scale) {
		if w.Name == name {
			return w, nil
		}
	}
	switch name {
	case "namd":
		return NAMDWorkload(scale), nil
	case "nas.ft":
		p := workloads.DefaultFT()
		p.SerialComputePerIter = p.SerialComputePerIter.Scale(scale)
		return workloads.FT(p), nil
	case "nas.bt":
		p := workloads.DefaultBT()
		p.SerialComputePerStep = p.SerialComputePerStep.Scale(scale)
		return workloads.BT(p), nil
	case "pingpong":
		return workloads.PingPong(200, 9000), nil
	case "phases":
		return workloads.Phases(8, simtime.Duration(float64(2*simtime.Millisecond)*scale), 64<<10), nil
	case "reliable-phases":
		// Runs the reliable transport (ack/retransmit): the workload to pair
		// with loss faults — plain workloads block forever on lost frames.
		return workloads.ReliablePhases(8, simtime.Duration(float64(2*simtime.Millisecond)*scale), 64<<10), nil
	case "silent":
		return workloads.Silent(simtime.Duration(float64(20*simtime.Millisecond) * scale)), nil
	case "uniform":
		return workloads.Uniform(200, 4000, 100*simtime.Microsecond, 42), nil
	}
	return workloads.Workload{}, fmt.Errorf("unknown workload %q", name)
}

// ParsePolicy builds a quantum-policy constructor from the CLI/manifest
// representation: a fixed quantum string, overridden by a non-empty dyn
// spec min:max:inc:dec. An empty quantum means 1µs (ground truth). Adaptive
// bounds and factors are validated here, so the returned constructor never
// panics.
func ParsePolicy(quantumSpec, dynSpec string) (func() quantum.Policy, error) {
	if dynSpec == "" {
		if quantumSpec == "" {
			quantumSpec = "1us"
		}
		q, err := simtime.ParseDuration(quantumSpec)
		if err != nil {
			return nil, fmt.Errorf("quantum: %v", err)
		}
		if q <= 0 {
			return nil, fmt.Errorf("quantum must be positive, got %v", q)
		}
		return func() quantum.Policy { return quantum.Fixed{Q: q} }, nil
	}
	parts := strings.Split(dynSpec, ":")
	if len(parts) != 4 {
		return nil, fmt.Errorf("dyn wants min:max:inc:dec, got %q", dynSpec)
	}
	min, err := simtime.ParseDuration(parts[0])
	if err != nil {
		return nil, fmt.Errorf("dyn min: %v", err)
	}
	max, err := simtime.ParseDuration(parts[1])
	if err != nil {
		return nil, fmt.Errorf("dyn max: %v", err)
	}
	inc, err := strconv.ParseFloat(parts[2], 64)
	if err != nil {
		return nil, fmt.Errorf("dyn inc: %v", err)
	}
	dec, err := strconv.ParseFloat(parts[3], 64)
	if err != nil {
		return nil, fmt.Errorf("dyn dec: %v", err)
	}
	if err := (&quantum.Adaptive{Min: min, Max: max, Inc: inc, Dec: dec}).Validate(); err != nil {
		return nil, fmt.Errorf("dyn: %v", err)
	}
	return func() quantum.Policy { return quantum.NewAdaptive(min, max, inc, dec) }, nil
}

// ParseTopo parses a switch-topology override. The "rack" form models racks
// of radix nodes behind edge switches joined by a core layer; the
// "mixedwan" form models one tight rack plus distant WAN singletons — the
// motivating geometry for the per-link lookahead partitioning. Used by
// clustersim's -topo flag and fleet manifests.
func ParseTopo(spec string) (netmodel.SwitchModel, error) {
	parts := strings.Split(spec, ":")
	if len(parts) != 4 {
		return nil, fmt.Errorf("topo wants rack:<radix>:<edge>:<core> or mixedwan:<rack>:<rackLat>:<wanLat>, got %q", spec)
	}
	switch parts[0] {
	case "rack":
		radix, err := strconv.Atoi(parts[1])
		if err != nil || radix < 1 {
			return nil, fmt.Errorf("topo radix %q: want a positive integer", parts[1])
		}
		edge, err := parseLatency("edge", parts[2])
		if err != nil {
			return nil, err
		}
		core, err := parseLatency("core", parts[3])
		if err != nil {
			return nil, err
		}
		return &netmodel.FatTreeSwitch{Radix: radix, EdgeLatency: edge, CoreLatency: core}, nil
	case "mixedwan":
		rack, err := strconv.Atoi(parts[1])
		if err != nil || rack < 1 {
			return nil, fmt.Errorf("topo rack size %q: want a positive integer", parts[1])
		}
		rackLat, err := parseLatency("rack", parts[2])
		if err != nil {
			return nil, err
		}
		wanLat, err := parseLatency("wan", parts[3])
		if err != nil {
			return nil, err
		}
		return &mixedWANSwitch{rack: rack, rackLat: rackLat, wanLat: wanLat}, nil
	default:
		return nil, fmt.Errorf("unknown topology kind %q (want rack or mixedwan)", parts[0])
	}
}

// parseLatency parses one topology latency, which must be positive.
func parseLatency(name, spec string) (simtime.Duration, error) {
	d, err := simtime.ParseDuration(spec)
	if err != nil {
		return 0, fmt.Errorf("topo %s latency: %v", name, err)
	}
	if d <= 0 {
		return 0, fmt.Errorf("topo %s latency must be positive, got %v", name, d)
	}
	return d, nil
}

// mixedWANSwitch puts the first rack nodes at rackLat from each other and
// every other pair at wanLat: a tight rack plus loose WAN singletons, the
// geometry where the per-link lookahead matrix beats the scalar bound.
type mixedWANSwitch struct {
	rack            int
	rackLat, wanLat simtime.Duration
}

// Latency implements netmodel.SwitchModel.
func (s *mixedWANSwitch) Latency(f *pkt.Frame, src, dst int) simtime.Duration {
	if src < s.rack && dst < s.rack {
		return s.rackLat
	}
	return s.wanLat
}

// ParseLookahead maps the CLI/manifest lookahead mode onto the engine mode.
// Empty selects the default (matrix).
func ParseLookahead(s string) (cluster.LookaheadMode, error) {
	switch s {
	case "matrix", "":
		return cluster.LookaheadMatrix, nil
	case "scalar":
		return cluster.LookaheadScalar, nil
	default:
		return 0, fmt.Errorf("lookahead wants matrix or scalar, got %q", s)
	}
}

// fleetStrategies are the two execution strategies every scenario runs
// under; their fingerprints must be identical.
var fleetStrategies = []struct {
	name string
	run  func(cluster.Config) (*cluster.Result, error)
}{{"reference", cluster.RunReference}, {"production", cluster.Run}}

// ScenarioOutcome is the result of running one scenario under both
// execution strategies.
type ScenarioOutcome struct {
	Name string
	// Fingerprint is the scenario's canonical fingerprint: the hex SHA-256
	// over the canonical result encoding plus the canonical profiler report
	// bytes, identical under both strategies when the engine is healthy.
	Fingerprint string
	// Err is a run failure (either strategy); Mismatch describes a
	// cross-strategy fingerprint divergence — the engine-bug signal that
	// must fail the fleet even when no golden exists yet.
	Err      error
	Mismatch string
	// Stats echoes the run's engine statistics (identical under both
	// strategies), letting callers assert manifest coverage:
	// FastFullQuanta > 0 means the all-loose walk engaged,
	// FastPartialQuanta > 0 the graded partitioned walk.
	Stats cluster.Stats
}

// runScenario executes the scenario under the reference and the
// production strategy and cross-checks the fingerprints.
func runScenario(sc Scenario) ScenarioOutcome {
	out := ScenarioOutcome{Name: sc.Name}
	rc, err := sc.config()
	if err != nil {
		out.Err = err
		return out
	}
	var fps [2]string
	for k, st := range fleetStrategies {
		profiler := prof.New()
		cfg := cluster.Config{
			Nodes:        sc.Nodes,
			Guest:        rc.env.Guest,
			Net:          rc.env.Net,
			Host:         rc.env.Host,
			Policy:       rc.policy,
			Program:      rc.w.New,
			MaxGuest:     rc.env.MaxGuest,
			TraceQuanta:  true,
			TracePackets: true,
			Faults:       rc.plan,
			Profiler:     profiler,
			Lookahead:    rc.lookahead,
		}
		res, err := st.run(cfg)
		if err != nil {
			out.Err = fmt.Errorf("%s: %w", st.name, err)
			return out
		}
		out.Stats = res.Stats
		h := sha256.New()
		h.Write(cluster.CanonicalResult(res))
		h.Write(profiler.Report().JSON())
		fps[k] = hex.EncodeToString(h.Sum(nil))
	}
	out.Fingerprint = fps[0]
	if fps[1] != fps[0] {
		out.Mismatch = fmt.Sprintf("fingerprint diverges across execution strategies: reference %s vs production %s", fps[0], fps[1])
	}
	return out
}

// RunFleet executes every scenario of the manifest, fanning the scenarios
// out over a worker pool of the given size (<= 0 means GOMAXPROCS). Each
// scenario's two strategy runs execute sequentially inside its slot.
// Outcomes come back in manifest order regardless of pool scheduling.
// progress, when non-nil, is called once per finished scenario from pool
// goroutines (it must be safe for concurrent use).
func RunFleet(m *Manifest, poolWorkers int, progress func(ScenarioOutcome)) []ScenarioOutcome {
	outcomes := make([]ScenarioOutcome, len(m.Scenarios))
	pool := workerpool.New(poolWorkers)
	defer pool.Close()
	pool.Run(len(m.Scenarios), func(i int) {
		outcomes[i] = runScenario(m.Scenarios[i])
		if progress != nil {
			progress(outcomes[i])
		}
	})
	return outcomes
}

// GoldenEntry pins one scenario's committed fingerprint.
type GoldenEntry struct {
	Name        string `json:"name"`
	Fingerprint string `json:"fingerprint"`
}

// Golden is the committed fingerprint file (testdata/fleet/golden.json).
type Golden struct {
	Schema string `json:"schema"`
	// FingerprintSchema records the cluster encoding version the
	// fingerprints were computed under, so an encoding bump is
	// distinguishable from a simulation change.
	FingerprintSchema string        `json:"fingerprint_schema"`
	Scenarios         []GoldenEntry `json:"scenarios"`
}

// BuildGolden assembles a golden file from fleet outcomes (which must all
// be healthy), sorted by scenario name for a stable diff-friendly encoding.
func BuildGolden(outcomes []ScenarioOutcome) (*Golden, error) {
	g := &Golden{Schema: GoldenSchema, FingerprintSchema: cluster.FingerprintSchema}
	for _, o := range outcomes {
		if o.Err != nil {
			return nil, fmt.Errorf("scenario %q failed: %v", o.Name, o.Err)
		}
		if o.Mismatch != "" {
			return nil, fmt.Errorf("scenario %q: %s", o.Name, o.Mismatch)
		}
		g.Scenarios = append(g.Scenarios, GoldenEntry{Name: o.Name, Fingerprint: o.Fingerprint})
	}
	sort.Slice(g.Scenarios, func(i, j int) bool { return g.Scenarios[i].Name < g.Scenarios[j].Name })
	return g, nil
}

// JSON renders the golden file canonically (two-space indent, trailing
// newline, scenarios sorted by name).
func (g *Golden) JSON() []byte {
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("fleet: marshal golden: %v", err)) // only marshalable fields
	}
	return append(b, '\n')
}

// LoadGolden reads a committed golden file.
func LoadGolden(path string) (*Golden, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g Golden
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("fleet golden %s: %v", path, err)
	}
	if g.Schema != GoldenSchema {
		return nil, fmt.Errorf("fleet golden %s: schema %q, want %q", path, g.Schema, GoldenSchema)
	}
	return &g, nil
}

// FleetDiff is the structured comparison of a fleet run against a golden
// file — the artifact simfleet writes (and CI uploads) on failure.
type FleetDiff struct {
	// Changed lists scenarios whose fingerprint moved.
	Changed []FleetDelta `json:"changed,omitempty"`
	// Failed lists scenarios that errored or diverged across execution
	// strategies.
	Failed []FleetFailure `json:"failed,omitempty"`
	// Missing lists scenarios present in the manifest but absent from the
	// golden file (run simfleet -update); Extra the reverse.
	Missing []string `json:"missing,omitempty"`
	Extra   []string `json:"extra,omitempty"`
	// EncodingChanged is set when the golden was generated under a
	// different fingerprint-encoding version: every mismatch is then
	// expected and the goldens just need regenerating.
	EncodingChanged string `json:"encoding_changed,omitempty"`
}

// FleetDelta is one changed fingerprint.
type FleetDelta struct {
	Name string `json:"name"`
	Want string `json:"want"`
	Got  string `json:"got"`
}

// FleetFailure is one scenario that could not produce a fingerprint.
type FleetFailure struct {
	Name   string `json:"name"`
	Reason string `json:"reason"`
}

// Empty reports whether the diff found nothing.
func (d *FleetDiff) Empty() bool {
	return len(d.Changed) == 0 && len(d.Failed) == 0 && len(d.Missing) == 0 &&
		len(d.Extra) == 0 && d.EncodingChanged == ""
}

// JSON renders the diff artifact.
func (d *FleetDiff) JSON() []byte {
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("fleet: marshal diff: %v", err)) // only marshalable fields
	}
	return append(b, '\n')
}

// DiffGolden compares fleet outcomes against the committed golden file.
// Outcomes and golden entries are matched by name; every list in the diff
// is sorted by name so the artifact is deterministic.
func DiffGolden(outcomes []ScenarioOutcome, g *Golden) *FleetDiff {
	d := &FleetDiff{}
	if g.FingerprintSchema != cluster.FingerprintSchema {
		d.EncodingChanged = fmt.Sprintf("golden fingerprints use encoding %q but this binary produces %q; regenerate with -update",
			g.FingerprintSchema, cluster.FingerprintSchema)
	}
	want := make(map[string]string, len(g.Scenarios))
	for _, e := range g.Scenarios {
		want[e.Name] = e.Fingerprint
	}
	ran := make(map[string]bool, len(outcomes))
	for _, o := range outcomes {
		ran[o.Name] = true
		switch {
		case o.Err != nil:
			d.Failed = append(d.Failed, FleetFailure{Name: o.Name, Reason: o.Err.Error()})
		case o.Mismatch != "":
			d.Failed = append(d.Failed, FleetFailure{Name: o.Name, Reason: o.Mismatch})
		default:
			w, ok := want[o.Name]
			if !ok {
				d.Missing = append(d.Missing, o.Name)
			} else if w != o.Fingerprint {
				d.Changed = append(d.Changed, FleetDelta{Name: o.Name, Want: w, Got: o.Fingerprint})
			}
		}
	}
	for _, e := range g.Scenarios {
		if !ran[e.Name] {
			d.Extra = append(d.Extra, e.Name)
		}
	}
	sort.Slice(d.Changed, func(i, j int) bool { return d.Changed[i].Name < d.Changed[j].Name })
	sort.Slice(d.Failed, func(i, j int) bool { return d.Failed[i].Name < d.Failed[j].Name })
	sort.Strings(d.Missing)
	sort.Strings(d.Extra)
	return d
}
