package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// moduleRoot walks up from the working directory to the directory holding
// go.mod, so the test is independent of the package's location.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test directory")
		}
		dir = parent
	}
}

func buildClustersim(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "clustersim")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/clustersim")
	cmd.Dir = moduleRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/clustersim: %v\n%s", err, out)
	}
	return bin
}

// Every malformed flag must die with exit 1 and a one-line "clustersim: ..."
// error that names the offending input — never a panic, a usage dump, or a
// silent success.
func TestCLIFlagErrors(t *testing.T) {
	bin := buildClustersim(t)
	trace := filepath.Join(t.TempDir(), "two-rank.json")
	if err := os.WriteFile(trace, []byte(`{"name": "t", "ranks": 2, "ops": [
		[{"op": "send", "dst": 1, "bytes": 8}],
		[{"op": "recv", "src": 0}]]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unknown workload", []string{"-workload", "wat"}, `unknown workload "wat"`},
		{"zero quantum", []string{"-quantum", "0us"}, "quantum must be positive"},
		{"unparsable quantum", []string{"-quantum", "fast"}, "quantum:"},
		{"dyn missing fields", []string{"-dyn", "1us:1ms"}, "dyn wants min:max:inc:dec"},
		{"dyn bad min", []string{"-dyn", "x:1ms:1.03:0.02"}, "dyn min:"},
		{"dyn zero factors", []string{"-dyn", "1us:1ms:0:0"}, "Inc must exceed 1"},
		{"dyn inverted bounds", []string{"-dyn", "1ms:1us:1.03:0.02"}, "Max 1µs < Min 1ms"},
		{"unknown topo kind", []string{"-topo", "ring:4:1us:2us"}, "unknown topology kind"},
		{"topo missing fields", []string{"-topo", "ring:4"}, "topo wants rack:"},
		{"topo bad radix", []string{"-topo", "rack:x:1us:2us"}, "topo radix"},
		{"topo negative edge latency", []string{"-topo", "rack:4:-1us:2us"}, "topo edge latency must be positive"},
		{"topo zero wan latency", []string{"-topo", "mixedwan:4:500ns:0s"}, "topo wan latency must be positive"},
		{"bad lookahead", []string{"-lookahead", "psychic"}, "lookahead wants matrix or scalar"},
		{"faults unknown field", []string{"-faults", "chaos=1"}, `unknown field "chaos"`},
		{"faults bad window", []string{"-faults", "down=5ms"}, "is not start-end"},
		{"faults slowdown node past the cluster", []string{"-nodes", "4", "-faults", "slow=99:2"}, "slowdown node 99 outside the 4-node cluster"},
		{"faults negative slowdown node", []string{"-nodes", "4", "-faults", "slow=-1:2"}, "slowdown node -1 outside the 4-node cluster"},
		{"faults slowdown node past the parallel cluster", []string{"-nodes", "4", "-parallel", "-faults", "slow=4:2"}, "slowdown node 4 outside the 4-node cluster"},
		{"contention missing latency", []string{"-contention", "10e9"}, "-contention wants <bytes/s>:<latency>"},
		{"contention negative rate", []string{"-contention", "-1:500ns"}, "want a positive finite number"},
		{"contention zero rate", []string{"-workload", "pingpong", "-nodes", "2", "-contention", "0:1us"}, "want a positive finite number"},
		{"contention NaN rate", []string{"-workload", "pingpong", "-nodes", "2", "-contention", "NaN:500ns"}, "want a positive finite number"},
		{"contention infinite rate", []string{"-workload", "pingpong", "-nodes", "2", "-contention", "Inf:500ns"}, "want a positive finite number"},
		{"contention negative latency", []string{"-workload", "pingpong", "-nodes", "2", "-contention", "10e9:-1us"}, "output-queue latency -1µs must not be negative"},
		{"contention negative latency parallel", []string{"-workload", "pingpong", "-nodes", "2", "-parallel", "-contention", "10e9:-1us"}, "output-queue latency -1µs must not be negative"},
		{"dyn NaN inc", []string{"-dyn", "1us:1ms:NaN:0.5"}, "Inc must exceed 1 and be finite, got NaN"},
		{"dyn infinite inc", []string{"-dyn", "1us:1ms:Inf:0.5"}, "Inc must exceed 1 and be finite, got +Inf"},
		{"faults NaN loss", []string{"-faults", "loss=NaN"}, "loss NaN outside [0, 1)"},
		{"faults NaN slowdown", []string{"-faults", "slow=0:NaN"}, "slowdown NaN must be positive and finite"},
		{"negative scale", []string{"-workload", "pingpong", "-scale", "-1"}, "workload scale -1 must be positive and finite"},
		{"NaN scale", []string{"-workload", "pingpong", "-scale", "NaN"}, "workload scale NaN must be positive and finite"},
		{"quantum overflows", []string{"-quantum", "9999999999999s"}, "overflows int64 nanoseconds"},
		{"quantum NaN", []string{"-quantum", "NaNus"}, "is not finite"},
		{"zero nodes", []string{"-nodes", "0", "-workload", "pingpong"}, "need at least 1 node"},
		{"trace rank mismatch", []string{"-tracefile", trace, "-nodes", "4"}, "has 2 ranks but the cluster has 4 nodes"},
		{"trace file missing", []string{"-tracefile", filepath.Join(t.TempDir(), "nope.json")}, "no such file"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out, err := exec.Command(bin, c.args...).CombinedOutput()
			if err == nil {
				t.Fatalf("clustersim %v succeeded, want error:\n%s", c.args, out)
			}
			ee, ok := err.(*exec.ExitError)
			if !ok || ee.ExitCode() != 1 {
				t.Errorf("want exit code 1, got %v", err)
			}
			text := strings.TrimSpace(string(out))
			if !strings.Contains(text, c.want) {
				t.Errorf("output %q does not mention %q", text, c.want)
			}
			if !strings.HasPrefix(text, "clustersim:") {
				t.Errorf("error line %q lacks the clustersim: prefix", text)
			}
			if strings.Count(text, "\n") > 0 {
				t.Errorf("error output is multi-line, want one usable line:\n%s", text)
			}
		})
	}
}

// -contention disables the fast path, so a run with it must say so
// explicitly instead of reporting 0 engaged quanta with no explanation (and
// a run without it must stay quiet).
func TestContentionFastPathDiagnostic(t *testing.T) {
	bin := buildClustersim(t)
	base := []string{"-workload", "pingpong", "-nodes", "2", "-quantum", "1us"}
	const diag = "fast path    disabled: output tap"

	for _, c := range []struct {
		name  string
		extra []string
		want  bool
	}{
		{"contention", []string{"-contention", "10e9:500ns"}, true},
		{"no contention", nil, false},
	} {
		args := append(append([]string{}, base...), c.extra...)
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err != nil {
			t.Fatalf("%s run failed: %v\n%s", c.name, err, out)
		}
		if got := strings.Contains(string(out), diag); got != c.want {
			t.Errorf("%s run: output-tap diagnostic printed = %v, want %v:\n%s", c.name, got, c.want, out)
		}
	}
}
