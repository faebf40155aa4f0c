package main

import (
	"bytes"
	"encoding/json"
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

// buildSimlint compiles the simlint binary once per test run.
func buildSimlint(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "simlint")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/simlint")
	cmd.Dir = moduleRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/simlint: %v\n%s", err, out)
	}
	return bin
}

func TestVersionAndFlagsProbe(t *testing.T) {
	bin := buildSimlint(t)

	out, err := exec.Command(bin, "-V=full").Output()
	if err != nil {
		t.Fatalf("-V=full: %v", err)
	}
	if !strings.HasPrefix(string(out), "simlint version devel buildID=") {
		t.Errorf("-V=full output %q lacks the go vet version line shape", out)
	}

	out, err = exec.Command(bin, "-flags").Output()
	if err != nil {
		t.Fatalf("-flags: %v", err)
	}
	var defs []struct {
		Name  string
		Bool  bool
		Usage string
	}
	if err := json.Unmarshal(out, &defs); err != nil {
		t.Fatalf("-flags output is not JSON: %v\n%s", err, out)
	}
	names := map[string]bool{}
	for _, d := range defs {
		names[d.Name] = true
	}
	for _, want := range []string{
		"nodetsource", "maporder", "guestwall", "lockcopy",
		"hotalloc", "errdiscard",
		"json", "json-out", "V",
	} {
		if !names[want] {
			t.Errorf("-flags output missing flag %q; got %s", want, out)
		}
	}
}

// TestStandaloneCleanRepo is the acceptance gate: the repository itself must
// be simlint-clean (findings either fixed or carrying justified directives).
func TestStandaloneCleanRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the whole module")
	}
	bin := buildSimlint(t)
	cmd := exec.Command(bin, "-C", moduleRoot(t), "./...")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("simlint ./... reported findings or failed: %v\n%s", err, out)
	}
}

// TestStandaloneSkipsTestdata pins the corpus-exclusion rule: naming a
// golden-corpus package directly (the trees `go list ./...` skips by
// convention but explicit patterns can reach) must analyze nothing and exit
// clean, never lint the corpus's deliberate findings as product code.
func TestStandaloneSkipsTestdata(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list")
	}
	bin := buildSimlint(t)
	cmd := exec.Command(bin, "-C", moduleRoot(t),
		"./internal/analysis/maporder/testdata/src/example.com/app")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("simlint over a testdata corpus must exit clean, got: %v\n%s", err, out)
	}
	if len(bytes.TrimSpace(out)) != 0 {
		t.Fatalf("simlint over a testdata corpus must report nothing, got:\n%s", out)
	}
}

// TestJSONFindingsDocument checks the -json-out artifact: a versioned
// findings document is written even on a clean run (CI uploads it on
// failure, but the file must exist either way).
func TestJSONFindingsDocument(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the whole module")
	}
	bin := buildSimlint(t)
	outPath := filepath.Join(t.TempDir(), "findings.json")
	cmd := exec.Command(bin, "-C", moduleRoot(t), "-json-out", outPath, "./...")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("simlint -json-out ./...: %v\n%s", err, out)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatalf("findings document not written: %v", err)
	}
	var doc struct {
		Schema   string            `json:"schema"`
		Findings []json.RawMessage `json:"findings"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("findings document is not JSON: %v\n%s", err, data)
	}
	if doc.Schema != "simlint-findings/1" {
		t.Errorf("findings schema = %q, want simlint-findings/1", doc.Schema)
	}
	if doc.Findings == nil {
		t.Errorf("findings list must be present (empty, not null) on a clean run:\n%s", data)
	}
}

// TestVettoolCleanPackage drives the binary through the real go vet
// unitchecker protocol against packages that carry //simlint: annotations,
// confirming directive handling works under vet's file/.cfg calling
// convention too.
func TestVettoolCleanPackage(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes go vet")
	}
	bin := buildSimlint(t)
	// cluster/guest/msg carry the hotpath markers, so this also
	// proves fact flow (hotalloc summaries riding vetx files) under vet's
	// dependency-first visit order.
	cmd := exec.Command("go", "vet", "-vettool="+bin,
		"./internal/faults", "./internal/obs", "./internal/simtime",
		"./internal/cluster", "./internal/guest", "./internal/msg")
	cmd.Dir = moduleRoot(t)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	if err := cmd.Run(); err != nil {
		t.Fatalf("go vet -vettool=simlint: %v\n%s", err, buf.String())
	}
}
