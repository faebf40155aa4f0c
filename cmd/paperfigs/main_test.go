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

// A typoed -fig used to fall through every dispatch arm and exit 0 with no
// output at all; these flags must instead die with a one-line "paperfigs: ..."
// error before any simulation (or cache/report bookkeeping) starts.
func TestCLIFlagErrors(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "paperfigs")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/paperfigs")
	cmd.Dir = moduleRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/paperfigs: %v\n%s", err, out)
	}
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unknown fig", []string{"-fig", "10"}, `unknown -fig "10"`},
		{"unknown fig word", []string{"-fig", "everything"}, "want 6, 7, 8, 9"},
		{"zero scale", []string{"-fig", "6", "-scale", "0"}, "-scale must be positive"},
		{"negative scale", []string{"-fig", "7", "-scale", "-0.5"}, "-scale must be positive"},
		{"NaN scale", []string{"-fig", "6", "-scale", "NaN"}, "-scale must be positive and finite"},
		{"infinite scale", []string{"-fig", "6", "-scale", "Inf"}, "-scale must be positive and finite"},
		{"zero nodes", []string{"-fig", "9a", "-nodes", "0"}, "-nodes must be >= 1"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out, err := exec.Command(bin, c.args...).CombinedOutput()
			if err == nil {
				t.Fatalf("paperfigs %v succeeded, want error:\n%s", c.args, out)
			}
			ee, ok := err.(*exec.ExitError)
			if !ok || ee.ExitCode() != 1 {
				t.Errorf("want exit code 1, got %v", err)
			}
			text := strings.TrimSpace(string(out))
			if !strings.Contains(text, c.want) {
				t.Errorf("output %q does not mention %q", text, c.want)
			}
			if !strings.HasPrefix(text, "paperfigs:") {
				t.Errorf("error line %q lacks the paperfigs: prefix", text)
			}
			if strings.Count(text, "\n") > 0 {
				t.Errorf("error output is multi-line, want one usable line:\n%s", text)
			}
		})
	}
}
