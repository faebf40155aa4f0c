// Simlint is the simulator's determinism linter: a multichecker over the
// custom analyzers in internal/analysis (nodetsource, maporder, guestwall,
// lockcopy/atomicmix, hotalloc, errdiscard).
//
// Standalone use, from the module root:
//
//	go run ./cmd/simlint ./...
//
// As a go vet tool (the unitchecker protocol; see vettool.go):
//
//	go build -o /tmp/simlint ./cmd/simlint
//	go vet -vettool=/tmp/simlint ./...
//
// Exit status: 0 clean, 1 operational error, 2 findings — matching go vet.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"strings"

	"clustersim/internal/analysis/framework"
	"clustersim/internal/analysis/simlint"
)

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("simlint", flag.ContinueOnError)
	versionFlag := fs.String("V", "", "print version and exit (go vet protocol)")
	jsonFlag := fs.Bool("json", false, "emit findings as JSON (the simlint-findings/1 schema) on stdout")
	jsonOutFlag := fs.String("json-out", "", "also write the findings JSON document to this file (written even when clean)")
	dirFlag := fs.String("C", ".", "change to this directory before resolving patterns")
	enabled := map[string]*bool{}
	for _, a := range simlint.Analyzers() {
		doc, _, _ := strings.Cut(a.Doc, "\n")
		enabled[a.Name] = fs.Bool(a.Name, true, doc)
	}

	// `go vet` probes its tool with -flags to learn which flags it may
	// pass; answer before normal flag parsing.
	if len(os.Args) > 1 && os.Args[1] == "-flags" {
		printFlagsJSON(fs)
		return 0
	}
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 1
	}
	if *versionFlag != "" {
		// The go command hashes this line into its build cache key.
		fmt.Printf("simlint version devel buildID=%s\n", selfID())
		return 0
	}

	var analyzers []*framework.Analyzer
	for _, a := range simlint.Analyzers() {
		if *enabled[a.Name] {
			analyzers = append(analyzers, a)
		}
	}

	args := fs.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		return runVet(args[0], analyzers)
	}

	pkgs, err := framework.Load(*dirFlag, args...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		return 1
	}
	diags, err := framework.RunAnalyzers(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		return 1
	}
	findings := framework.MakeFindings(fsetOf(pkgs), diags)
	if *jsonOutFlag != "" {
		if err := os.WriteFile(*jsonOutFlag, findings.JSON(), 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
			return 1
		}
	}
	if *jsonFlag {
		os.Stdout.Write(findings.JSON())
	}
	if len(diags) == 0 {
		return 0
	}
	if !*jsonFlag {
		for _, d := range diags {
			fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", position(pkgs, d), d.Analyzer, d.Message)
		}
	}
	return 2
}

// fsetOf returns the FileSet shared by the loaded packages (Load hands every
// package the same one), or an empty set when nothing matched.
func fsetOf(pkgs []*framework.Package) *token.FileSet {
	if len(pkgs) > 0 {
		return pkgs[0].Fset
	}
	return token.NewFileSet()
}

// position renders a diagnostic's file:line:col using the shared fileset.
func position(pkgs []*framework.Package, d framework.Diagnostic) string {
	if len(pkgs) == 0 {
		return "-"
	}
	return pkgs[0].Fset.Position(d.Pos).String()
}

// printFlagsJSON answers `simlint -flags` with the JSON the go command
// expects: a list of {Name, Bool, Usage} records.
func printFlagsJSON(fs *flag.FlagSet) {
	type jsonFlagDef struct {
		Name  string
		Bool  bool
		Usage string
	}
	var defs []jsonFlagDef
	fs.VisitAll(func(f *flag.Flag) {
		isBool := false
		if b, ok := f.Value.(interface{ IsBoolFlag() bool }); ok {
			isBool = b.IsBoolFlag()
		}
		defs = append(defs, jsonFlagDef{Name: f.Name, Bool: isBool, Usage: f.Usage})
	})
	data, _ := json.Marshal(defs)
	os.Stdout.Write(data)
	fmt.Println()
}

// selfID hashes the running binary so the go command's cache invalidates
// whenever simlint itself changes.
func selfID() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}
