// Command mnoclint runs the repository's domain lint suite: eight
// analyzers enforcing determinism of the golden-producing packages,
// µW/W/dB unit safety, fixed-cardinality telemetry names, context
// threading, cross-package error wrapping, goroutine cancellation,
// RCU publication immutability and hot-path allocation budgets. It is pure stdlib (go/parser + go/types with the
// source importer) and needs no network or tool downloads.
//
// Usage:
//
//	mnoclint [-list] [-json] [packages]
//
// Packages default to ./... relative to the enclosing module root.
// Diagnostics print as file:line:col: analyzer: message; the exit
// status is 1 when any diagnostic is reported, 2 on usage or load
// errors. Findings are suppressed by an adjacent
// //mnoclint:allow <analyzer> <reason> directive (see docs/LINT.md).
//
// With -json, the run is emitted as a single JSON array covering both
// surviving findings and allowed (suppressed) ones, so CI can archive
// the full lint surface; the exit status still only reflects the
// surviving findings.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"mnoc/internal/analysis"
	"mnoc/internal/analysis/registry"
)

// jsonFinding is one entry of the -json output. Allowed findings carry
// the directive's reason so an auditor can read every suppression in
// force from the artifact alone.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
	Allowed  bool   `json:"allowed"`
	Reason   string `json:"reason,omitempty"`
}

func main() {
	list := flag.Bool("list", false, "print the analyzer suite and exit")
	asJSON := flag.Bool("json", false, "emit findings (including allowed ones) as a JSON array")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: mnoclint [-list] [-json] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := registry.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mnoclint:", err)
		os.Exit(2)
	}
	loader, err := analysis.NewModuleLoader(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mnoclint:", err)
		os.Exit(2)
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mnoclint:", err)
		os.Exit(2)
	}
	res, err := analysis.RunDetailed(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mnoclint:", err)
		os.Exit(2)
	}

	cwd, _ := os.Getwd()
	relativize := func(name string) string {
		if cwd == "" {
			return name
		}
		if rel, err := filepath.Rel(cwd, name); err == nil && !filepath.IsAbs(rel) {
			return rel
		}
		return name
	}

	if *asJSON {
		findings := make([]jsonFinding, 0, len(res.Diagnostics)+len(res.Suppressed))
		for _, d := range res.Diagnostics {
			findings = append(findings, jsonFinding{
				File: relativize(d.Pos.Filename), Line: d.Pos.Line, Col: d.Pos.Column,
				Analyzer: d.Analyzer, Message: d.Message,
			})
		}
		for _, s := range res.Suppressed {
			findings = append(findings, jsonFinding{
				File: relativize(s.Pos.Filename), Line: s.Pos.Line, Col: s.Pos.Column,
				Analyzer: s.Analyzer, Message: s.Message,
				Allowed: true, Reason: s.Reason,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, "mnoclint:", err)
			os.Exit(2)
		}
		if len(res.Diagnostics) > 0 {
			os.Exit(1)
		}
		return
	}

	if len(res.Diagnostics) == 0 {
		return
	}
	for _, d := range res.Diagnostics {
		d.Pos.Filename = relativize(d.Pos.Filename)
		fmt.Println(d.String())
	}
	os.Exit(1)
}

// findModuleRoot walks upward from the working directory to the
// nearest go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
