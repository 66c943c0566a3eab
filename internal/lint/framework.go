package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding, resolved to a file position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Package is one loaded, parsed, type-checked package ready for analysis.
type Package struct {
	// ImportPath is the package's import path; test variants keep the
	// bracketed `pkg [pkg.test]` form go list reports.
	ImportPath string
	// BasePath is ImportPath with any test-variant decoration stripped:
	// the path other packages would import.
	BasePath string
	Name     string
	Dir      string

	Fset      *token.FileSet
	Files     []*ast.File
	Filenames []string // parallel to Files

	Types *types.Package
	Info  *types.Info

	// Critical marks determinism-critical packages: mapiter and nondet
	// only apply there. hotalloc is annotation-driven and runs
	// everywhere.
	Critical bool

	Annots *Annotations
}

// Analyzer is one static check. Run inspects pass.Pkg and reports
// findings through pass.Reportf.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(pass *Pass) error
}

// Pass carries one (analyzer, package) pairing.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	diags    *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// suppressed reports whether an -ok annotation of the given kind covers
// pos (same line or the line directly above).
func (p *Pass) suppressed(kind annotKind, pos token.Pos) bool {
	return p.Pkg.Annots.Suppressed(kind, p.Pkg.Fset.Position(pos))
}

// isTestFile reports whether the basename names a _test.go file.
func isTestFile(name string) bool {
	return strings.HasSuffix(name, "_test.go")
}

// All returns the analyzer suite in reporting order. Annot runs first so
// malformed suppressions surface before the checks they would disable.
func All() []*Analyzer {
	return []*Analyzer{Annot, MapIter, NonDet, HotAlloc}
}

// RunAnalyzers applies every analyzer to every package and returns the
// findings sorted by position. Analyzer errors (not findings) abort.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Pkg: pkg, diags: &diags}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.ImportPath, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// Annot validates the //hatric: annotations themselves: unknown kinds,
// -ok suppressions without a reason, and function markers that precede no
// function all fail the build, so a typo can never silently disable a
// check.
var Annot = &Analyzer{
	Name: "annot",
	Doc:  "validate //hatric: annotation syntax and placement",
	Run: func(pass *Pass) error {
		for _, m := range pass.Pkg.Annots.Malformed {
			pass.Reportf(m.pos, "%s", m.msg)
		}
		return nil
	},
}
