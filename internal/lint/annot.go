package lint

import (
	"go/ast"
	"go/token"
	"regexp"
	"strings"
)

// annotKind names one //hatric: annotation form.
type annotKind string

const (
	// annotHotpath marks a function whose body (and same-package callees)
	// must stay allocation-free; checked by hotalloc.
	annotHotpath annotKind = "hotpath"
	// The -ok kinds suppress findings on their own line and the line
	// directly below; all require a reason.
	annotMapiterOK annotKind = "mapiter-ok"
	annotNondetOK  annotKind = "nondet-ok"
	annotAllocOK   annotKind = "alloc-ok"
	// annotFixtureNonCritical marks an analysistest fixture package as
	// non-determinism-critical, to test that mapiter/nondet skip such
	// packages. Never used outside testdata.
	annotFixtureNonCritical annotKind = "fixture-noncritical"
)

var annotRE = regexp.MustCompile(`^//hatric:([a-zA-Z-]+)(?:[ \t]+(.*))?$`)

// malformedAnnot is an annotation-syntax finding, reported by the Annot
// analyzer.
type malformedAnnot struct {
	pos token.Pos
	msg string
}

// Annotations indexes every //hatric: directive in a package.
type Annotations struct {
	// ok[kind][filename][line] = reason for suppression annotations.
	ok map[annotKind]map[string]map[int]string
	// marked[kind] holds the function declarations carrying a marker
	// annotation (hotpath).
	marked map[annotKind]map[*ast.FuncDecl]bool
	// NonCritical is set by the fixture-only pragma.
	NonCritical bool

	Malformed []malformedAnnot
}

// okKinds require a reason; markerKinds attach to a following FuncDecl.
var (
	okKinds     = map[annotKind]bool{annotMapiterOK: true, annotNondetOK: true, annotAllocOK: true}
	markerKinds = map[annotKind]bool{annotHotpath: true}
)

// parseAnnotations scans every comment in the package's files.
func parseAnnotations(fset *token.FileSet, files []*ast.File) *Annotations {
	a := &Annotations{
		ok:     map[annotKind]map[string]map[int]string{},
		marked: map[annotKind]map[*ast.FuncDecl]bool{},
	}
	for _, f := range files {
		// markerLines[line] = kind of an unclaimed marker annotation.
		type markerAt struct {
			kind annotKind
			pos  token.Pos
		}
		markerLines := map[int]markerAt{}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := annotRE.FindStringSubmatch(c.Text)
				if m == nil {
					if strings.HasPrefix(c.Text, "//hatric:") {
						a.Malformed = append(a.Malformed, malformedAnnot{c.Pos(),
							"malformed //hatric: annotation: " + c.Text})
					}
					continue
				}
				kind, reason := annotKind(m[1]), strings.TrimSpace(m[2])
				pos := fset.Position(c.Pos())
				switch {
				case okKinds[kind]:
					if reason == "" {
						a.Malformed = append(a.Malformed, malformedAnnot{c.Pos(),
							string("//hatric:" + kind + " requires a reason")})
						continue
					}
					byFile := a.ok[kind]
					if byFile == nil {
						byFile = map[string]map[int]string{}
						a.ok[kind] = byFile
					}
					byLine := byFile[pos.Filename]
					if byLine == nil {
						byLine = map[int]string{}
						byFile[pos.Filename] = byLine
					}
					byLine[pos.Line] = reason
				case markerKinds[kind]:
					markerLines[pos.Line] = markerAt{kind, c.Pos()}
				case kind == annotFixtureNonCritical:
					a.NonCritical = true
				default:
					a.Malformed = append(a.Malformed, malformedAnnot{c.Pos(),
						string("unknown //hatric: annotation kind " + kind)})
				}
			}
		}
		// Attach markers to the function declaration that follows them:
		// any marker line inside the doc group, or on the line directly
		// above the func keyword.
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			from := fset.Position(fd.Pos()).Line - 1
			to := fset.Position(fd.Pos()).Line
			if fd.Doc != nil {
				from = fset.Position(fd.Doc.Pos()).Line
			}
			for line := from; line <= to; line++ {
				if m, hit := markerLines[line]; hit {
					set := a.marked[m.kind]
					if set == nil {
						set = map[*ast.FuncDecl]bool{}
						a.marked[m.kind] = set
					}
					set[fd] = true
					delete(markerLines, line)
				}
			}
		}
		for _, m := range markerLines {
			a.Malformed = append(a.Malformed, malformedAnnot{m.pos,
				string("//hatric:" + m.kind + " must directly precede a function declaration")})
		}
	}
	return a
}

// Suppressed reports whether an -ok annotation of the given kind sits on
// pos's line or the line directly above it.
func (a *Annotations) Suppressed(kind annotKind, pos token.Position) bool {
	byLine := a.ok[kind][pos.Filename]
	if byLine == nil {
		return false
	}
	_, same := byLine[pos.Line]
	_, above := byLine[pos.Line-1]
	return same || above
}

// Marked returns the function declarations carrying the given marker.
func (a *Annotations) Marked(kind annotKind) map[*ast.FuncDecl]bool {
	return a.marked[kind]
}
