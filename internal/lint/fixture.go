package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
)

// This file is the golden-fixture harness behind the package's tests.
// Each analyzer owns a fixture tree under testdata/src/<root> whose
// files carry analysistest-style `// want `regex`` markers; checking a
// fixture type-checks it under a fake import path (so package scoping
// applies), runs exactly one analyzer, and requires the diagnostics and
// the markers to match one-to-one by line.

// FixturePkg is one package of a golden fixture.
type FixturePkg struct {
	// Subdir under testdata/src/<Root>; "" when the fixture root itself
	// is the package directory.
	Subdir string
	// PkgPath is the fake import path the package is checked under. It
	// drives analyzer scoping (e.g. a path ending in internal/dnswire
	// marks the package as a wiretaint source) and lets later fixture
	// packages import earlier ones.
	PkgPath string
}

// GoldenCase binds an analyzer to its fixture packages, in
// type-checking order (later packages may import earlier ones).
type GoldenCase struct {
	Analyzer *Analyzer
	// Root is the directory under testdata/src.
	Root string
	Pkgs []FixturePkg
}

// GoldenCases returns every analyzer's golden fixture, in suite order.
func GoldenCases() []GoldenCase {
	return []GoldenCase{
		{DeterminismAnalyzer, "determinism", []FixturePkg{{"", "repro/internal/population"}}},
		{WireSafetyAnalyzer, "wiresafety", []FixturePkg{{"", "repro/internal/dnswire"}}},
		{ErrDiscardAnalyzer, "errdiscard", []FixturePkg{{"", "repro/internal/lintfixture"}}},
		{CopyLockAnalyzer, "copylock", []FixturePkg{{"", "repro/internal/lintfixture"}}},
		{RFCConstAnalyzer, "rfcconst", []FixturePkg{{"", "repro/internal/dnswire"}}},
		// determinism's call-chain half: a scoped package reaching sources
		// through an unscoped one.
		{DeterminismAnalyzer, "detertaint", []FixturePkg{
			{"scanlib", "repro/internal/scanlib"},
			{"core", "repro/internal/core"},
		}},
		{GoLeakAnalyzer, "goleak", []FixturePkg{{"", "repro/internal/lintfixture"}}},
		{CtxPropAnalyzer, "ctxprop", []FixturePkg{
			{"iolib", "repro/internal/iolib"},
			{"svc", "repro/internal/svc"},
		}},
		{WireTaintAnalyzer, "wiretaint", []FixturePkg{
			{"wire", "repro/internal/dnswire"},
			{"srv", "repro/internal/srv"},
		}},
		{MergePurityAnalyzer, "mergepurity", []FixturePkg{{"", "repro/internal/mergefix"}}},
		// The generic fixture is one engine checked twice: each consumer
		// package carries the want markers of one analyzer.
		{DeterminismAnalyzer, "generic", []FixturePkg{
			{"engine", "repro/internal/engine"},
			{"core", "repro/internal/core"},
		}},
		{CtxPropAnalyzer, "generic", []FixturePkg{
			{"engine", "repro/internal/engine"},
			{"svc", "repro/internal/svc"},
		}},
	}
}

// FixtureReport is the outcome of checking one golden fixture.
type FixtureReport struct {
	// Missing lists want markers no diagnostic matched; Unexpected
	// lists diagnostics no want marker expected. Both empty == pass.
	Missing    []string
	Unexpected []string
}

var wantMarkerRE = regexp.MustCompile("// want `([^`]+)`")

// fixtureWant is one expectation: a regex anchored to a file:line.
type fixtureWant struct {
	re      *regexp.Regexp
	matched bool
}

// fixtureWants maps file -> line -> expectation.
type fixtureWants map[string]map[int]*fixtureWant

// fixtureImporter resolves a fixture's own fake import paths to the
// already-checked packages and defers everything else to the
// export-data importer for the standard library.
type fixtureImporter struct {
	std   types.Importer
	local map[string]*types.Package
}

func (fi *fixtureImporter) Import(path string) (*types.Package, error) {
	if p, ok := fi.local[path]; ok {
		return p, nil
	}
	if fi.std == nil {
		return nil, fmt.Errorf("fixture imports %q but no standard importer is configured", path)
	}
	return fi.std.Import(path)
}

// parseFixtureDir parses every .go file in srcDir, collecting want
// markers into wants and import paths into imports.
func parseFixtureDir(fset *token.FileSet, srcDir string, wants fixtureWants, imports map[string]bool) ([]*ast.File, error) {
	entries, err := os.ReadDir(srcDir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".go" {
			continue
		}
		path := filepath.Join(srcDir, e.Name())
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			imports[p] = true
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantMarkerRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					return nil, fmt.Errorf("%s: bad want regex %q: %v", path, m[1], err)
				}
				pos := fset.Position(c.Pos())
				if wants[pos.Filename] == nil {
					wants[pos.Filename] = map[int]*fixtureWant{}
				}
				wants[pos.Filename][pos.Line] = &fixtureWant{re: re}
			}
		}
	}
	return files, nil
}

// loadFixture parses and type-checks one golden case rooted at
// testdataDir (the directory holding src/).
func loadFixture(testdataDir string, gc GoldenCase) ([]*Package, fixtureWants, error) {
	fset := token.NewFileSet()
	wants := fixtureWants{}
	imported := map[string]bool{}
	filesByPkg := make([][]*ast.File, len(gc.Pkgs))
	for i, fx := range gc.Pkgs {
		srcDir := filepath.Join(testdataDir, "src", gc.Root, fx.Subdir)
		files, err := parseFixtureDir(fset, srcDir, wants, imported)
		if err != nil {
			return nil, nil, err
		}
		filesByPkg[i] = files
	}

	var stdPaths []string
	for p := range imported {
		isLocal := false
		for _, fx := range gc.Pkgs {
			if p == fx.PkgPath {
				isLocal = true
			}
		}
		if !isLocal {
			stdPaths = append(stdPaths, p)
		}
	}
	sort.Strings(stdPaths)
	var std types.Importer
	if len(stdPaths) > 0 {
		var err error
		std, err = StdImporter(fset, stdPaths...)
		if err != nil {
			return nil, nil, err
		}
	}
	local := map[string]*types.Package{}
	conf := types.Config{Importer: &fixtureImporter{std: std, local: local}}

	var pkgs []*Package
	for i, fx := range gc.Pkgs {
		info := newInfo()
		tpkg, err := conf.Check(fx.PkgPath, fset, filesByPkg[i], info)
		if err != nil {
			return nil, nil, fmt.Errorf("type-checking fixture package %s: %v", fx.PkgPath, err)
		}
		local[fx.PkgPath] = tpkg
		pkgs = append(pkgs, &Package{Path: fx.PkgPath, Fset: fset, Files: filesByPkg[i], Types: tpkg, Info: info})
	}
	return pkgs, wants, nil
}

// RunFixture type-checks one golden case and returns the raw
// diagnostics of its analyzer, for tests asserting on specific
// messages beyond the want-marker contract.
func RunFixture(testdataDir string, gc GoldenCase) ([]Diagnostic, error) {
	pkgs, _, err := loadFixture(testdataDir, gc)
	if err != nil {
		return nil, err
	}
	return Run(pkgs, []*Analyzer{gc.Analyzer}), nil
}

// CheckFixture runs one golden case and compares diagnostics against
// the want markers. The error covers infrastructure failures (missing
// fixture, type-check errors); expectation mismatches are reported in
// the FixtureReport, not the error.
func CheckFixture(testdataDir string, gc GoldenCase) (FixtureReport, error) {
	var rep FixtureReport
	pkgs, wants, err := loadFixture(testdataDir, gc)
	if err != nil {
		return rep, err
	}
	for _, d := range Run(pkgs, []*Analyzer{gc.Analyzer}) {
		w := wants[d.Pos.Filename][d.Pos.Line]
		if w == nil {
			rep.Unexpected = append(rep.Unexpected, d.String())
			continue
		}
		if !w.re.MatchString(d.Message) {
			rep.Unexpected = append(rep.Unexpected,
				fmt.Sprintf("%s (want marker on this line expects %q)", d.String(), w.re))
			continue
		}
		w.matched = true
	}
	var missing []string
	for file, byLine := range wants {
		for line, w := range byLine {
			if !w.matched {
				missing = append(missing, fmt.Sprintf("%s:%d: want %q", file, line, w.re))
			}
		}
	}
	sort.Strings(missing)
	rep.Missing = missing
	return rep, nil
}
