package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// The loader turns `go list` package metadata into type-checked
// *Package values without golang.org/x/tools. The trick that keeps it
// stdlib-only: `go list -export` materializes gc export data for every
// dependency (including the standard library, whose .a files no longer
// ship in GOROOT since Go 1.20) in the build cache, and
// importer.ForCompiler's lookup hook lets us feed those files to the
// type checker. Packages matched by the patterns are parsed and checked
// from source so analyzers get full syntax trees; their imports resolve
// through export data, which keeps the load order trivial.

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	ImportPath string
	Dir        string
	Standard   bool
	Export     string
	GoFiles    []string
	DepOnly    bool
	Error      *struct{ Err string }
}

// goList runs `go list -export -json -deps` in dir for the patterns and
// decodes the JSON stream.
func goList(dir string, patterns []string) ([]*listPackage, error) {
	args := append([]string{"list", "-e", "-export", "-json", "-deps", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list: %v\n%s", err, stderr.String())
	}
	var pkgs []*listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter resolves imports from gc export data files, falling
// back to nothing: every dependency of a listed package is itself
// listed by -deps, so the table is complete.
type exportImporter struct {
	base    types.Importer
	exports map[string]string // import path -> export data file
	cache   map[string]*types.Package
}

func newExportImporter(fset *token.FileSet, listed []*listPackage) *exportImporter {
	exports := make(map[string]string, len(listed))
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	imp := &exportImporter{exports: exports, cache: make(map[string]*types.Package)}
	imp.base = importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(file)
	})
	return imp
}

// Import implements types.Importer.
func (imp *exportImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := imp.cache[path]; ok {
		return pkg, nil
	}
	pkg, err := imp.base.Import(path)
	if err != nil {
		return nil, err
	}
	imp.cache[path] = pkg
	return pkg, nil
}

// newInfo allocates the fact tables analyzers rely on.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
}

// Load lists, parses, and type-checks the packages matched by patterns,
// resolved relative to dir ("" for the current directory). Test files
// are not analyzed: the suite guards the shipped pipeline, and tests
// legitimately use fixed wall-clock stand-ins and map-order-insensitive
// assertions.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := newExportImporter(fset, listed)
	var out []*Package
	for _, p := range listed {
		if p.DepOnly || p.Standard {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", p.ImportPath, p.Error.Err)
		}
		files := make([]*ast.File, 0, len(p.GoFiles))
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("lint: %v", err)
			}
			files = append(files, f)
		}
		info := newInfo()
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("lint: type-checking %s: %v", p.ImportPath, err)
		}
		out = append(out, &Package{
			Path:  p.ImportPath,
			Fset:  fset,
			Files: files,
			Types: tpkg,
			Info:  info,
		})
	}
	return out, nil
}

// StdImporter returns an importer able to resolve the named standard
// library packages (and their transitive dependencies) from build-cache
// export data. The golden-file tests use it to type-check testdata.
func StdImporter(fset *token.FileSet, pkgs ...string) (types.Importer, error) {
	listed, err := goList("", pkgs)
	if err != nil {
		return nil, err
	}
	return newExportImporter(fset, listed), nil
}
