// Package load type-checks Go packages for the natlevet analyzers
// without golang.org/x/tools (unavailable offline): it shells out to
// `go list -export -deps -json`, which compiles dependencies and hands
// back the compiler's export data, and then parses + type-checks the
// target packages with go/parser and go/types, resolving imports
// through go/importer's gc lookup mode. This is the same strategy
// x/tools' go/packages uses in NeedExportFile mode, reduced to what
// the analyzers need: syntax, types.Info, and the *types.Package.
package load

import (
	"bytes"
	"encoding/json"
	"errors"
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
	"sort"
	"strings"
)

// A Package is one type-checked target package.
type Package struct {
	// PkgPath is the import path (for fixtures, the package name).
	PkgPath string
	// Dir is the directory holding the source files.
	Dir string
	// GoFiles are the non-test source files, absolute paths.
	GoFiles []string

	Fset      *token.FileSet
	Syntax    []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// listed is the subset of `go list -json` output the loader consumes.
type listed struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Error      *listError
}

// listError is go list's structured per-package error (-e mode).
type listError struct {
	Err string
}

// run executes one go command in dir and returns stdout, folding
// stderr into the error.
func run(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %v: %v\n%s", args, err, stderr.String())
	}
	return out, nil
}

// list invokes `go list -export -deps -json` on the patterns and
// decodes the stream. A non-empty overlay (absolute file path → the
// contents that replace it) is handed to the go tool with -overlay, so
// export data is compiled from the replaced files.
func list(dir string, overlay map[string][]byte, patterns []string) ([]listed, error) {
	// -e keeps go list from dying on the first broken package so every
	// package's structured Error can be surfaced with its import path.
	args := []string{
		"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles,DepOnly,Error",
	}
	if len(overlay) > 0 {
		tmp, err := os.MkdirTemp("", "natlevet-overlay")
		if err != nil {
			return nil, fmt.Errorf("writing overlay: %v", err)
		}
		defer os.RemoveAll(tmp)
		name, err := writeOverlay(tmp, overlay)
		if err != nil {
			return nil, fmt.Errorf("writing overlay: %v", err)
		}
		args = append(args, "-overlay="+name)
	}
	out, err := run(dir, append(args, patterns...)...)
	if err != nil {
		return nil, err
	}
	var pkgs []listed
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listed
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			return pkgs, nil
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
}

// writeOverlay writes each replacement file into dir, and the go
// tool's -overlay JSON mapping the replaced paths to them, whose name
// it returns.
func writeOverlay(dir string, overlay map[string][]byte) (string, error) {
	replace := make(map[string]string, len(overlay))
	for path, src := range overlay {
		name := filepath.Join(dir, fmt.Sprintf("%d.go", len(replace)))
		if err := os.WriteFile(name, src, 0o644); err != nil {
			return "", err
		}
		replace[path] = name
	}
	js, err := json.Marshal(struct{ Replace map[string]string }{replace})
	if err != nil {
		return "", err
	}
	name := filepath.Join(dir, "overlay.json")
	return name, os.WriteFile(name, js, 0o644)
}

// exportLookup adapts an import-path → export-file map to the lookup
// signature go/importer's gc mode expects.
func exportLookup(exports map[string]string) func(string) (io.ReadCloser, error) {
	return func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// check parses files and type-checks them as one package. A file named
// in overlay is parsed from its replacement contents.
func check(fset *token.FileSet, pkgPath string, files []string, overlay map[string][]byte, imp types.Importer) ([]*ast.File, *types.Package, *types.Info, error) {
	var syntax []*ast.File
	for _, name := range files {
		var src any
		if b, ok := overlay[name]; ok {
			src = b
		}
		f, err := parser.ParseFile(fset, name, src, parser.ParseComments)
		if err != nil {
			return nil, nil, nil, err
		}
		syntax = append(syntax, f)
	}
	info := newInfo()
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(pkgPath, fset, syntax, info)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("type-checking %s: %v", pkgPath, err)
	}
	return syntax, pkg, info, nil
}

// Packages loads and type-checks the packages matching the go-list
// patterns, rooted at dir (any directory inside the module). Only
// non-test GoFiles are loaded — the analyzers check shipped code. A
// non-nil overlay maps absolute file paths to contents that replace
// them on disk for this load only (the mutation tests seed bugs this
// way without copying the tree).
func Packages(dir string, overlay map[string][]byte, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := list(dir, overlay, patterns)
	if err != nil {
		return nil, err
	}
	// A package the go tool cannot load or compile must fail the lint
	// run, not silently vanish from it: a tree that does not build has
	// no analyzable invariants, and a skipped package reads as clean.
	for _, p := range pkgs {
		if p.Error != nil {
			return nil, fmt.Errorf("loading %s: %s", p.ImportPath, strings.TrimSpace(p.Error.Err))
		}
	}
	exports := make(map[string]string)
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	matched := 0
	for _, p := range pkgs {
		if !p.DepOnly {
			matched++
		}
	}
	if matched == 0 {
		return nil, fmt.Errorf("patterns %v matched no packages", patterns)
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", exportLookup(exports))
	var out []*Package
	for _, p := range pkgs {
		if p.DepOnly || len(p.GoFiles) == 0 {
			continue
		}
		var files []string
		for _, g := range p.GoFiles {
			files = append(files, filepath.Join(p.Dir, g))
		}
		syntax, tpkg, info, err := check(fset, p.ImportPath, files, overlay, imp)
		if err != nil {
			return nil, err
		}
		out = append(out, &Package{
			PkgPath: p.ImportPath, Dir: p.Dir, GoFiles: files,
			Fset: fset, Syntax: syntax, Types: tpkg, TypesInfo: info,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PkgPath < out[j].PkgPath })
	return out, nil
}

// One returns the single package matching pattern.
func One(dir, pattern string) (*Package, error) {
	pkgs, err := Packages(dir, nil, pattern)
	if err != nil {
		return nil, err
	}
	if len(pkgs) != 1 {
		return nil, fmt.Errorf("pattern %q matched %d packages, want 1", pattern, len(pkgs))
	}
	return pkgs[0], nil
}

// moduleRoot walks up from dir to the directory holding go.mod.
func moduleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}

// Fixture loads the .go files of dir as one package. The directory is
// typically an analysistest testdata tree, invisible to the go tool,
// so the files are enumerated directly; their imports (standard
// library and module-internal alike) are resolved through the
// enclosing module's export data, which lets fixtures import the real
// natle/internal/... packages instead of hand-written stubs.
func Fixture(dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".go" {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	sort.Strings(files)

	// Pre-parse (imports only) to learn what must be resolved.
	fset := token.NewFileSet()
	importSet := make(map[string]bool)
	pkgName := ""
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			return nil, err
		}
		pkgName = f.Name.Name
		for _, spec := range f.Imports {
			importSet[spec.Path.Value[1:len(spec.Path.Value)-1]] = true
		}
	}

	exports := make(map[string]string)
	if len(importSet) > 0 {
		root, err := moduleRoot(dir)
		if err != nil {
			return nil, err
		}
		var paths []string
		for p := range importSet {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		pkgs, err := list(root, nil, paths)
		if err != nil {
			return nil, err
		}
		for _, p := range pkgs {
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
	}

	fset = token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", exportLookup(exports))
	syntax, tpkg, info, err := check(fset, pkgName, files, nil, imp)
	if err != nil {
		return nil, err
	}
	return &Package{
		PkgPath: pkgName, Dir: dir, GoFiles: files,
		Fset: fset, Syntax: syntax, Types: tpkg, TypesInfo: info,
	}, nil
}
