package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// A Package is one loaded, type-checked compilation unit plus the
// annotation index the analyzers consult for escape hatches.
type Package struct {
	// Dir is the directory the sources were read from.
	Dir string
	// Path is the import path analyzers scope their rules by. Fixtures may
	// override it with a "//eantlint:path" directive in any file.
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	annotations map[annKey]annotation
}

// annKey locates an annotation: one file, one line, one annotation name.
type annKey struct {
	File string
	Line int
	Name string
}

// annotation is a parsed "//eant:<name> <reason>" comment.
type annotation struct {
	Name   string
	Reason string
}

// A Loader parses and type-checks packages of this module. It shares one
// FileSet and one source importer across loads, and caches every package
// it has checked by the import path it was requested under, so a package
// is type-checked at most once per Loader — whether it is loaded as an
// analysis root or pulled in as a dependency of one.
type Loader struct {
	fset *token.FileSet
	imp  types.Importer
	// loaded caches checked packages by the path LoadDir was called with
	// (NOT the "//eantlint:path" override, which only renames the package
	// for rule scoping). A later LoadDir of the same path returns the
	// cached package, and a root package importing that path resolves to
	// it instead of re-type-checking the directory through the source
	// importer — which is what lets fixture packages import each other
	// and lets LoadAll check each module package exactly once.
	loaded map[string]*Package
	// Tests controls whether _test.go files are included. The lint suite
	// analyzes non-test sources: test files may legitimately use wall-clock
	// timeouts and ad-hoc randomness, and test-order dependence is caught
	// dynamically by `go test -shuffle=on` in CI instead.
	Tests bool
}

// NewLoader returns a Loader backed by the stdlib source importer, which
// resolves imports by compiling them from source — no pre-built export
// data and no network required.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	l := &Loader{fset: fset, loaded: map[string]*Package{}}
	l.imp = importer.ForCompiler(fset, "source", nil)
	return l
}

// Import implements types.Importer: already-loaded root packages resolve
// from the Loader's cache, everything else (the standard library) falls
// through to the source importer. Loader itself is the Importer handed to
// every type-check, so module-internal imports never re-check a package a
// previous LoadDir already produced.
func (l *Loader) Import(path string) (*types.Package, error) {
	if p, ok := l.loaded[path]; ok {
		return p.Types, nil
	}
	return l.imp.Import(path)
}

// LoadDir loads the single package in dir under import path. An
// "//eantlint:path" directive in any file overrides path (used by test
// fixtures to exercise path-scoped rules). Repeated loads of the same
// import path return the cached package.
func (l *Loader) LoadDir(dir, path string) (*Package, error) {
	if p, ok := l.loaded[path]; ok {
		return p, nil
	}
	pkg, err := l.parseDir(dir, path)
	if err != nil {
		return nil, err
	}
	if err := l.check(pkg); err != nil {
		return nil, err
	}
	l.loaded[path] = pkg
	return pkg, nil
}

// parseDir parses the package in dir without type-checking it.
func (l *Loader) parseDir(dir, path string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		if !l.Tests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("%s: no Go files", dir)
	}

	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	pkg := &Package{
		Dir:         dir,
		Path:        path,
		Fset:        l.fset,
		Files:       files,
		annotations: map[annKey]annotation{},
	}
	pkg.indexComments()
	return pkg, nil
}

// check type-checks a parsed package, resolving imports through the
// Loader (cache first, source importer for the standard library).
func (l *Loader) check(pkg *Package) error {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(pkg.Path, l.fset, pkg.Files, info)
	if err != nil {
		return fmt.Errorf("type-checking %s: %w", pkg.Path, err)
	}
	// Mark complete so the package is usable as an import of a later root.
	tpkg.MarkComplete()
	pkg.Types = tpkg
	pkg.Info = info
	return nil
}

// LoadAll loads every package of the module at root exactly once: all
// directories are parsed up front, ordered so dependencies precede their
// dependents, and each is type-checked with module-internal imports served
// from the packages already checked. The old per-LoadDir flow checked each
// module package twice — once as a root with syntax, and again from source
// whenever a later root imported it — which is the suite-runtime waste
// this path removes. The result is sorted by import path.
func (l *Loader) LoadAll(root string) ([]*Package, error) {
	modPath, err := ModulePath(root)
	if err != nil {
		return nil, err
	}
	dirs, err := PackageDirs(root)
	if err != nil {
		return nil, err
	}
	parsed := make([]*Package, 0, len(dirs))
	byPath := make(map[string]*Package, len(dirs))
	for _, dp := range dirs {
		if p, ok := l.loaded[dp[1]]; ok {
			parsed = append(parsed, p)
			byPath[dp[1]] = p
			continue
		}
		pkg, err := l.parseDir(dp[0], dp[1])
		if err != nil {
			return nil, err
		}
		parsed = append(parsed, pkg)
		byPath[dp[1]] = pkg
	}

	// Topological order by module-internal imports (imports are acyclic by
	// construction; the go compiler would have rejected a cycle). The DFS
	// visits packages in sorted-path order, so the order — and therefore
	// every downstream artifact — is deterministic across loads.
	order := make([]*Package, 0, len(parsed))
	state := make(map[*Package]int, len(parsed)) // 0 new, 1 visiting, 2 done
	var visit func(p *Package)
	visit = func(p *Package) {
		if state[p] != 0 {
			return
		}
		state[p] = 1
		for _, imp := range p.importPaths() {
			if strings.HasPrefix(imp, modPath+"/") || imp == modPath {
				if dep, ok := byPath[imp]; ok && state[dep] != 1 {
					visit(dep)
				}
			}
		}
		state[p] = 2
		order = append(order, p)
	}
	for _, p := range parsed {
		visit(p)
	}

	for _, pkg := range order {
		key := pkg.Path
		if _, ok := l.loaded[key]; ok {
			continue
		}
		if err := l.check(pkg); err != nil {
			return nil, err
		}
		l.loaded[key] = pkg
	}
	sort.Slice(parsed, func(i, j int) bool { return parsed[i].Path < parsed[j].Path })
	return parsed, nil
}

// importPaths returns the package's imports, deduplicated and sorted.
func (p *Package) importPaths() []string {
	seen := map[string]bool{}
	var out []string
	for _, f := range p.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil || seen[path] {
				continue
			}
			seen[path] = true
			out = append(out, path)
		}
	}
	sort.Strings(out)
	return out
}

// indexComments scans every comment for "//eant:<name> <reason>"
// annotations and "//eantlint:path <path>" directives.
func (p *Package) indexComments() {
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				if rest, ok := strings.CutPrefix(text, "//eantlint:path"); ok {
					if path := strings.TrimSpace(rest); path != "" {
						p.Path = path
					}
					continue
				}
				rest, ok := strings.CutPrefix(text, "//eant:")
				if !ok {
					continue
				}
				name, reason, _ := strings.Cut(rest, " ")
				pos := p.Fset.Position(c.Pos())
				p.annotations[annKey{pos.Filename, pos.Line, name}] = annotation{
					Name:   name,
					Reason: strings.TrimSpace(reason),
				}
			}
		}
	}
}

// ModulePath reads the module path from root's go.mod.
func ModulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s/go.mod: no module directive", root)
}

// PackageDirs walks the module at root and returns every directory holding
// a Go package, with its import path. testdata, hidden, underscore and
// vendor directories are skipped, and so is any nested module (a
// directory below root with its own go.mod), matching the go tool's
// "./..." expansion.
func PackageDirs(root string) ([][2]string, error) {
	modPath, err := ModulePath(root)
	if err != nil {
		return nil, err
	}
	var out [][2]string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if path != root {
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				rel, err := filepath.Rel(root, path)
				if err != nil {
					return err
				}
				imp := modPath
				if rel != "." {
					imp = modPath + "/" + filepath.ToSlash(rel)
				}
				out = append(out, [2]string{path, imp})
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i][1] < out[j][1] })
	return out, nil
}
