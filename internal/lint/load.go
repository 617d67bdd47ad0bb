package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Loader parses and type-checks the module's packages using nothing outside
// the standard library: module-internal imports are resolved by mapping the
// import path onto the module directory, standard-library imports through
// the source importer. Type errors never abort a load — analyzers receive
// whatever facts the checker could establish.
type Loader struct {
	Fset    *token.FileSet
	ModRoot string
	ModPath string

	imp *moduleImporter
}

// NewLoader creates a loader for the module rooted at dir (the directory
// containing go.mod).
func NewLoader(dir string) (*Loader, error) {
	modPath, err := modulePath(filepath.Join(dir, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	l := &Loader{Fset: fset, ModRoot: dir, ModPath: modPath}
	l.imp = &moduleImporter{
		loader:  l,
		std:     importer.ForCompiler(fset, "source", nil),
		cache:   map[string]*types.Package{},
		loading: map[string]bool{},
	}
	return l, nil
}

// FindModuleRoot walks up from dir looking for go.mod.
func FindModuleRoot(dir string) (string, error) {
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
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// modulePath reads the module directive from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// Match expands package patterns relative to the module root into package
// directories. Supported forms: "./...", "dir/...", and plain directory
// paths. Directories named testdata (and hidden directories) are skipped,
// as are directories with no non-test Go files. Unlike the go command,
// "./..." does not stop at a nested module: it includes bench/, whose
// packages load under the chopper/bench import path.
func (l *Loader) Match(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] && hasGoFiles(dir) {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			if err := walkPackageDirs(l.ModRoot, add); err != nil {
				return nil, err
			}
		case strings.HasSuffix(pat, "/..."):
			root := filepath.Join(l.ModRoot, strings.TrimSuffix(pat, "/..."))
			if err := walkPackageDirs(root, add); err != nil {
				return nil, err
			}
		default:
			add(filepath.Join(l.ModRoot, pat))
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func walkPackageDirs(root string, add func(dir string)) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		add(path)
		return nil
	})
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

// Load parses and type-checks the package in dir. Its import path is
// derived from the directory's position under the module root.
func (l *Loader) Load(dir string) (*Package, error) {
	rel, err := filepath.Rel(l.ModRoot, dir)
	if err != nil {
		return nil, err
	}
	importPath := l.ModPath
	if rel != "." {
		importPath = l.ModPath + "/" + filepath.ToSlash(rel)
	}
	return l.LoadDir(dir, importPath)
}

// LoadDir parses and type-checks the non-test Go files of dir under an
// explicit import path. Tests use it to present testdata fixtures to
// path-scoped analyzers as if they lived in a real package.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	info := newInfo()
	conf := types.Config{
		Importer: l.imp,
		Error:    func(error) {}, // collect what we can; partial info is fine
	}
	// Check errors are tolerated: analyzers fall back to syntax-only facts.
	_, _ = conf.Check(importPath, l.Fset, files, info)
	return &Package{Fset: l.Fset, Path: importPath, Files: files, Info: info}, nil
}

func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}

// moduleImporter resolves module-internal imports from source under the
// module root and everything else through the standard library's source
// importer. Results are cached per import path.
type moduleImporter struct {
	loader  *Loader
	std     types.Importer
	cache   map[string]*types.Package
	loading map[string]bool
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := m.cache[path]; ok {
		return pkg, nil
	}
	l := m.loader
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		if m.loading[path] {
			return nil, fmt.Errorf("lint: import cycle through %s", path)
		}
		m.loading[path] = true
		defer delete(m.loading, path)

		dir := filepath.Join(l.ModRoot, strings.TrimPrefix(strings.TrimPrefix(path, l.ModPath), "/"))
		files, err := l.parseDir(dir)
		if err != nil {
			return nil, err
		}
		conf := types.Config{Importer: m, Error: func(error) {}}
		pkg, err := conf.Check(path, l.Fset, files, nil)
		if pkg != nil {
			m.cache[path] = pkg
			return pkg, nil
		}
		return nil, err
	}
	pkg, err := m.std.Import(path)
	if err != nil {
		return nil, err
	}
	m.cache[path] = pkg
	return pkg, nil
}
