package lint

import (
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Program is one shared, cached load of the module: a single Loader, at
// most one parse+type-check per package directory no matter how many rules
// ask for it, and a keyed fact cache so whole-program analyses (the
// lock-order graph) are computed once and reused across every file they
// report on. chopperlint previously re-loaded packages per rule; routing
// all loads through a Program roughly halves its CI wall time.
type Program struct {
	Loader *Loader

	mu    sync.Mutex
	pkgs  map[string]*Package // keyed by absolute package directory
	errs  map[string]error
	facts map[string]any
}

// NewProgram creates a program for the module rooted at dir.
func NewProgram(dir string) (*Program, error) {
	ld, err := NewLoader(dir)
	if err != nil {
		return nil, err
	}
	return NewProgramFrom(ld), nil
}

// NewProgramFrom creates a program with empty package and fact caches over
// an existing loader, reusing every import it has already type-checked (the
// standard library above all). A Loader is not safe for concurrent use, so
// programs sharing one must not load packages at the same time.
func NewProgramFrom(ld *Loader) *Program {
	return &Program{
		Loader: ld,
		pkgs:   map[string]*Package{},
		errs:   map[string]error{},
		facts:  map[string]any{},
	}
}

// Package loads (or returns the cached load of) the package in dir. The
// returned package carries a back-pointer to the program, giving
// whole-program rules access to sibling packages and the fact cache.
func (p *Program) Package(dir string) (*Package, error) {
	dir = filepath.Clean(dir)
	p.mu.Lock()
	defer p.mu.Unlock()
	if pkg, ok := p.pkgs[dir]; ok {
		return pkg, nil
	}
	if err, ok := p.errs[dir]; ok {
		return nil, err
	}
	pkg, err := p.Loader.Load(dir)
	if err != nil {
		p.errs[dir] = err
		return nil, err
	}
	pkg.Prog = p
	p.pkgs[dir] = pkg
	return pkg, nil
}

// PackageByPath loads a package by module import path ("chopper/internal/exec").
// Paths outside the module are an error.
func (p *Program) PackageByPath(importPath string) (*Package, error) {
	l := p.Loader
	rel := strings.TrimPrefix(strings.TrimPrefix(importPath, l.ModPath), "/")
	return p.Package(filepath.Join(l.ModRoot, rel))
}

// Fact returns the cached cross-package fact under key, computing it with
// compute on first use. compute runs outside the program lock (it may load
// packages); concurrent first calls for the same key may both compute, with
// one result kept — compute must therefore be pure.
func (p *Program) Fact(key string, compute func() any) any {
	p.mu.Lock()
	if v, ok := p.facts[key]; ok {
		p.mu.Unlock()
		return v
	}
	p.mu.Unlock()
	v := compute()
	p.mu.Lock()
	defer p.mu.Unlock()
	if prev, ok := p.facts[key]; ok {
		return prev
	}
	p.facts[key] = v
	return v
}

// SortDiagnostics orders diagnostics byte-stably — by file, then line, col,
// rule, message — and drops exact duplicates in place. Every chopperlint
// and chopperverify surface sorts through this one function so output is
// identical across machines and load orders.
func SortDiagnostics(diags []Diagnostic) []Diagnostic {
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].File != diags[j].File {
			return diags[i].File < diags[j].File
		}
		if diags[i].Line != diags[j].Line {
			return diags[i].Line < diags[j].Line
		}
		if diags[i].Col != diags[j].Col {
			return diags[i].Col < diags[j].Col
		}
		if diags[i].Rule != diags[j].Rule {
			return diags[i].Rule < diags[j].Rule
		}
		return diags[i].Message < diags[j].Message
	})
	dedup := diags[:0]
	for i, d := range diags {
		if i > 0 && d == diags[i-1] {
			continue
		}
		dedup = append(dedup, d)
	}
	return dedup
}
