package vet

import (
	"bufio"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The layer-3 pass driver: a miniature go/analysis multichecker built on
// the standard library only.
//
// The driver loads and type-checks the union of every configured
// directory scope exactly once, topologically sorts the resulting
// package units along module-internal import edges, and then runs every
// registered pass in turn, each visiting the units in dependency order
// so a pass's per-package facts (taint summaries, lock sets, magic
// registries) are always exported by an imported package before an
// importer asks for them. Findings from all passes merge, flow through
// the //fluxvet:allow directive filter (which marks directives used),
// and gain the driver's own hygiene findings: stale-allow for a
// directive that suppressed nothing and unknown-allow for a directive
// naming a check that does not exist.

// unit is one loaded package: the parse/type-check result plus its place
// in the module's import graph.
type unit struct {
	// dir is the Root-relative package directory ("internal/record").
	dir string
	// path is the module import path ("flux/internal/record").
	path string
	pkg  *sourcePkg
	// imports holds the module-internal import paths of the unit's files.
	imports map[string]bool
}

// Facts is a per-pass store of exported per-package facts, keyed by
// (package import path, object name). Each pass owns a private instance;
// the topological unit order guarantees an importer sees its
// dependencies' exports.
type Facts struct {
	m map[factKey]any
}

type factKey struct{ pkg, name string }

// NewFacts returns an empty fact store.
func NewFacts() *Facts { return &Facts{m: map[factKey]any{}} }

// Export records a fact for (pkg, name), overwriting any previous value.
func (f *Facts) Export(pkg, name string, v any) { f.m[factKey{pkg, name}] = v }

// Import retrieves the fact exported for (pkg, name).
func (f *Facts) Import(pkg, name string) (any, bool) {
	v, ok := f.m[factKey{pkg, name}]
	return v, ok
}

// passCtx is what a pass sees: the loaded units in topological order,
// its private fact store, and its reporting scope.
type passCtx struct {
	cfg   SourceConfig
	units []*unit
	facts *Facts
	// scope is the set of dirs the pass reports findings in. Fact
	// gathering may range wider (every loaded unit); report gates on it.
	scope map[string]bool
}

// report says whether findings in u's directory should be emitted.
func (pc *passCtx) report(u *unit) bool { return pc.scope[u.dir] }

// passDef is one registered pass: its reporting scope and the analysis
// body. run is called once per driver invocation with every unit;
// interprocedural passes iterate the units (already in dependency
// order), export facts as they go, and may do a whole-program
// reconciliation at the end before returning findings.
type passDef struct {
	scope func(cfg SourceConfig) []string
	run   func(pc *passCtx) []Finding
}

// passRegistry lists the driver's passes in the order they run.
func passRegistry() []passDef {
	return []passDef{
		{ // wallclock, determinism-taint
			scope: func(cfg SourceConfig) []string {
				return append(append([]string(nil), cfg.VirtualClockDirs...), cfg.TaintDirs...)
			},
			run: determinismPass,
		},
		{ // maprange
			scope: func(cfg SourceConfig) []string { return cfg.DeterministicDirs },
			run:   mapRangePass,
		},
		{ // lock-order
			scope: func(cfg SourceConfig) []string { return cfg.LockDirs },
			run:   lockOrderPass,
		},
		{ // durability
			scope: func(cfg SourceConfig) []string { return cfg.DurabilityDirs },
			run:   durabilityPass,
		},
		{ // wire-drift
			scope: func(cfg SourceConfig) []string { return cfg.WireDirs },
			run:   wireDriftPass,
		},
	}
}

// RunSource runs the layer-3 driver: it loads the package graph once,
// runs every registered pass in registry order, and returns the merged
// findings after the allow-directive filter, sorted.
func RunSource(cfg SourceConfig) ([]Finding, error) {
	units, err := loadUnits(cfg)
	if err != nil {
		return nil, err
	}
	var raw []Finding
	for _, def := range passRegistry() {
		scope := map[string]bool{}
		for _, d := range def.scope(cfg) {
			scope[d] = true
		}
		raw = append(raw, def.run(&passCtx{cfg: cfg, units: units, facts: NewFacts(), scope: scope})...)
	}
	out := filterAllows(units, raw)
	Sort(out)
	return out, nil
}

// filterAllows suppresses findings covered by an allow directive (marking
// the directive used) and appends the directive-hygiene findings:
// unknown-allow for directives naming a check that does not exist,
// stale-allow for directives that suppressed nothing this run.
func filterAllows(units []*unit, raw []Finding) []Finding {
	var out []Finding
	byFile := map[string]*sourcePkg{}
	for _, u := range units {
		for file := range u.pkg.allowIdx {
			byFile[file] = u.pkg
		}
	}
	for _, f := range raw {
		if p := byFile[f.File]; p != nil {
			if d := p.allowFor(f.File, f.Line, f.Check); d != nil {
				d.used = true
				continue
			}
		}
		out = append(out, f)
	}
	known := map[string]bool{}
	for _, c := range SourceCheckNames() {
		known[c] = true
	}
	for _, u := range units {
		for _, d := range u.pkg.directives {
			switch {
			case !known[d.check]:
				out = append(out, Finding{
					Check: CheckUnknownAllow, Severity: Error,
					File: d.file, Line: d.line,
					Message: fmt.Sprintf("allow directive names unknown check %q (known: %s)",
						d.check, strings.Join(SourceCheckNames(), ", ")),
				})
			case !d.used:
				out = append(out, Finding{
					Check: CheckStaleAllow, Severity: Warn,
					File: d.file, Line: d.line,
					Message: fmt.Sprintf("allow directive for %q suppresses nothing; delete it", d.check),
				})
			}
		}
	}
	return out
}

// loadUnits parses and type-checks the union of every configured
// directory scope exactly once and returns the units topologically
// sorted along module-internal import edges (dependencies first, ties
// broken by directory name so the order is deterministic).
func loadUnits(cfg SourceConfig) ([]*unit, error) {
	dirSet := map[string]bool{}
	for _, list := range [][]string{
		cfg.VirtualClockDirs, cfg.DeterministicDirs, cfg.TaintDirs,
		cfg.LockDirs, cfg.DurabilityDirs, cfg.WireDirs,
	} {
		for _, d := range list {
			dirSet[d] = true
		}
	}
	dirs := make([]string, 0, len(dirSet))
	for d := range dirSet {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)

	module := modulePath(cfg.Root)
	// One FileSet and one (source-resolving, cached) stdlib importer are
	// shared across packages so the standard library is type-checked once.
	fset := token.NewFileSet()
	imp := newPermissiveImporter(fset)
	var units []*unit
	byPath := map[string]*unit{}
	for _, dir := range dirs {
		pkg, err := loadPackage(fset, imp, filepath.Join(cfg.Root, dir))
		if err != nil {
			return nil, fmt.Errorf("vet: loading %s: %w", dir, err)
		}
		if pkg == nil {
			continue // no Go files
		}
		u := &unit{
			dir:     dir,
			path:    module + "/" + filepath.ToSlash(dir),
			pkg:     pkg,
			imports: map[string]bool{},
		}
		for _, f := range pkg.files {
			for _, spec := range f.Imports {
				path := strings.Trim(spec.Path.Value, `"`)
				if strings.HasPrefix(path, module+"/") {
					u.imports[path] = true
				}
			}
		}
		units = append(units, u)
		byPath[u.path] = u
	}

	// Kahn's algorithm with a sorted ready set: dependencies first.
	indeg := map[*unit]int{}
	dependents := map[*unit][]*unit{}
	for _, u := range units {
		for imp := range u.imports {
			if dep, ok := byPath[imp]; ok {
				indeg[u]++
				dependents[dep] = append(dependents[dep], u)
			}
		}
	}
	ready := make([]*unit, 0, len(units))
	for _, u := range units {
		if indeg[u] == 0 {
			ready = append(ready, u)
		}
	}
	var sorted []*unit
	for len(ready) > 0 {
		sort.Slice(ready, func(i, j int) bool { return ready[i].dir < ready[j].dir })
		u := ready[0]
		ready = ready[1:]
		sorted = append(sorted, u)
		for _, dep := range dependents[u] {
			indeg[dep]--
			if indeg[dep] == 0 {
				ready = append(ready, dep)
			}
		}
	}
	if len(sorted) != len(units) {
		// An import cycle (impossible in a compiling module) — fall back
		// to lexical order rather than dropping packages.
		sort.Slice(units, func(i, j int) bool { return units[i].dir < units[j].dir })
		return units, nil
	}
	return sorted, nil
}

// modulePath reads the module directive from Root's go.mod, defaulting
// to "flux" when the file is missing or malformed.
func modulePath(root string) string {
	f, err := os.Open(filepath.Join(root, "go.mod"))
	if err != nil {
		return "flux"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest)
		}
	}
	return "flux"
}
