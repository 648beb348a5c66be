// Command deadexports fails (exit 1) on a top-level name that no
// non-test Go file references. It checks the funcs, methods, types,
// vars and consts, exported or not, that the root package, internal/
// and cmd/ declare at top level (struct fields are skipped:
// encoding/json reads them by reflection; so are init, a main
// package's main and the blank name) against the references of every
// non-test file in the tree, bench/, examples/ and scripts/ included.
// Like the go tool, it skips testdata and directories starting with "."
// or "_".
//
// The scan type-checks every package of the tree, bench/ included,
// with go/types over one shared package set, so a name another package
// or type also declares cannot hide a dead one:
//
//   - a package-level name is used when an identifier resolves to it;
//   - a method is used when a selector resolves to it on its own
//     receiver type (or one embedding it), so a call of Pos on one type
//     keeps no Pos method of another type alive;
//   - a call through an interface uses the method of every declared type
//     that implements the interface;
//   - String and Error methods count as used: fmt and the errors
//     package call them through interfaces this tree never names.
//
// A name kept on purpose goes in allow.txt, one per line as
// "<import path>.<Name>" or "<import path>.<Type>.<Method>" followed by
// the reason. An entry that names nothing, or a name that is referenced
// after all, is an error, so the list cannot go stale.
//
// Usage, from the module root:
//
//	go run ./scripts/deadexports
package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	dead, err := run(".", filepath.Join("scripts", "deadexports", "allow.txt"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadexports:", err)
		os.Exit(1)
	}
	for _, d := range dead {
		fmt.Println(d)
	}
	if len(dead) > 0 {
		fmt.Fprintf(os.Stderr, "deadexports: %d top-level names have no non-test reference: delete each, move a test-only helper into its package's _test.go, or allowlist a kept reference with its reason\n", len(dead))
		os.Exit(1)
	}
}

// run scans the module at root and returns its dead names as sorted
// "file:line: key" lines, leaving out the allowlisted ones.
func run(root, allowPath string) ([]string, error) {
	allowed, err := readAllow(allowPath)
	if err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	var mod string
	for _, line := range strings.Split(string(raw), "\n") {
		if m, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			mod = strings.TrimSpace(m)
		}
	}
	l := &loader{
		fset:  token.NewFileSet(),
		files: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		std:   importer.Default(),
		info: &types.Info{
			Defs: map[*ast.Ident]types.Object{},
			Uses: map[*ast.Ident]types.Object{},
		},
	}
	var paths []string // import paths in walk order
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if n := d.Name(); d.IsDir() {
			if p != root && (n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(l.fset, p, nil, 0)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, filepath.Dir(p)) // p is under root: Rel cannot fail
		pkg := path.Join(mod, filepath.ToSlash(rel))
		if l.files[pkg] == nil {
			paths = append(paths, pkg)
		}
		l.files[pkg] = append(l.files[pkg], f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, p := range paths {
		if _, err := l.Import(p); err != nil {
			return nil, err
		}
	}

	used := map[types.Object]bool{}
	var viaInterface []*types.Func // interface methods the tree calls
	for _, obj := range l.info.Uses {
		if f, ok := obj.(*types.Func); ok {
			obj = f.Origin()
			if recv := f.Signature().Recv(); recv != nil && types.IsInterface(recv.Type()) {
				viaInterface = append(viaInterface, f)
			}
		}
		used[obj] = true
	}
	isUsed := func(obj types.Object) bool {
		f, ok := obj.(*types.Func)
		if used[obj] || !ok || f.Signature().Recv() == nil {
			return used[obj]
		}
		if n := f.Name(); (n == "String" || n == "Error") && types.Identical(f.Type(), stringer) {
			return true
		}
		named, ok := types.Unalias(deref(f.Signature().Recv().Type())).(*types.Named)
		if !ok || named.TypeParams() != nil {
			return false
		}
		for _, im := range viaInterface {
			iface := im.Signature().Recv().Type().Underlying().(*types.Interface)
			if im.Name() == f.Name() && (types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface)) {
				return true
			}
		}
		return false
	}

	var dead, referenced []string
	for _, p := range paths {
		if rel := strings.TrimPrefix(p, mod); rel != "" && !strings.HasPrefix(rel, "/internal/") && !strings.HasPrefix(rel, "/cmd/") {
			continue
		}
		for _, f := range l.files[p] {
			topDecls(f, func(id *ast.Ident, recv string) {
				if n := id.Name; n == "_" || recv == "" && (n == "init" || n == "main" && f.Name.Name == "main") {
					return
				}
				key := p + "." + id.Name
				if recv != "" {
					key = p + "." + recv + "." + id.Name
				}
				u := isUsed(l.info.Defs[id])
				if allowed[key] {
					delete(allowed, key)
					if u {
						referenced = append(referenced, key)
					}
				} else if !u {
					pos := l.fset.Position(id.Pos())
					rel, _ := filepath.Rel(root, pos.Filename) // as above
					dead = append(dead, fmt.Sprintf("%s:%d: %s", filepath.ToSlash(rel), pos.Line, key))
				}
			})
		}
	}
	var stale []string
	for k := range allowed {
		stale = append(stale, k)
	}
	if len(stale)+len(referenced) > 0 {
		sort.Strings(stale)
		return nil, fmt.Errorf("%s: stale entries: not declared %v, referenced %v", allowPath, stale, referenced)
	}
	sort.Strings(dead)
	return dead, nil
}

// stringer is the signature of a String or Error method.
var stringer = types.NewSignatureType(nil, nil, nil, nil,
	types.NewTuple(types.NewVar(token.NoPos, nil, "", types.Typ[types.String])), false)

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// loader type-checks the tree's packages from their parsed non-test
// files into one shared Info, importing everything else (the standard
// library) from export data.
type loader struct {
	fset  *token.FileSet
	files map[string][]*ast.File // import path -> non-test files
	pkgs  map[string]*types.Package
	std   types.Importer
	info  *types.Info
}

// Import type-checks the tree's package at p once, or imports p.
func (l *loader) Import(p string) (*types.Package, error) {
	if pkg, ok := l.pkgs[p]; ok {
		return pkg, nil
	}
	files, ok := l.files[p]
	if !ok {
		return l.std.Import(p)
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(p, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[p] = pkg
	return pkg, nil
}

// topDecls calls fn for each name a file declares at top level: its
// identifier and the receiver type's name for a method ("" otherwise).
func topDecls(f *ast.File, fn func(id *ast.Ident, recv string)) {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			recv := ""
			if d.Recv != nil {
				// "*T[K]" -> "T"
				recv, _, _ = strings.Cut(strings.TrimPrefix(types.ExprString(d.Recv.List[0].Type), "*"), "[")
			}
			fn(d.Name, recv)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					fn(s.Name, "")
				case *ast.ValueSpec:
					for _, id := range s.Names {
						fn(id, "")
					}
				}
			}
		}
	}
}

// readAllow reads the allowlist's keys; blank lines and lines starting
// with '#' are skipped, and every entry must give its reason.
func readAllow(p string) (map[string]bool, error) {
	raw, err := os.ReadFile(p)
	if err != nil {
		return nil, err
	}
	out := map[string]bool{}
	for n, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s gives no reason", p, n+1, key)
		}
		out[key] = true
	}
	return out, nil
}
