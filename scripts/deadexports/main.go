// Command deadexports fails (exit 1) on an exported name that no
// non-test Go file references. It checks the top-level funcs, methods,
// types, vars and consts of the root package, internal/ and cmd/
// (struct fields are skipped: encoding/json reads them by reflection)
// against the references of every non-test file in the tree, bench/,
// examples/ and scripts/ included. Like the go tool, it skips testdata
// and directories starting with "." or "_".
//
// The scan is selector-aware, so a name another package also exports
// cannot hide a dead one:
//
//   - a package-level name is used only through alias.Name, where alias
//     imports the declaring package, or through a bare identifier in
//     that same package;
//   - a method is used through any x.Name selector where x is not an
//     import alias, so strings.Contains keeps no Contains method alive
//     while a call through an interface does.
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
		fmt.Fprintf(os.Stderr, "deadexports: %d exported names have no non-test reference: delete each, move a test-only helper into its package's _test.go, or allowlist a kept reference with its reason\n", len(dead))
		os.Exit(1)
	}
}

// srcFile is one parsed non-test file and its package's import path.
type srcFile struct {
	pkg  string
	file *ast.File
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
	fset := token.NewFileSet()
	var files []srcFile
	pkgName := map[string]string{} // import path -> package name
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
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, filepath.Dir(p)) // p is under root: Rel cannot fail
		pkg := path.Join(mod, filepath.ToSlash(rel))
		pkgName[pkg] = f.Name.Name
		files = append(files, srcFile{pkg, f})
		return nil
	})
	if err != nil {
		return nil, err
	}

	usedPkg := map[string]bool{}    // "<import path>.<Name>"
	usedMethod := map[string]bool{} // method name
	for _, sf := range files {
		refsOf(sf, mod, pkgName, usedPkg, usedMethod)
	}
	var dead, referenced []string
	for _, sf := range files {
		if rel := strings.TrimPrefix(sf.pkg, mod); rel != "" && !strings.HasPrefix(rel, "/internal/") && !strings.HasPrefix(rel, "/cmd/") {
			continue
		}
		topDecls(sf.file, func(id *ast.Ident, recv string, _ ast.Node) {
			if !id.IsExported() {
				return
			}
			key, used := sf.pkg+"."+id.Name, usedPkg[sf.pkg+"."+id.Name]
			if recv != "" {
				key, used = sf.pkg+"."+recv+"."+id.Name, usedMethod[id.Name]
			}
			if allowed[key] {
				delete(allowed, key)
				if used {
					referenced = append(referenced, key)
				}
			} else if !used {
				pos := fset.Position(id.Pos())
				rel, _ := filepath.Rel(root, pos.Filename) // as above
				dead = append(dead, fmt.Sprintf("%s:%d: %s", filepath.ToSlash(rel), pos.Line, key))
			}
		})
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

// topDecls calls fn for each name a file declares at top level: its
// identifier, the receiver type's name for a method ("" otherwise), and
// the declaring node.
func topDecls(f *ast.File, fn func(id *ast.Ident, recv string, node ast.Node)) {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			recv := ""
			if d.Recv != nil {
				// "*T[K]" -> "T"
				recv, _, _ = strings.Cut(strings.TrimPrefix(types.ExprString(d.Recv.List[0].Type), "*"), "[")
			}
			fn(d.Name, recv, d)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					fn(s.Name, "", s)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						fn(id, "", s)
					}
				}
			}
		}
	}
}

// refsOf records the references one file makes: alias.Name selectors
// on an import of the module, bare identifiers that resolve to package
// scope, and x.Name selectors on anything but an import alias.
func refsOf(sf srcFile, mod string, pkgName map[string]string, usedPkg, usedMethod map[string]bool) {
	aliases := map[string]string{} // local name -> import path
	for _, imp := range sf.file.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		name := path.Base(p)
		if n, ok := pkgName[p]; ok {
			name = n
		}
		if imp.Name != nil {
			name = imp.Name.Name
		}
		aliases[name] = p
	}
	// The parser resolves an identifier to its declaring node within
	// the file and leaves package-scope names of other files, and import
	// aliases, unresolved (Obj nil). A bare identifier resolving to a
	// top-level node is a reference; the identifier naming it is not.
	top := map[any]bool{}
	naming := map[*ast.Ident]bool{}
	topDecls(sf.file, func(id *ast.Ident, _ string, node ast.Node) {
		top[node] = true
		naming[id] = true
	})
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if id, ok := n.X.(*ast.Ident); ok && id.Obj == nil && aliases[id.Name] != "" {
				if p := aliases[id.Name]; p == mod || strings.HasPrefix(p, mod+"/") {
					usedPkg[p+"."+n.Sel.Name] = true
				}
				return false
			}
			usedMethod[n.Sel.Name] = true
			ast.Inspect(n.X, visit)
			return false
		case *ast.Ident:
			if !naming[n] && (n.Obj == nil || top[n.Obj.Decl]) {
				usedPkg[sf.pkg+"."+n.Name] = true
			}
		}
		return true
	}
	ast.Inspect(sf.file, visit)
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
