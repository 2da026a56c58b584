package analysis_test

// The inlining guard: the branch-avoiding kernels are written against
// the mask primitives of internal/core, and their whole point is that
// each primitive compiles to a few ALU instructions in the caller's
// loop. A primitive that stops being inlined — its body grew past the
// inliner's budget, or a loop moved into a closure the inliner treats
// differently — turns into a CALL per arc, and every test keeps
// passing. This test asks the compiler itself: it builds the kernel
// packages with -gcflags=-m and names every core.Mask*, core.Select* or
// core.Bit* call site the compiler did not report inlining.

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// inlineGuarded are the kernel packages whose primitive calls must all
// be inlined, relative to the module root.
var inlineGuarded = []string{"internal/cc", "internal/bfs", "internal/sssp"}

// inlinedCall matches the compiler's report of one inlined call. Sites
// are matched by file, line and callee, and told apart on a line by
// their distinct report columns, so the check does not depend on which
// column of a call a toolchain reports.
var inlinedCall = regexp.MustCompile(`^(\S+\.go):(\d+):(\d+): inlining call to core\.(\w+)`)

func TestMaskPrimitivesInlined(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three packages with -gcflags=-m")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}

	// Every primitive call site in the guarded packages' non-test files,
	// counted per "dir/file.go:line: core.Name".
	want := map[string]int{}
	fset := token.NewFileSet()
	for _, dir := range inlineGuarded {
		files, err := filepath.Glob(filepath.Join(root, dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			core := coreImportName(f)
			if core == "" {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); !ok || x.Name != core || !guardedPrimitive(sel.Sel.Name) {
					return true
				}
				p := fset.Position(call.Pos())
				want[fmt.Sprintf("%s/%s:%d: core.%s", dir, filepath.Base(path), p.Line, sel.Sel.Name)]++
				return true
			})
		}
	}
	if len(want) == 0 {
		t.Fatal("found no core primitive call sites: the guard is looking in the wrong place")
	}

	args := []string{"build", "-gcflags=-m"}
	for _, dir := range inlineGuarded {
		args = append(args, "./"+dir)
	}
	cmd := exec.Command(goTool, args...)
	cmd.Dir = root
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out.String())
	}
	inlined := map[string]map[string]bool{} // site → report columns
	for _, line := range strings.Split(out.String(), "\n") {
		m := inlinedCall.FindStringSubmatch(strings.TrimPrefix(line, "./"))
		if m == nil {
			continue
		}
		site := fmt.Sprintf("%s:%s: core.%s", filepath.ToSlash(m[1]), m[2], m[4])
		if inlined[site] == nil {
			inlined[site] = map[string]bool{}
		}
		inlined[site][m[3]] = true
	}

	var missing []string
	for site, calls := range want {
		if got := len(inlined[site]); got < calls {
			missing = append(missing, fmt.Sprintf("%s: %d of %d calls not inlined", site, calls-got, calls))
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Error(m)
	}
}

// coreImportName returns the name f imports bagraph/internal/core
// under, or "" when it does not import it.
func coreImportName(f *ast.File) string {
	for _, imp := range f.Imports {
		if imp.Path.Value != strconv.Quote("bagraph/internal/core") {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		return "core"
	}
	return ""
}

// guardedPrimitive reports whether a core function is one of the mask
// primitives the guard covers.
func guardedPrimitive(name string) bool {
	return strings.HasPrefix(name, "Mask") || strings.HasPrefix(name, "Select") || strings.HasPrefix(name, "Bit")
}
