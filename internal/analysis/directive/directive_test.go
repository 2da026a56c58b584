package directive

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func parse(t *testing.T, src string) (Info, *token.FileSet) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return ParseFile(fset, f), fset
}

func TestAttachment(t *testing.T) {
	info, fset := parse(t, `package x

// doc comment prose.
//
//ba:branch-free
func kernel(xs []int) int {
	s := 0
	//ba:atomic-free
	for _, x := range xs {
		s += x
	}
	//ba:allow-branch the early exit, taken once
	if s == 0 {
		return 0
	}
	return s
}
`)
	if len(info.Errors) != 0 {
		t.Fatalf("unexpected errors: %+v", info.Errors)
	}
	if len(info.Regions) != 2 {
		t.Fatalf("got %d regions, want 2", len(info.Regions))
	}
	if info.Regions[0].Name != BranchFree {
		t.Errorf("region 0 name = %q", info.Regions[0].Name)
	}
	if got := fset.Position(info.Regions[0].Node.Pos()).Line; got != 6 {
		t.Errorf("func region attaches to line %d, want 6", got)
	}
	if info.Regions[1].Name != AtomicFree {
		t.Errorf("region 1 name = %q", info.Regions[1].Name)
	}
	if got := fset.Position(info.Regions[1].Node.Pos()).Line; got != 9 {
		t.Errorf("loop region attaches to line %d, want 9", got)
	}
	if len(info.Escapes) != 1 {
		t.Fatalf("got %d escapes, want 1", len(info.Escapes))
	}
	e := info.Escapes[0]
	if e.Name != AllowBranch || e.Reason != "the early exit, taken once" {
		t.Errorf("escape = %q reason %q", e.Name, e.Reason)
	}
	// The escape covers the if statement's subtree.
	ifPos := e.Node.Pos()
	if !info.Escaped(AllowBranch, ifPos) {
		t.Error("if statement not covered by its own escape")
	}
	if info.Escaped(AllowBranch, info.Regions[0].Node.Pos()) {
		t.Error("escape leaked outside its statement")
	}
}

func TestMalformed(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{
			src:  "package x\n\n//ba:frobnicate\nfunc f() {}\n",
			want: "unknown directive //ba:frobnicate",
		},
		{
			src:  "package x\n\n//ba:allow-atomic\nvar v = func() { v() }\n",
			want: "//ba:allow-atomic needs a reason",
		},
		{
			src:  "package x\n\n//ba:branch-free\nvar v int\n",
			want: "cannot mark a non-func declaration",
		},
		{
			src:  "package x\n\n//ba:branch-free\n\nfunc f() {}\n",
			want: "governs nothing",
		},
		{
			src:  "package x\n\nfunc f() {\n\t_ = 1\n\t//ba:allow-branch a reason\n}\n",
			want: "governs nothing",
		},
		{
			// Context polls have no escape: inner barriers go through
			// par.Exec.Pass.
			src:  "package x\n\nfunc f() {\n\t//ba:allow-ctx a reason\n\t_ = 1\n}\n",
			want: "unknown directive //ba:allow-ctx",
		},
	}
	for _, c := range cases {
		info, _ := parse(t, c.src)
		if len(info.Errors) != 1 {
			t.Errorf("src %q: got %d errors (%+v), want 1", c.src, len(info.Errors), info.Errors)
			continue
		}
		if !strings.Contains(info.Errors[0].Message, c.want) {
			t.Errorf("src %q: error %q does not contain %q", c.src, info.Errors[0].Message, c.want)
		}
		if len(info.Regions)+len(info.Escapes) != 0 {
			t.Errorf("src %q: malformed directive still produced regions/escapes", c.src)
		}
	}
}
