// Package directive parses the //ba:* comment grammar through which the
// kernels declare their machine-checked contracts.
//
// Region directives mark a contract region — the comment's own line must
// sit immediately above the construct it governs, exactly like a //go:
// directive:
//
//	//ba:branch-free    on a func declaration or a for/range statement:
//	                    the region must stay free of data-dependent
//	                    branches AND of atomics (a branch-avoiding hot
//	                    loop; checked by branchfree and atomicfree).
//	//ba:atomic-free    on a func declaration or any statement (usually
//	                    the pool dispatch whose closure is the worker
//	                    loop): the region must stay free of atomics,
//	                    mutexes, and channel operations, but may branch
//	                    (checked by atomicfree).
//
// Escape directives sanction one specific violation inside a region, so
// every exception is visible in the diff and carries its justification:
//
//	//ba:allow-atomic <reason>   the statement below may use atomics
//	                             (the steal cursor in internal/par).
//	//ba:allow-branch <reason>   the statement below may branch inside a
//	                             branch-free region (the bottom-up
//	                             early-exit probe, taken once per vertex
//	                             and predicted until then).
//	//ba:allow-mask <reason>     the call below may feed a mask primitive
//	                             an operand the analyzer cannot bound
//	                             (checked by maskdomain).
//
// The <reason> is mandatory: an escape with no justification is itself a
// diagnostic (reported by branchfree, which every balint run includes).
package directive

import (
	"go/ast"
	"go/token"
	"strings"

	"bagraph/internal/analysis"
)

// Region directive names.
const (
	BranchFree = "branch-free"
	AtomicFree = "atomic-free"
)

// Escape directive names.
const (
	AllowAtomic = "allow-atomic"
	AllowBranch = "allow-branch"
	AllowMask   = "allow-mask"
)

// prefix is the comment marker of the grammar.
const prefix = "//ba:"

// Region is one marked contract region: the subtree of Node.
type Region struct {
	// Name is BranchFree or AtomicFree.
	Name string
	// Node is the governed construct (a *ast.FuncDecl or an ast.Stmt);
	// the region is its whole subtree.
	Node ast.Node
	// Pos is the directive comment's position.
	Pos token.Pos
}

// Escape is one sanctioned exception: the subtree of Node.
type Escape struct {
	// Name is one of the Allow* constants.
	Name string
	// Reason is the mandatory justification text.
	Reason string
	// Node is the governed statement; the escape covers its subtree.
	Node ast.Node
	// Pos is the directive comment's position.
	Pos token.Pos
}

// Bad is a malformed directive: unknown name, missing escape reason, or
// a directive with no governable construct on the next line.
type Bad struct {
	Pos     token.Pos
	Message string
}

// Info holds one file's parsed directives.
type Info struct {
	Regions []Region
	Escapes []Escape
	Errors  []Bad
}

// ParseFile extracts the //ba:* directives of one file. Attachment is
// positional: a directive governs the outermost declaration or statement
// that begins on the line immediately after the comment line (so a
// directive written as the last line of a doc comment governs the
// declaration the doc comment documents).
func ParseFile(fset *token.FileSet, file *ast.File) Info {
	var info Info

	// Outermost node starting on each line: candidates are declarations
	// and statements; when several start on one line (a statement and
	// its own sub-statements), the first one visited by Inspect is the
	// outermost.
	nodeAt := make(map[int]ast.Node)
	ast.Inspect(file, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncDecl, *ast.GenDecl:
		default:
			if _, ok := n.(ast.Stmt); !ok {
				return true
			}
		}
		line := fset.Position(n.Pos()).Line
		if _, taken := nodeAt[line]; !taken {
			nodeAt[line] = n
		}
		return true
	})

	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, prefix) {
				continue
			}
			rest := strings.TrimPrefix(c.Text, prefix)
			name, reason, _ := strings.Cut(rest, " ")
			reason = strings.TrimSpace(reason)
			line := fset.Position(c.Pos()).Line
			node := nodeAt[line+1]
			switch name {
			case BranchFree, AtomicFree:
				if node == nil {
					info.Errors = append(info.Errors, Bad{c.Pos(),
						"//ba:" + name + " governs nothing: it must sit immediately above a func declaration or statement"})
					continue
				}
				if _, ok := node.(*ast.GenDecl); ok {
					info.Errors = append(info.Errors, Bad{c.Pos(),
						"//ba:" + name + " cannot mark a non-func declaration"})
					continue
				}
				info.Regions = append(info.Regions, Region{Name: name, Node: node, Pos: c.Pos()})
			case AllowAtomic, AllowBranch, AllowMask:
				if reason == "" {
					info.Errors = append(info.Errors, Bad{c.Pos(),
						"//ba:" + name + " needs a reason: every escape carries its justification"})
					continue
				}
				if node == nil {
					info.Errors = append(info.Errors, Bad{c.Pos(),
						"//ba:" + name + " governs nothing: it must sit immediately above the statement it sanctions"})
					continue
				}
				info.Escapes = append(info.Escapes, Escape{Name: name, Reason: reason, Node: node, Pos: c.Pos()})
			default:
				info.Errors = append(info.Errors, Bad{c.Pos(),
					"unknown directive //ba:" + name + " (want branch-free, atomic-free, allow-atomic, allow-branch, or allow-mask)"})
			}
		}
	}
	return info
}

// Parse extracts the directives of every file in the pass.
func Parse(pass *analysis.Pass) Info {
	var info Info
	for _, f := range pass.Files {
		fi := ParseFile(pass.Fset, f)
		info.Regions = append(info.Regions, fi.Regions...)
		info.Escapes = append(info.Escapes, fi.Escapes...)
		info.Errors = append(info.Errors, fi.Errors...)
	}
	return info
}

// Escaped reports whether position pos falls inside an escape of the
// given name.
func (in Info) Escaped(name string, pos token.Pos) bool {
	for _, e := range in.Escapes {
		if e.Name == name && e.Node.Pos() <= pos && pos < e.Node.End() {
			return true
		}
	}
	return false
}

// RegionBody returns the node whose subtree a region's contract covers:
// the function body for a marked declaration, the node itself otherwise.
// A marked declaration with no body (an assembly stub) covers nothing.
func (r Region) RegionBody() ast.Node {
	if fd, ok := r.Node.(*ast.FuncDecl); ok {
		if fd.Body == nil {
			return nil
		}
		return fd.Body
	}
	return r.Node
}
