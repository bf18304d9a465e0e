package rodainallow

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"

	"repro/internal/analysis"
)

const src = `package p

func f() {
	//rodain:allow wallclock,durability (both invariants are off here)
	stmt()
	stmt() //rodain:allow lockorder trailing form
	stmt()
	//rodain:allowother not a directive
	stmt()
}

func stmt() {}
`

func TestDirectives(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	ix := New(&analysis.Pass{Fset: fset, Files: []*ast.File{f}})

	at := func(line int) token.Pos {
		return fset.File(f.Pos()).LineStart(line)
	}
	for _, tc := range []struct {
		name string
		line int
		want bool
	}{
		{"wallclock", 4, true},  // the directive's own line
		{"wallclock", 5, true},  // the next line
		{"durability", 5, true}, // comma-separated second pass
		{"lockorder", 5, false}, // not named by the directive
		{"wallclock", 6, false}, // out of range
		{"lockorder", 6, true},  // trailing form covers its own line
		{"lockorder", 7, true},  // ... and the next
		{"wallclock", 9, false}, // //rodain:allowother is not a directive
	} {
		if got := ix.Allowed(tc.name, at(tc.line)); got != tc.want {
			t.Errorf("Allowed(%q, line %d) = %v, want %v", tc.name, tc.line, got, tc.want)
		}
	}
}
