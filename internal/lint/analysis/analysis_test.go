package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

func TestParseExempt(t *testing.T) {
	tests := []struct {
		text     string
		analyzer string
		reason   string
		ok       bool
	}{
		{"//lint:exempt locksafe snapshot mark runs store-then-shipper by design", "locksafe", "snapshot mark runs store-then-shipper by design", true},
		{"// lint:exempt goroleak watcher exits with ctx", "goroleak", "watcher exits with ctx", true},
		{"//lint:exempt detrand", "detrand", "", true}, // parses, but reasonless: callers must reject
		{"//lint:exempt", "", "", false},               // names no analyzer
		{"//lint:exempted locksafe different word", "", "", false},
		{"// plain comment", "", "", false},
		{"//lint:deterministic-exempt reason", "", "", false},
	}
	for _, tt := range tests {
		analyzer, reason, ok := ParseExempt(tt.text)
		if ok != tt.ok || analyzer != tt.analyzer || reason != tt.reason {
			t.Errorf("ParseExempt(%q) = (%q, %q, %v), want (%q, %q, %v)",
				tt.text, analyzer, reason, ok, tt.analyzer, tt.reason, tt.ok)
		}
	}
}

const genericExemptSrc = `package p

func f() {
	//lint:exempt locksafe the snapshot mark is lock-ordered by the store
	exempted()
	otherAnalyzer() //lint:exempt goroleak belongs to a different analyzer

	sameLine() //lint:exempt locksafe reason on the same line

	plain()

	//lint:exempt locksafe
	reasonless()
}

func exempted()      {}
func sameLine()      {}
func otherAnalyzer() {}
func plain()         {}
func reasonless()    {}
`

func TestExempted(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", genericExemptSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pass := &Pass{Fset: fset, Files: []*ast.File{f}, Analyzer: &Analyzer{Name: "locksafe"}}

	callPos := map[string]token.Pos{}
	ast.Inspect(f, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok {
				callPos[id.Name] = call.Pos()
			}
		}
		return true
	})

	tests := []struct {
		fn   string
		want bool
	}{
		{"exempted", true},       // names this analyzer, has a reason
		{"sameLine", true},       // directive trailing the same line
		{"otherAnalyzer", false}, // names a different analyzer
		{"plain", false},         // no directive
		{"reasonless", false},    // reason is mandatory
	}
	for _, tt := range tests {
		pos, ok := callPos[tt.fn]
		if !ok {
			t.Fatalf("fixture call %s not found", tt.fn)
		}
		if got := pass.Exempted(pos); got != tt.want {
			t.Errorf("Exempted(%s) = %v, want %v", tt.fn, got, tt.want)
		}
	}
}
