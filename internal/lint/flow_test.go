package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"maps"
	"reflect"
	"strconv"
	"testing"
)

// flowFixture puts a call p("<position>") in every statement position
// the walker enumerates. It is parsed, never type-checked.
const flowFixture = `package p

func f(ch chan int, v any) {
	if p("If.Init"); p("If.Cond") {
		p("If.Body")
	} else if p("ElseIf.Cond") {
		p("ElseIf.Body")
	} else {
		p("If.Else")
	}
	for p("For.Init"); p("For.Cond"); p("For.Post") {
		p("For.Body")
	}
	for range p("Range.X") {
		p("Range.Body")
	}
	switch p("Switch.Init"); p("Switch.Tag") {
	case p("Case.Expr"):
		p("Case.Body")
	default:
		p("Default.Body")
	}
	switch p("TypeSwitch.Init"); x := p("TypeSwitch.Assign").(type) {
	case int:
		p("TypeCase.Body", x)
	}
	select {
	case ch <- p("Comm.Send"):
		p("Send.Body")
	case y := <-p("Comm.Recv"):
		p("Recv.Body", y)
	}
L:
	for {
		p("Labeled.Body")
		break L
	}
	{
		p("Block.Nested")
	}
	defer p("Defer")
	go p("Go")
	if p("Exit.Cond") {
		p("Exit.Body")
		return
	}
	p("After.Exit")
	return
	p("Dead")
}
`

// labels lists the p("…") calls under n, in source order.
func labels(n ast.Node) []string {
	var out []string
	ast.Inspect(n, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "p" {
				label, _ := strconv.Unquote(call.Args[0].(*ast.BasicLit).Value)
				out = append(out, label)
			}
		}
		return true
	})
	return out
}

// seen is the toy flow state: the labels visited on the current path,
// plus "took:<cond>" for every if condition the path is governed by.
type seen map[string]bool

// walkFlowFixture runs the walker over flowFixture with a visit hook
// that records the visiting order and, per label, the state it was
// visited in.
func walkFlowFixture(t *testing.T) (order []string, at map[string]seen, exits bool) {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), "flow.go", flowFixture, 0)
	if err != nil {
		t.Fatal(err)
	}
	at = map[string]seen{}
	fl := flow[seen]{
		clone: maps.Clone[seen],
		visit: func(n ast.Node, s seen) {
			for _, label := range labels(n) {
				order = append(order, label)
				at[label] = maps.Clone(s)
				s[label] = true
			}
		},
		enter: func(of ast.Stmt, s seen) {
			if ifs, ok := of.(*ast.IfStmt); ok {
				s["took:"+labels(ifs.Cond)[0]] = true
			}
		},
	}
	_, exits = fl.walk(file.Decls[0].(*ast.FuncDecl).Body.List, seen{})
	return order, at, exits
}

// TestFlowVisitsEveryPosition pins coverage and order: every statement
// position is visited exactly once, in execution order, and nothing
// after an exiting statement is.
func TestFlowVisitsEveryPosition(t *testing.T) {
	order, _, exits := walkFlowFixture(t)
	want := []string{
		"If.Init", "If.Cond", "If.Body", "ElseIf.Cond", "ElseIf.Body", "If.Else",
		"For.Init", "For.Cond", "For.Body", "For.Post",
		"Range.X", "Range.Body",
		"Switch.Init", "Switch.Tag", "Case.Expr", "Case.Body", "Default.Body",
		"TypeSwitch.Init", "TypeSwitch.Assign", "TypeCase.Body",
		"Comm.Send", "Send.Body", "Comm.Recv", "Recv.Body",
		"Labeled.Body", "Block.Nested", "Defer", "Go",
		"Exit.Cond", "Exit.Body", "After.Exit",
	}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("visit order\n got %v\nwant %v", order, want)
	}
	if !exits {
		t.Errorf("a list ending in return must report that it exits")
	}
}

// TestFlowBranchStates pins how facts travel: a branch sees what
// dominates it and what entering it established, siblings never see
// each other, branch-local facts are dropped where several paths
// continue, and an if whose body exits extends what its condition
// established to the rest of the list.
func TestFlowBranchStates(t *testing.T) {
	_, at, _ := walkFlowFixture(t)
	for _, tc := range []struct {
		at, fact string
		want     bool
	}{
		{"If.Body", "If.Init", true},      // dominated by the init statement
		{"If.Body", "took:If.Cond", true}, // entering the branch
		{"If.Else", "took:If.Cond", true}, // the else is governed by it too
		{"If.Else", "took:ElseIf.Cond", true},
		{"ElseIf.Cond", "If.Body", false}, // sibling mutation is invisible
		{"If.Else", "ElseIf.Body", false},
		{"Default.Body", "Case.Body", false},
		{"Recv.Body", "Comm.Send", false},
		{"Recv.Body", "Comm.Recv", true}, // the comm statement runs on its clause's branch
		{"For.Body", "For.Init", true},
		{"For.Post", "For.Body", true},      // post runs after the body
		{"Range.X", "For.Init", false},      // loop-local facts end with the loop
		{"For.Init", "If.Init", true},       // straight-line facts persist
		{"For.Init", "took:If.Cond", false}, // both branches continue: facts dropped
		{"For.Init", "If.Body", false},
		{"Block.Nested", "Labeled.Body", false},
		{"Defer", "Block.Nested", true},        // a bare block is straight-line code
		{"After.Exit", "took:Exit.Cond", true}, // the body exits: the else path is the only one
		{"After.Exit", "Exit.Body", false},
	} {
		if got := at[tc.at][tc.fact]; got != tc.want {
			t.Errorf("at %s: fact %q = %v, want %v", tc.at, tc.fact, got, tc.want)
		}
	}
}
