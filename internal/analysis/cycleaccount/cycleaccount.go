// Package cycleaccount enforces the simulated-time contract: a function
// that receives a *sim.Proc is executing on a simulated processor, and
// every cost it incurs must be charged in simulated cycles (CPU.Compute,
// p.Wait, shell waits) — never in host time. The event kernel runs one
// proc at a time, each a coroutine that only the engine resumes, so a
// proc function that sleeps, reads the wall clock, or blocks on an OS
// primitive either stalls the whole simulation or smuggles host-machine
// timing into results that must be bit-identical across runs.
//
// Within any function whose receiver or parameters include *sim.Proc
// (or sim.Proc), the pass flags:
//
//   - time.Sleep and wall-clock reads (time.Now, Since, Until, After,
//     Tick, NewTimer, NewTicker, AfterFunc);
//   - blocking sync primitives: (*sync.WaitGroup).Wait,
//     (*sync.Mutex).Lock, (*sync.RWMutex).Lock/RLock, (*sync.Cond).Wait;
//   - channel operations (send, receive, select, range over a channel):
//     only the scheduler may park a goroutine;
//   - spawning processes via os/exec.
//
// Nested function literals are judged by their own signatures: a
// closure without a *sim.Proc parameter handed to the engine or a test
// harness is outside this contract. repro/internal/sim is held to it
// too: its procs switch as coroutines, so none of its proc functions
// needs a channel.
package cycleaccount

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the cycleaccount pass.
var Analyzer = &analysis.Analyzer{
	Name: "cycleaccount",
	Doc:  "functions taking *sim.Proc run on simulated time: no sleeping, wall-clock, OS blocking, or channel operations",
	Run:  run,
}

const simPath = "repro/internal/sim"

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil && takesProc(pass, n.Recv, n.Type) {
					checkBody(pass, n.Body)
				}
			case *ast.FuncLit:
				if takesProc(pass, nil, n.Type) {
					checkBody(pass, n.Body)
				}
			}
			return true
		})
	}
	return nil
}

// takesProc reports whether the function signature includes a
// (pointer-to-)sim.Proc receiver or parameter.
func takesProc(pass *analysis.Pass, recv *ast.FieldList, ft *ast.FuncType) bool {
	lists := []*ast.FieldList{recv, ft.Params}
	for _, fl := range lists {
		if fl == nil {
			continue
		}
		for _, field := range fl.List {
			if isProcType(pass.TypesInfo.TypeOf(field.Type)) {
				return true
			}
		}
	}
	return false
}

func isProcType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == simPath && named.Obj().Name() == "Proc"
}

// checkBody walks one proc function body, skipping nested literals
// (each is judged by its own signature at the FuncLit case above).
func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			checkCall(pass, n)
		case *ast.SendStmt:
			pass.ReportClassf(n.Pos(), "chan-op", "channel send in a *sim.Proc function — only the sim scheduler may park a goroutine; use signals/deadlines on the proc")
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				pass.ReportClassf(n.Pos(), "chan-op", "channel receive in a *sim.Proc function — only the sim scheduler may park a goroutine; use p.WaitSignal or shell waits")
			}
		case *ast.SelectStmt:
			pass.ReportClassf(n.Pos(), "chan-op", "select in a *sim.Proc function — only the sim scheduler may park a goroutine")
		case *ast.RangeStmt:
			if t := pass.TypesInfo.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					pass.ReportClassf(n.Pos(), "chan-op", "range over a channel in a *sim.Proc function — only the sim scheduler may park a goroutine")
				}
			}
		}
		return true
	})
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := pass.CalleeFunc(call)
	if fn == nil {
		return
	}
	if analysis.IsPkgFunc(fn, "time", "Sleep") {
		pass.ReportClassf(call.Pos(), "host-sleep", "time.Sleep in a *sim.Proc function — host sleep stalls the event kernel; charge simulated cycles with p.Compute")
		return
	}
	if analysis.IsPkgFunc(fn, "time", "Now", "Since", "Until", "After", "Tick", "NewTimer", "NewTicker", "AfterFunc") {
		pass.ReportClassf(call.Pos(), "wall-clock", "wall-clock time.%s in a *sim.Proc function — simulated time is p.Now(); host time breaks bit-identical replay", fn.Name())
		return
	}
	if analysis.IsPkgFunc(fn, "os/exec") {
		pass.ReportClassf(call.Pos(), "os-exec", "os/exec in a *sim.Proc function — spawning processes is unbounded host-time work")
		return
	}
	if pkg, tn := analysis.ReceiverNamed(fn); pkg == "sync" {
		blocking := (fn.Name() == "Wait" && (tn == "WaitGroup" || tn == "Cond")) ||
			(fn.Name() == "Lock" && (tn == "Mutex" || tn == "RWMutex")) ||
			(fn.Name() == "RLock" && tn == "RWMutex")
		if blocking {
			pass.ReportClassf(call.Pos(), "sync-block", "(*sync.%s).%s in a *sim.Proc function — OS blocking bypasses simulated time; use sim resources/signals", tn, fn.Name())
		}
	}
}
