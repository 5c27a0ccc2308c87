package interp

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"privacyscope/internal/minic"
)

// stepCase runs one function of a program once on a fresh machine; steps is
// the machine's step counter afterwards (global initialisers included).
type stepCase struct {
	name  string
	src   string
	fn    string
	args  func() []Value
	steps int
}

func ints(vs ...int64) func() []Value {
	return func() []Value {
		out := make([]Value, len(vs))
		for i, v := range vs {
			out[i] = IntValue(v)
		}
		return out
	}
}

func floats(vs ...float64) func() []Value {
	return func() []Value {
		out := make([]Value, len(vs))
		for i, v := range vs {
			out[i] = FloatValue(v)
		}
		return out
	}
}

// bufs passes one fresh buffer per cell list, all of the given kind.
func bufs(kind CellKind, cells ...[]Value) func() []Value {
	return func() []Value {
		out := make([]Value, len(cells))
		for i, c := range cells {
			b := NewBuffer(fmt.Sprintf("b%d", i), kind, len(c))
			_ = b.SetCells(c)
			out[i] = PtrValue(Pointer{Obj: b})
		}
		return out
	}
}

func cells(vs ...int64) []Value { return ints(vs...)() }

// chainSrc is the helper-chain shape of the path-explosion benchmark:
// helpers h0..h{depth-1}, each running a six-iteration loop and calling the
// level below twice, under an entry point that applies the chain to one
// secret and exports it.
func chainSrc(depth int) string {
	var b strings.Builder
	for i := 0; i < depth; i++ {
		fmt.Fprintf(&b, "int h%d(int x)\n{\n    int acc = x;\n    int i = 0;\n    while (i < 6) { acc = acc + %d; i = i + 1; }\n", i, 1+i%9)
		if i > 0 {
			fmt.Fprintf(&b, "    int a = h%d(acc);\n    int b = h%d(acc + %d);\n    return a + (b - b);\n", i-1, i-1, 1+(i*4)%9)
		} else {
			b.WriteString("    return acc;\n")
		}
		b.WriteString("}\n")
	}
	fmt.Fprintf(&b, "int chain(int *secrets, int *output)\n{\n    int acc = h%d(secrets[0]);\n    output[0] = acc;\n    return 0;\n}\n", depth-1)
	return b.String()
}

// stepGolden pins the step count of every machine_test.go program and of a
// depth-9 helper chain. The counts were recorded on an earlier,
// tree-walking evaluator; the budget contract — one step per statement,
// per expression and per loop iteration — makes a MaxSteps budget trip at
// the same point whatever the evaluator's internals.
var stepGolden = []stepCase{
	{"fib", srcArithmeticAndControlFlow, "fib", ints(10), 1766},
	{"sum_to", srcArithmeticAndControlFlow, "sum_to", ints(100), 811},
	{"count_down", srcArithmeticAndControlFlow, "count_down", ints(7), 72},
	{"break-continue", srcBreakContinue, "f", nil, 117},
	{"listing1-zero", srcListing1Concrete, "enclave_process_data", bufs(CellChar, cells(7, 0), cells(0, 0)), 21},
	{"listing1-five", srcListing1Concrete, "enclave_process_data", bufs(CellChar, cells(7, 5), cells(0, 0)), 21},
	{"pointers-arrays", srcPointersAndArrays, "f", nil, 77},
	{"addr-deref", srcAddressOfAndDeref, "f", nil, 14},
	{"structs", srcStructsAndMembers, "f", nil, 28},
	{"2d-arrays", src2DArrays, "f", nil, 120},
	{"mean", srcFloatsAndCasts, "mean", func() []Value {
		return append(bufs(CellFloat, floats(1, 2, 3, 6)())(), IntValue(4))
	}, 53},
	{"truncate", srcFloatsAndCasts, "truncate", floats(3.9), 3},
	{"char-narrowing", srcCharNarrowing, "f", nil, 4},
	{"int-wrap", srcIntWrap32, "f", nil, 9},
	{"ternary-incdec", srcTernaryIncDec, "f", ints(5), 16},
	{"globals", srcGlobals, "bump", nil, 6},
	{"divide-by-zero", srcDivideByZero, "f", ints(0), 4},
	{"out-of-bounds", srcOutOfBounds, "f", nil, 4},
	{"nil-deref", srcNilDeref, "f", func() []Value { return []Value{PtrValue(Pointer{})} }, 3},
	{"missing-return", srcMissingReturn, "f", ints(0), 2},
	{"math-f", srcBuiltinsMath, "f", floats(16), 18},
	{"math-g", srcBuiltinsMath, "g", ints(-9), 3},
	{"rand", srcBuiltinRandDeterministic, "f", nil, 5},
	{"printf", srcBuiltinPrintf, "f", nil, 9},
	{"memops", srcBuiltinMemOps, "f", bufs(CellInt, cells(1, 2, 3), cells(0, 0, 0)), 34},
	{"sgx-decrypt", srcSgxDecryptIntrinsicCopies, "f", bufs(CellChar, cells(10, 20), cells(0, 0)), 13},
	{"short-circuit", srcShortCircuitSideEffects, "f", nil, 15},
	{"sum", srcDifferentialSum, "sum", func() []Value {
		return append(bufs(CellInt, cells(3, -1, 4, 1, 5))(), IntValue(5))
	}, 61},
	{"float-cmp-lt", srcFloatComparisonsAndLogic, "f", floats(1.5, 2.5), 37},
	{"float-cmp-eq", srcFloatComparisonsAndLogic, "f", floats(2, 2), 37},
	{"float-div-zero", srcFloatDivideByZero, "f", floats(0), 4},
	{"ptr-eq", srcPointerEquality, "f", func() []Value {
		b := NewBuffer("b", CellInt, 2)
		return []Value{PtrValue(Pointer{Obj: b}), PtrValue(Pointer{Obj: b, Off: 1})}
	}, 15},
	{"unary-neg", srcUnaryOnFloats, "f", floats(2.5), 3},
	{"unary-not", srcUnaryOnFloats, "g", floats(0), 3},
	{"seed-zero", srcSeedZeroMapped, "f", nil, 2},
	{"shift", srcShiftOps, "f", ints(8, 2), 8},
	{"sizeof", srcSizeofExprOnValue, "f", nil, 5},
	{"void-return", srcVoidFunctionReturn, "f", nil, 28},
	{"strlit", srcStringLitIndexing, "f", nil, 10},
	{"do-while-3", srcDoWhileExecution, "f", ints(3), 35},
	{"do-while-0", srcDoWhileExecution, "f", ints(0), 15},
	{"do-while-break", srcDoWhileBreak, "f", nil, 32},
	{"switch-1", srcSwitchExecution, "f", ints(1), 11},
	{"switch-2", srcSwitchExecution, "f", ints(2), 12},
	{"switch-3", srcSwitchExecution, "f", ints(3), 13},
	{"switch-4", srcSwitchExecution, "f", ints(4), 12},
	{"switch-default", srcSwitchExecution, "f", ints(-1), 12},
	{"fallthrough-1", srcSwitchFallthroughAndNoDefault, "f", ints(1), 14},
	{"fallthrough-2", srcSwitchFallthroughAndNoDefault, "f", ints(2), 12},
	{"fallthrough-3", srcSwitchFallthroughAndNoDefault, "f", ints(3), 12},
	{"fallthrough-none", srcSwitchFallthroughAndNoDefault, "f", ints(9), 9},
	{"switch-return-continue", srcSwitchReturnAndContinue, "f", ints(5), 48},
	{"compound-assign", srcAllCompoundAssignOps, "f", ints(10), 32},
	{"chain-9", chainSrc(9), "chain", bufs(CellInt, cells(17), cells(0)), 54683},
}

// runSteps runs c on a fresh machine with the given budget (0: default).
func runSteps(t *testing.T, c stepCase, budget int) (Value, int, error) {
	t.Helper()
	m, err := NewMachine(minic.MustParse(c.src))
	if err != nil {
		t.Fatal(err)
	}
	m.MaxSteps = budget
	var args []Value
	if c.args != nil {
		args = c.args()
	}
	v, err := m.Call(c.fn, args)
	return v, m.steps, err
}

func TestStepGolden(t *testing.T) {
	for _, c := range stepGolden {
		t.Run(c.name, func(t *testing.T) {
			want, steps, wantErr := runSteps(t, c, 0)
			if steps != c.steps {
				t.Fatalf("steps = %d, want %d", steps, c.steps)
			}
			// The recorded count is exactly enough: the same budget
			// reproduces the unbudgeted outcome, one step less trips it.
			got, _, err := runSteps(t, c, c.steps)
			if !sameOutcome(got, err, want, wantErr) {
				t.Errorf("MaxSteps=%d: got %v, %v; want %v, %v", c.steps, got, err, want, wantErr)
			}
			if _, _, err := runSteps(t, c, c.steps-1); !errors.Is(err, ErrStepBudget) {
				t.Errorf("MaxSteps=%d: err = %v, want ErrStepBudget", c.steps-1, err)
			}
		})
	}
}

func sameOutcome(v Value, err error, wantV Value, wantErr error) bool {
	if (err == nil) != (wantErr == nil) {
		return false
	}
	if err != nil {
		return err.Error() == wantErr.Error()
	}
	return v.String() == wantV.String()
}
