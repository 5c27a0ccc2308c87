package interp

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"privacyscope/internal/minic"
)

func run(t *testing.T, src, fn string, args ...Value) Value {
	t.Helper()
	m, err := NewMachine(minic.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	v, err := m.Call(fn, args)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

const srcArithmeticAndControlFlow = `
int fib(int n) {
    if (n < 2) return n;
    return fib(n - 1) + fib(n - 2);
}
int sum_to(int n) {
    int total = 0;
    for (int i = 1; i <= n; i++) total += i;
    return total;
}
int count_down(int n) {
    int steps = 0;
    while (n > 0) { n--; steps++; }
    return steps;
}
`

func TestArithmeticAndControlFlow(t *testing.T) {
	if got := run(t, srcArithmeticAndControlFlow, "fib", IntValue(10)); got.Int() != 55 {
		t.Errorf("fib(10) = %v", got)
	}
	if got := run(t, srcArithmeticAndControlFlow, "sum_to", IntValue(100)); got.Int() != 5050 {
		t.Errorf("sum_to(100) = %v", got)
	}
	if got := run(t, srcArithmeticAndControlFlow, "count_down", IntValue(7)); got.Int() != 7 {
		t.Errorf("count_down(7) = %v", got)
	}
}

const srcBreakContinue = `
int f(void) {
    int total = 0;
    for (int i = 0; i < 10; i++) {
        if (i == 3) continue;
        if (i == 6) break;
        total += i;
    }
    return total;
}
`

func TestBreakContinue(t *testing.T) {
	// 0+1+2+4+5 = 12.
	if got := run(t, srcBreakContinue, "f"); got.Int() != 12 {
		t.Errorf("f() = %v, want 12", got)
	}
}

const srcListing1Concrete = `
int enclave_process_data(char *secrets, char *output)
{
    int temporary = secrets[0] + 100;
    output[0] = temporary + 1;
    if (secrets[1] == 0)
        return 0;
    else
        return 1;
}
`

func TestListing1Concrete(t *testing.T) {
	f := minic.MustParse(srcListing1Concrete)
	m, err := NewMachine(f)
	if err != nil {
		t.Fatal(err)
	}
	secrets := NewBuffer("secrets", CellChar, 2)
	output := NewBuffer("output", CellChar, 2)
	_ = secrets.SetCells([]Value{CharValue(7), CharValue(0)})

	ret, err := m.Call("enclave_process_data",
		[]Value{PtrValue(Pointer{Obj: secrets}), PtrValue(Pointer{Obj: output})})
	if err != nil {
		t.Fatal(err)
	}
	if ret.Int() != 0 {
		t.Errorf("return = %v, want 0 (secrets[1]==0)", ret)
	}
	out, _ := output.Load(0)
	// output[0] = secrets[0] + 101 = 108, as a char.
	if out.Int() != 108 {
		t.Errorf("output[0] = %v, want 108", out)
	}

	// Flip secrets[1] → return 1 (the implicit leak observable).
	_ = secrets.SetCells([]Value{CharValue(7), CharValue(5)})
	ret, err = m.Call("enclave_process_data",
		[]Value{PtrValue(Pointer{Obj: secrets}), PtrValue(Pointer{Obj: output})})
	if err != nil {
		t.Fatal(err)
	}
	if ret.Int() != 1 {
		t.Errorf("return = %v, want 1", ret)
	}
}

const srcPointersAndArrays = `
int f(void) {
    int a[5];
    int *p = a;
    for (int i = 0; i < 5; i++) a[i] = i * i;
    p = p + 2;
    return *p + p[1];
}
`

func TestPointersAndArrays(t *testing.T) {
	// a[2] + a[3] = 4 + 9 = 13.
	if got := run(t, srcPointersAndArrays, "f"); got.Int() != 13 {
		t.Errorf("f() = %v, want 13", got)
	}
}

const srcAddressOfAndDeref = `
void bump(int *x) { *x = *x + 1; }
int f(void) {
    int v = 41;
    bump(&v);
    return v;
}
`

func TestAddressOfAndDeref(t *testing.T) {
	if got := run(t, srcAddressOfAndDeref, "f"); got.Int() != 42 {
		t.Errorf("f() = %v, want 42", got)
	}
}

const srcStructsAndMembers = `
struct Point { int x; int y; };
struct Rect { struct Point a; struct Point b; };
int area(struct Rect *r) {
    return (r->b.x - r->a.x) * (r->b.y - r->a.y);
}
int f(void) {
    struct Rect r;
    r.a.x = 1; r.a.y = 2;
    r.b.x = 4; r.b.y = 6;
    return area(&r);
}
`

func TestStructsAndMembers(t *testing.T) {
	if got := run(t, srcStructsAndMembers, "f"); got.Int() != 12 {
		t.Errorf("f() = %v, want 12", got)
	}
}

const src2DArrays = `
float f(void) {
    float m[2][3];
    for (int i = 0; i < 2; i++)
        for (int j = 0; j < 3; j++)
            m[i][j] = i * 10 + j;
    return m[1][2];
}
`

func Test2DArrays(t *testing.T) {
	if got := run(t, src2DArrays, "f"); got.Float() != 12 {
		t.Errorf("f() = %v, want 12", got)
	}
}

const srcFloatsAndCasts = `
float mean(float *xs, int n) {
    float total = 0.0;
    for (int i = 0; i < n; i++) total += xs[i];
    return total / n;
}
int truncate(float x) { return (int)x; }
`

func TestFloatsAndCasts(t *testing.T) {
	f := minic.MustParse(srcFloatsAndCasts)
	m, err := NewMachine(f)
	if err != nil {
		t.Fatal(err)
	}
	buf := NewBuffer("xs", CellFloat, 4)
	_ = buf.SetCells([]Value{FloatValue(1), FloatValue(2), FloatValue(3), FloatValue(6)})
	got, err := m.Call("mean", []Value{PtrValue(Pointer{Obj: buf}), IntValue(4)})
	if err != nil {
		t.Fatal(err)
	}
	if got.Float() != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
	tr, err := m.Call("truncate", []Value{FloatValue(3.9)})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Int() != 3 {
		t.Errorf("truncate(3.9) = %v", tr)
	}
}

const srcCharNarrowing = `
int f(void) {
    char c = 300;
    return c;
}
`

func TestCharNarrowing(t *testing.T) {
	// 300 wraps to 44 in a signed char.
	if got := run(t, srcCharNarrowing, "f"); got.Int() != 44 {
		t.Errorf("f() = %v, want 44", got)
	}
}

const srcIntWrap32 = `
int f(void) {
    int x = 2147483647;
    x = x + 1;
    return x;
}
`

func TestIntWrap32(t *testing.T) {
	if got := run(t, srcIntWrap32, "f"); got.Int() != -2147483648 {
		t.Errorf("f() = %v, want int32 wraparound", got)
	}
}

// Every intermediate int result wraps at 32 bits, as sym's constant
// folding does, not only the value a store or return narrows: x + 1 < x
// holds at INT_MAX, and a shift count is masked to 31.
func TestIntermediateWrap32(t *testing.T) {
	src := `
int overflows(int x) { if (x + 1 < x) return 1; return 0; }
int neg(int x) { return -x < 0; }
int mul(int x) { return x * 2 > x; }
int quot(int x, int y) { return x / y; }
int shl(int x, int n) { return x << n; }
`
	cases := []struct {
		fn   string
		args []int64
		want int64
	}{
		{"overflows", []int64{2147483647}, 1},
		{"overflows", []int64{5}, 0},
		{"neg", []int64{-2147483648}, 1},
		{"mul", []int64{1 << 30}, 0},
		{"quot", []int64{-2147483648, -1}, -2147483648},
		{"shl", []int64{1, 33}, 2},
		{"shl", []int64{1, 31}, -2147483648},
	}
	for _, c := range cases {
		args := make([]Value, len(c.args))
		for i, a := range c.args {
			args[i] = IntValue(a)
		}
		if got := run(t, src, c.fn, args...); got.Int() != c.want {
			t.Errorf("%s%v = %v, want %d", c.fn, c.args, got, c.want)
		}
	}
}

// Pointer ++, --, += and -= step by the element size, as p + n does.
func TestPointerIncDecAndCompoundAssign(t *testing.T) {
	src := `
struct P { int x; int y; };
int walk(void) {
    int a[6];
    for (int i = 0; i < 6; i++) a[i] = i * 10;
    int *p = a;
    p++;
    int r = *p;
    p += 3;
    r = r + *p;
    p -= 2;
    r = r + *p;
    --p;
    return r + *p++ + *p;
}
int fields(void) {
    struct P ps[3];
    ps[2].y = 7;
    struct P *q = ps;
    q += 2;
    return q->y;
}
`
	// a[1] + a[4] + a[2] + a[1] + a[2] = 10 + 40 + 20 + 10 + 20.
	if got := run(t, src, "walk"); got.Int() != 100 {
		t.Errorf("walk() = %v, want 100", got)
	}
	if got := run(t, src, "fields"); got.Int() != 7 {
		t.Errorf("fields() = %v, want 7", got)
	}
}

const srcTernaryIncDec = `
int f(int x) {
    int a = x > 0 ? 1 : -1;
    int b = x++;
    int c = ++x;
    return a + b + c;
}
`

func TestTernaryIncDec(t *testing.T) {
	// x=5: a=1, b=5 (x→6), c=7 (x→7) ⇒ 13.
	if got := run(t, srcTernaryIncDec, "f", IntValue(5)); got.Int() != 13 {
		t.Errorf("f(5) = %v, want 13", got)
	}
}

const srcGlobals = `
int counter = 10;
int bump(void) { counter += 5; return counter; }
`

func TestGlobals(t *testing.T) {
	f := minic.MustParse(srcGlobals)
	m, err := NewMachine(f)
	if err != nil {
		t.Fatal(err)
	}
	v1, _ := m.Call("bump", nil)
	v2, _ := m.Call("bump", nil)
	if v1.Int() != 15 || v2.Int() != 20 {
		t.Errorf("bump twice = %v, %v", v1, v2)
	}
}

// One-line programs, shared with the step golden (steps_test.go).
const (
	srcDivideByZero             = "int f(int x) { return 1 / x; }"
	srcOutOfBounds              = "int f(void) { int a[2]; return a[5]; }"
	srcNilDeref                 = "int f(int *p) { return *p; }"
	srcMissingReturn            = "int f(int x) { if (x) return 1; }"
	srcFloatDivideByZero        = "float f(float x) { return 1.0 / x; }"
	srcBuiltinRandDeterministic = "int f(void) { srand(42); return rand(); }"
	srcSeedZeroMapped           = "int f(void) { return rand(); }"
	srcShiftOps                 = "int f(int a, int b) { return (a << b) + (a >> 1); }"
	srcSizeofExprOnValue        = "int f(void) { double d = 1.0; return sizeof d; }"
)

func TestErrors(t *testing.T) {
	t.Run("divide-by-zero", func(t *testing.T) {
		m, _ := NewMachine(minic.MustParse(srcDivideByZero))
		if _, err := m.Call("f", []Value{IntValue(0)}); !errors.Is(err, ErrDivideByZero) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("out-of-bounds", func(t *testing.T) {
		m, _ := NewMachine(minic.MustParse(srcOutOfBounds))
		if _, err := m.Call("f", nil); !errors.Is(err, ErrOutOfBounds) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("nil-deref", func(t *testing.T) {
		m, _ := NewMachine(minic.MustParse(srcNilDeref))
		if _, err := m.Call("f", []Value{PtrValue(Pointer{})}); !errors.Is(err, ErrNilDeref) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("infinite-loop", func(t *testing.T) {
		m, _ := NewMachine(minic.MustParse("int f(void) { while (1) {} return 0; }"))
		m.MaxSteps = 10_000
		if _, err := m.Call("f", nil); !errors.Is(err, ErrStepBudget) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("no-such-function", func(t *testing.T) {
		m, _ := NewMachine(minic.MustParse("int f(void) { return 0; }"))
		if _, err := m.Call("g", nil); !errors.Is(err, ErrNoSuchFunc) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("missing-return", func(t *testing.T) {
		m, _ := NewMachine(minic.MustParse(srcMissingReturn))
		if _, err := m.Call("f", []Value{IntValue(0)}); !errors.Is(err, ErrMissingReturn) {
			t.Errorf("err = %v", err)
		}
	})
}

const srcBuiltinsMath = `
float f(float x) { return sqrt(x) + fabs(0.0 - 1.5) + pow(2.0, 3.0) + floor(1.9) + ceil(0.1); }
int g(int x) { return abs(x); }
`

func TestBuiltinsMath(t *testing.T) {
	got := run(t, srcBuiltinsMath, "f", FloatValue(16))
	// 4 + 1.5 + 8 + 1 + 1 = 15.5
	if got.Float() != 15.5 {
		t.Errorf("f(16) = %v, want 15.5", got)
	}
	if got := run(t, srcBuiltinsMath, "g", IntValue(-9)); got.Int() != 9 {
		t.Errorf("abs(-9) = %v", got)
	}
}

func TestBuiltinRandDeterministic(t *testing.T) {
	a := run(t, srcBuiltinRandDeterministic, "f")
	b := run(t, srcBuiltinRandDeterministic, "f")
	if a.Int() != b.Int() {
		t.Error("seeded rand must be deterministic")
	}
	if a.Int() < 0 {
		t.Error("rand must be non-negative")
	}
}

const srcBuiltinPrintf = `
int f(void) {
    printf("x=%d y=%f s=%s c=%c pct=%%", 42, 1.5, "hello", 65);
    return 0;
}
`

func TestBuiltinPrintf(t *testing.T) {
	m, _ := NewMachine(minic.MustParse(srcBuiltinPrintf))
	if _, err := m.Call("f", nil); err != nil {
		t.Fatal(err)
	}
	if len(m.Printed) != 1 {
		t.Fatalf("Printed = %v", m.Printed)
	}
	want := "x=42 y=1.5 s=hello c=A pct=%"
	if m.Printed[0] != want {
		t.Errorf("printf = %q, want %q", m.Printed[0], want)
	}
}

const srcBuiltinMemOps = `
int f(int *src, int *dst) {
    memcpy(dst, src, 3);
    memset(src, 9, 2);
    return dst[0] + dst[1] + dst[2] + src[0] + src[1] + src[2];
}
`

func TestBuiltinMemOps(t *testing.T) {
	f := minic.MustParse(srcBuiltinMemOps)
	m, err := NewMachine(f)
	if err != nil {
		t.Fatal(err)
	}
	srcBuf := NewBuffer("srcBuiltinMemOps", CellInt, 3)
	dstBuf := NewBuffer("dst", CellInt, 3)
	_ = srcBuf.SetCells([]Value{IntValue(1), IntValue(2), IntValue(3)})
	got, err := m.Call("f", []Value{PtrValue(Pointer{Obj: srcBuf}), PtrValue(Pointer{Obj: dstBuf})})
	if err != nil {
		t.Fatal(err)
	}
	// dst = 1+2+3 = 6; srcBuiltinMemOps after memset = 9+9+3 = 21.
	if got.Int() != 27 {
		t.Errorf("f = %v, want 27", got)
	}
}

const srcSgxDecryptIntrinsicCopies = `
int f(char *ct, char *pt) {
    sgx_rijndael128GCM_decrypt(pt, ct, 2);
    return pt[0] + pt[1];
}
`

func TestSgxDecryptIntrinsicCopies(t *testing.T) {
	m, _ := NewMachine(minic.MustParse(srcSgxDecryptIntrinsicCopies))
	ct := NewBuffer("ct", CellChar, 2)
	pt := NewBuffer("pt", CellChar, 2)
	_ = ct.SetCells([]Value{CharValue(10), CharValue(20)})
	got, err := m.Call("f", []Value{PtrValue(Pointer{Obj: ct}), PtrValue(Pointer{Obj: pt})})
	if err != nil {
		t.Fatal(err)
	}
	if got.Int() != 30 {
		t.Errorf("f = %v, want 30", got)
	}
}

const srcShortCircuitSideEffects = `
int calls = 0;
int bump(void) { calls = calls + 1; return 1; }
int f(void) {
    int a = 0 && bump();
    int b = 1 || bump();
    return calls * 10 + a + b;
}
`

func TestShortCircuitSideEffects(t *testing.T) {
	// bump never runs: calls=0, a=0, b=1 → 1.
	if got := run(t, srcShortCircuitSideEffects, "f"); got.Int() != 1 {
		t.Errorf("f = %v, want 1", got)
	}
}

func TestStringFormatting(t *testing.T) {
	if got := IntValue(3).String(); got != "3" {
		t.Errorf("IntValue String = %q", got)
	}
	if got := FloatValue(2.5).String(); got != "2.5" {
		t.Errorf("FloatValue String = %q", got)
	}
	if got := PtrValue(Pointer{}).String(); got != "NULL" {
		t.Errorf("nil ptr String = %q", got)
	}
	o := NewBuffer("buf", CellInt, 1)
	if got := PtrValue(Pointer{Obj: o}).String(); !strings.Contains(got, "buf") {
		t.Errorf("ptr String = %q", got)
	}
}

// Property: sum over an int buffer computed by MiniC equals the Go sum.
const srcDifferentialSum = `
int sum(int *xs, int n) {
    int total = 0;
    for (int i = 0; i < n; i++) total += xs[i];
    return total;
}
`

func TestDifferentialSum(t *testing.T) {
	f := minic.MustParse(srcDifferentialSum)
	prop := func(xs []int16) bool {
		if len(xs) > 32 {
			xs = xs[:32]
		}
		m, err := NewMachine(f)
		if err != nil {
			return false
		}
		buf := NewBuffer("xs", CellInt, len(xs)+1)
		var want int64
		for i, x := range xs {
			_ = buf.Store(i, IntValue(int64(x)))
			want += int64(x)
		}
		got, err := m.Call("sum", []Value{PtrValue(Pointer{Obj: buf}), IntValue(int64(len(xs)))})
		if err != nil {
			return false
		}
		return got.Int() == want
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

const srcFloatComparisonsAndLogic = `
int f(float a, float b) {
    int r = 0;
    if (a == b) r += 1;
    if (a != b) r += 2;
    if (a <= b) r += 4;
    if (a >= b) r += 8;
    if (a > b) r += 16;
    if (a < b) r += 32;
    return r;
}
`

func TestFloatComparisonsAndLogic(t *testing.T) {
	m, _ := NewMachine(minic.MustParse(srcFloatComparisonsAndLogic))
	got, err := m.Call("f", []Value{FloatValue(1.5), FloatValue(2.5)})
	if err != nil {
		t.Fatal(err)
	}
	// a<b: ne(2) + le(4) + lt(32) = 38.
	if got.Int() != 38 {
		t.Errorf("f(1.5, 2.5) = %v, want 38", got)
	}
	got, _ = m.Call("f", []Value{FloatValue(2), FloatValue(2)})
	// eq(1) + le(4) + ge(8) = 13.
	if got.Int() != 13 {
		t.Errorf("f(2, 2) = %v, want 13", got)
	}
}

func TestFloatDivideByZero(t *testing.T) {
	m, _ := NewMachine(minic.MustParse(srcFloatDivideByZero))
	if _, err := m.Call("f", []Value{FloatValue(0)}); !errors.Is(err, ErrDivideByZero) {
		t.Errorf("err = %v", err)
	}
}

const srcPointerEquality = `
int f(int *p, int *q) {
    int r = 0;
    if (p == q) r += 1;
    if (p != q) r += 2;
    return r;
}
`

func TestPointerEquality(t *testing.T) {
	m, _ := NewMachine(minic.MustParse(srcPointerEquality))
	buf := NewBuffer("b", CellInt, 2)
	same := PtrValue(Pointer{Obj: buf})
	other := PtrValue(Pointer{Obj: buf, Off: 1})
	got, err := m.Call("f", []Value{same, same})
	if err != nil || got.Int() != 1 {
		t.Errorf("same pointers: %v, %v", got, err)
	}
	got, err = m.Call("f", []Value{same, other})
	if err != nil || got.Int() != 2 {
		t.Errorf("diff pointers: %v, %v", got, err)
	}
}

const srcUnaryOnFloats = `
float f(float x) { return -x; }
int g(float x) { return !x; }
`

func TestUnaryOnFloats(t *testing.T) {
	m, _ := NewMachine(minic.MustParse(srcUnaryOnFloats))
	v, _ := m.Call("f", []Value{FloatValue(2.5)})
	if v.Float() != -2.5 {
		t.Errorf("-2.5 = %v", v)
	}
	b, _ := m.Call("g", []Value{FloatValue(0)})
	if b.Int() != 1 {
		t.Errorf("!0.0 = %v", b)
	}
}

func TestCellsSnapshotIsCopy(t *testing.T) {
	buf := NewBuffer("b", CellInt, 2)
	_ = buf.Store(0, IntValue(5))
	cells := buf.Cells()
	cells[0] = IntValue(99)
	got, _ := buf.Load(0)
	if got.Int() != 5 {
		t.Error("Cells must return a copy")
	}
}

func TestSeedZeroMapped(t *testing.T) {
	m, _ := NewMachine(minic.MustParse(srcSeedZeroMapped))
	m.Seed(0)
	if _, err := m.Call("f", nil); err != nil {
		t.Fatal(err)
	}
}

func TestShiftOps(t *testing.T) {
	if got := run(t, srcShiftOps, "f", IntValue(8), IntValue(2)); got.Int() != 36 {
		t.Errorf("got %v, want 36", got)
	}
}

func TestSizeofExprOnValue(t *testing.T) {
	if got := run(t, srcSizeofExprOnValue, "f"); got.Int() != 8 {
		t.Errorf("sizeof d = %v, want 8", got)
	}
}

const srcVoidFunctionReturn = `
void bump(int *p) { p[0] = p[0] + 1; }
int f(void) {
    int v = 1;
    bump(&v);
    bump(&v);
    return v;
}
`

func TestVoidFunctionReturn(t *testing.T) {
	if got := run(t, srcVoidFunctionReturn, "f"); got.Int() != 3 {
		t.Errorf("got %v, want 3", got)
	}
}

const srcStringLitIndexing = `int f(void) { char *s = "AB"; return s[0] + s[1]; }`

func TestStringLitIndexing(t *testing.T) {
	if got := run(t, srcStringLitIndexing, "f"); got.Int() != 'A'+'B' {
		t.Errorf("got %v", got)
	}
}

const srcDoWhileExecution = `
int f(int n) {
    int total = 0;
    do {
        total += n;
        n--;
    } while (n > 0);
    return total;
}
`

func TestDoWhileExecution(t *testing.T) {
	// n=3: 3+2+1 = 6; n=0: body runs once → 0.
	if got := run(t, srcDoWhileExecution, "f", IntValue(3)); got.Int() != 6 {
		t.Errorf("f(3) = %v, want 6", got)
	}
	if got := run(t, srcDoWhileExecution, "f", IntValue(0)); got.Int() != 0 {
		t.Errorf("f(0) = %v, want 0 (body runs once)", got)
	}
}

const srcDoWhileBreak = `
int f(void) {
    int i = 0;
    do {
        i++;
        if (i == 3) break;
    } while (1);
    return i;
}
`

func TestDoWhileBreak(t *testing.T) {
	if got := run(t, srcDoWhileBreak, "f"); got.Int() != 3 {
		t.Errorf("f() = %v, want 3", got)
	}
}

const srcSwitchExecution = `
int f(int x) {
    int r = 0;
    switch (x) {
    case 1:
        r = 10;
        break;
    case 2:
    case 3:
        r = 20;
        break;
    default:
        r = 30;
    }
    return r;
}
`

func TestSwitchExecution(t *testing.T) {
	tests := []struct{ in, want int64 }{
		{1, 10}, {2, 20}, {3, 20}, {4, 30}, {-1, 30},
	}
	for _, tt := range tests {
		if got := run(t, srcSwitchExecution, "f", IntValue(tt.in)); got.Int() != tt.want {
			t.Errorf("f(%d) = %v, want %d", tt.in, got, tt.want)
		}
	}
}

const srcSwitchFallthroughAndNoDefault = `
int f(int x) {
    int r = 0;
    switch (x) {
    case 1:
        r += 1;
    case 2:
        r += 2;
        break;
    case 3:
        r += 4;
    }
    return r;
}
`

func TestSwitchFallthroughAndNoDefault(t *testing.T) {
	tests := []struct{ in, want int64 }{
		{1, 3}, // falls through into case 2
		{2, 2},
		{3, 4},
		{9, 0}, // no match, no default
	}
	for _, tt := range tests {
		if got := run(t, srcSwitchFallthroughAndNoDefault, "f", IntValue(tt.in)); got.Int() != tt.want {
			t.Errorf("f(%d) = %v, want %d", tt.in, got, tt.want)
		}
	}
}

const srcSwitchReturnAndContinue = `
int f(int n) {
    int total = 0;
    for (int i = 0; i < n; i++) {
        switch (i % 3) {
        case 0:
            continue;
        case 1:
            total += 10;
            break;
        default:
            return total + 100;
        }
    }
    return total;
}
`

func TestSwitchReturnAndContinue(t *testing.T) {
	// i=0: continue; i=1: +10; i=2: return 10+100.
	if got := run(t, srcSwitchReturnAndContinue, "f", IntValue(5)); got.Int() != 110 {
		t.Errorf("f(5) = %v, want 110", got)
	}
}

const srcAllCompoundAssignOps = `
int f(int a) {
    a += 3;
    a -= 1;
    a *= 2;
    a /= 3;
    a %= 7;
    a ^= 5;
    a &= 6;
    a |= 9;
    a <<= 2;
    a >>= 1;
    return a;
}
`

func TestAllCompoundAssignOps(t *testing.T) {
	// a=10: +3=13, -1=12, *2=24, /3=8, %7=1, ^5=4, &6=4, |9=13, <<2=52, >>1=26.
	if got := run(t, srcAllCompoundAssignOps, "f", IntValue(10)); got.Int() != 26 {
		t.Errorf("f(10) = %v, want 26", got)
	}
}
