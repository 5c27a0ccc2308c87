package interp

import (
	"fmt"

	"privacyscope/internal/minic"
)

// Program is a MiniC file compiled for execution. Each function compiles
// on its first call, so a program whose entry points never run costs
// nothing; global initialisers compile on the first NewMachine. A Program
// carries no run state and any number of machines may share it, but it
// compiles lazily without locks: it belongs to one goroutine at a time.
type Program struct {
	file *minic.File
	// funcs parallels file.Functions.
	funcs []function
	// globals parallels file.Globals, filled on the first NewMachine.
	globals []global
}

// global is one global's layout and compiled initialiser (nil: none).
type global struct {
	kinds []CellKind
	err   error // the type has no layout
	init  exprFn
}

// function is one declared function and, once called, its compiled body.
type function struct {
	decl   *minic.FuncDecl
	body   stmtFn
	params []local
	nvals  int // value slots: scalars whose address is never taken
	nobjs  int // object slots: arrays, structs, address-taken scalars
}

// Compile prepares file for execution. Nothing is compiled until a machine
// runs it.
func Compile(file *minic.File) *Program {
	p := &Program{file: file, funcs: make([]function, len(file.Functions))}
	for i, fn := range file.Functions {
		p.funcs[i].decl = fn
	}
	return p
}

// function resolves a call by name to the file's first declaration of
// that name, as minic.File.Function does (a prototype shadows a later
// definition); nil when there is none.
func (p *Program) function(name string) *function {
	for i := range p.funcs {
		if p.funcs[i].decl.Name == name {
			return &p.funcs[i]
		}
	}
	return nil
}

// Machine executes a compiled MiniC program concretely: it owns the
// globals, the step budget, the PRNG and the printed output of one run.
// It is single-threaded; create one per run or guard externally.
type Machine struct {
	prog *Program
	// MaxSteps bounds execution; 0 means DefaultMaxSteps.
	MaxSteps int
	steps    int
	limit    int
	rng      uint64
	// Printed collects printf/ocall_print output lines.
	Printed []string
	// OCallHandler, when set, intercepts calls to functions the machine
	// has no native model for (before the unknown-function error). The
	// SGX simulator uses it to dispatch EDL-declared OCALLs to host
	// code. Return handled=false to fall through to the error.
	OCallHandler func(name string, args []Value) (result Value, handled bool, err error)
	// globals holds one object per global, allocated in declaration
	// order while NewMachine runs the initialisers.
	globals []*Object
	// frames is the call stack, reused across calls; depth is its height.
	frames []*frame
	depth  int
}

// DefaultMaxSteps is the default execution budget.
const DefaultMaxSteps = 5_000_000

// NewMachine compiles file and returns a machine for it, with globals
// allocated and initialized.
func NewMachine(file *minic.File) (*Machine, error) {
	return Compile(file).NewMachine()
}

// NewMachine returns a fresh machine over the program, with globals
// allocated and initialized.
func (p *Program) NewMachine() (*Machine, error) {
	m := &Machine{prog: p, MaxSteps: DefaultMaxSteps, limit: DefaultMaxSteps, rng: 0x2545F4914F6CDD1D}
	if len(p.file.Globals) == 0 {
		return m, nil
	}
	if p.globals == nil {
		p.compileGlobals()
	}
	m.globals = make([]*Object, len(p.globals))
	fr := &frame{m: m}
	for i, g := range p.file.Globals {
		if p.globals[i].err != nil {
			return nil, fmt.Errorf("init global %s: %w", g.Name, p.globals[i].err)
		}
		m.globals[i] = newObject(g.Name, p.globals[i].kinds)
		if p.globals[i].init == nil {
			continue
		}
		v, err := p.globals[i].init(fr)
		if err != nil {
			return nil, fmt.Errorf("init global %s: %w", g.Name, err)
		}
		if err := m.globals[i].Store(0, v); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Call invokes a defined function with the given argument values.
func (m *Machine) Call(name string, args []Value) (Value, error) {
	fn := m.prog.function(name)
	if fn == nil || fn.decl.Body == nil {
		return Value{}, fmt.Errorf("%w: %s", ErrNoSuchFunc, name)
	}
	m.limit = m.MaxSteps
	if m.limit <= 0 {
		m.limit = DefaultMaxSteps
	}
	return m.call(fn, args)
}

// Seed sets the PRNG state used by rand().
func (m *Machine) Seed(s uint64) {
	if s == 0 {
		s = 1
	}
	m.rng = s
}

// step charges one unit of the budget: every statement, expression and
// loop iteration costs one.
func (m *Machine) step() error {
	m.steps++
	if m.steps > m.limit {
		return ErrStepBudget
	}
	return nil
}

// frame is one activation: value slots and object slots, both indexed by
// the compiler, plus the value of an executed return.
type frame struct {
	m    *Machine
	vals []Value
	objs []*Object
	ret  Value
}

// call runs fn's body on a fresh frame. Parameters bind like assignments:
// a slot parameter is coerced to its type, an object parameter is stored
// into a new object of its type.
func (m *Machine) call(fn *function, args []Value) (Value, error) {
	d := fn.decl
	if len(args) != len(d.Params) {
		return Value{}, fmt.Errorf("interp: %s expects %d args, got %d", d.Name, len(d.Params), len(args))
	}
	if fn.body == nil {
		m.prog.compileFunc(fn)
	}
	fr := m.push(fn)
	defer m.pop()
	for i, p := range fn.params {
		if p.slot >= 0 {
			fr.vals[p.slot] = coerce(args[i], p.kind)
			continue
		}
		obj := newObject(d.Params[i].Name, p.kinds)
		if err := obj.Store(0, args[i]); err != nil {
			return Value{}, err
		}
		fr.objs[p.obj] = obj
	}
	ctl, err := fn.body(fr)
	if err != nil {
		return Value{}, err
	}
	if ctl == ctlReturn {
		return fr.ret, nil
	}
	if b, ok := d.Return.(minic.Basic); ok && b.Kind == minic.Void {
		return IntValue(0), nil
	}
	return Value{}, fmt.Errorf("%w: %s", ErrMissingReturn, d.Name)
}

// push returns a cleared frame sized for fn, reusing the one left at this
// depth by an earlier call.
func (m *Machine) push(fn *function) *frame {
	if m.depth == len(m.frames) {
		m.frames = append(m.frames, &frame{m: m})
	}
	fr := m.frames[m.depth]
	m.depth++
	fr.vals = resize(fr.vals, fn.nvals)
	fr.objs = resize(fr.objs, fn.nobjs)
	return fr
}

func (m *Machine) pop() { m.depth-- }

// resize returns s with length n and every element zeroed.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

func coerceToType(v Value, t minic.Type) Value {
	switch ty := t.(type) {
	case minic.Basic:
		switch ty.Kind {
		case minic.Int:
			return IntValue(int64(int32(v.Int())))
		case minic.Char:
			return CharValue(v.Int())
		case minic.Float, minic.Double:
			return FloatValue(v.Float())
		}
	case minic.Pointer:
		return v
	}
	return v
}
