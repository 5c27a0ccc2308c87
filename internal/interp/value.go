// Package interp runs MiniC programs concretely. The SGX enclave simulator
// uses it to run enclave code end to end, and the checker uses it to
// replay leak witnesses: two concrete executions differing in a single
// secret must produce observably different outputs.
//
// Compile turns a parsed file into a Program; each function compiles into
// Go closures on its first call, with identifiers resolved to frame slots
// or globals and types, layouts, offsets and call targets fixed once. A
// Machine runs a Program: it owns the globals, the step budget, the PRNG
// and the printed output of one run, and any number of machines may share
// one Program. Scalars whose address is never taken live in a per-call
// frame of Values; arrays, structs and address-taken scalars are Objects of
// typed cells, fresh each time their declaration runs. Numbers compute
// through sym's operator table, as the symbolic engine's constant folding
// does (int arithmetic wraps at 32 bits in every intermediate result), and
// pointer arithmetic (p + n, p++, p += n) steps by the element size in
// cells.
//
// Every statement, every expression and every loop iteration costs one
// step of the MaxSteps budget, and an error a node can raise (undeclared
// identifier, unknown function, nil dereference, missing return) surfaces
// only when that node runs.
package interp

import (
	"errors"
	"fmt"
	"math"
	"strconv"

	"privacyscope/internal/minic"
	"privacyscope/internal/sym"
)

// Interpreter errors.
var (
	ErrStepBudget    = errors.New("interp: step budget exhausted")
	ErrNilDeref      = errors.New("interp: nil pointer dereference")
	ErrOutOfBounds   = errors.New("interp: index out of bounds")
	ErrDivideByZero  = errors.New("interp: division by zero")
	ErrNoSuchFunc    = errors.New("interp: no such function")
	ErrMissingReturn = errors.New("interp: function fell off the end without returning a value")
	ErrTooLarge      = errors.New("interp: type too large to allocate")
)

// CellKind is the storage class of one memory cell.
type CellKind int

// Cell kinds.
const (
	CellInt CellKind = iota + 1
	CellChar
	CellFloat // float and double both store float64
	CellPtr
)

// Value is a concrete MiniC value: an integer, a float, or a pointer.
type Value struct {
	kind CellKind
	// i holds an integer, or a float's IEEE 754 bits.
	i   int64
	ptr Pointer
}

// Pointer references a cell inside an object.
type Pointer struct {
	Obj *Object
	Off int
}

// IsNil reports whether the pointer is null.
func (p Pointer) IsNil() bool { return p.Obj == nil }

// IntValue wraps an int.
func IntValue(v int64) Value { return Value{kind: CellInt, i: v} }

// CharValue wraps a char.
func CharValue(v int64) Value { return Value{kind: CellChar, i: int64(int8(v))} }

// FloatValue wraps a float.
func FloatValue(v float64) Value { return Value{kind: CellFloat, i: int64(math.Float64bits(v))} }

// PtrValue wraps a pointer.
func PtrValue(p Pointer) Value { return Value{kind: CellPtr, ptr: p} }

// Kind returns the value's storage class.
func (v Value) Kind() CellKind { return v.kind }

// Int returns the value as int64 (floats convert by sym.ToInt32).
func (v Value) Int() int64 {
	if v.kind == CellFloat {
		return int64(sym.ToInt32(v.float()))
	}
	return v.i
}

// Float returns the value as float64.
func (v Value) Float() float64 {
	if v.kind == CellFloat {
		return v.float()
	}
	return float64(v.i)
}

func (v Value) float() float64 { return math.Float64frombits(uint64(v.i)) }

// num returns a number as the operand sym's operator table takes; an int
// wraps to 32 bits.
func (v Value) num() sym.Value {
	if v.kind == CellFloat {
		return sym.FloatVal(v.float())
	}
	return sym.IntVal(int32(v.i))
}

// numValue returns a result of sym's operator table as a Value.
func numValue(n sym.Value) Value {
	if n.IsFloat {
		return FloatValue(n.F)
	}
	return IntValue(int64(n.I))
}

// Ptr returns the pointer payload (zero Pointer when not a pointer).
func (v Value) Ptr() Pointer { return v.ptr }

// IsZero reports numeric zero or nil pointer.
func (v Value) IsZero() bool {
	switch v.kind {
	case CellFloat:
		return v.float() == 0
	case CellPtr:
		return v.ptr.IsNil()
	default:
		return v.i == 0
	}
}

// IsFloat reports whether the value is floating point.
func (v Value) IsFloat() bool { return v.kind == CellFloat }

// String formats the value.
func (v Value) String() string {
	switch v.kind {
	case CellFloat:
		return strconv.FormatFloat(v.float(), 'g', -1, 64)
	case CellPtr:
		if v.ptr.IsNil() {
			return "NULL"
		}
		return fmt.Sprintf("&%s+%d", v.ptr.Obj.Name, v.ptr.Off)
	default:
		return strconv.FormatInt(v.i, 10)
	}
}

// Object is a contiguous block of typed cells: a variable, array, struct or
// heap buffer.
type Object struct {
	Name  string
	cells []Value
	kinds []CellKind
}

// NewObject allocates an object with the cell layout of the given type.
func NewObject(name string, t minic.Type) *Object {
	kinds, _ := objectLayout(t) // no layout: an object of no cells
	return newObject(name, kinds)
}

// newObject allocates an object with the given cell kinds, which it shares
// and never writes.
func newObject(name string, kinds []CellKind) *Object {
	o := &Object{Name: name, cells: make([]Value, len(kinds)), kinds: kinds}
	for i, k := range kinds {
		o.cells[i] = zeroOf(k)
	}
	return o
}

// NewBuffer allocates a flat buffer of n cells of one kind (for ECALL
// marshalling).
func NewBuffer(name string, kind CellKind, n int) *Object {
	o := &Object{Name: name, cells: make([]Value, n), kinds: make([]CellKind, n)}
	for i := range o.cells {
		o.kinds[i] = kind
		o.cells[i] = zeroOf(kind)
	}
	return o
}

// Len returns the number of cells.
func (o *Object) Len() int { return len(o.cells) }

// Load reads cell off.
func (o *Object) Load(off int) (Value, error) {
	if off < 0 || off >= len(o.cells) {
		return Value{}, fmt.Errorf("%w: %s[%d] (len %d)", ErrOutOfBounds, o.Name, off, len(o.cells))
	}
	return o.cells[off], nil
}

// Store writes cell off, coercing v to the cell's kind (C-style narrowing).
func (o *Object) Store(off int, v Value) error {
	if off < 0 || off >= len(o.cells) {
		return fmt.Errorf("%w: %s[%d] (len %d)", ErrOutOfBounds, o.Name, off, len(o.cells))
	}
	o.cells[off] = coerce(v, o.kinds[off])
	return nil
}

// Cells returns a copy of the raw cells (for reading [out] buffers).
func (o *Object) Cells() []Value {
	out := make([]Value, len(o.cells))
	copy(out, o.cells)
	return out
}

// SetCells overwrites the first len(vals) cells with coercion (for filling
// [in] buffers).
func (o *Object) SetCells(vals []Value) error {
	if len(vals) > len(o.cells) {
		return fmt.Errorf("%w: writing %d cells into %s (len %d)", ErrOutOfBounds, len(vals), o.Name, len(o.cells))
	}
	for i, v := range vals {
		o.cells[i] = coerce(v, o.kinds[i])
	}
	return nil
}

func zeroOf(k CellKind) Value {
	switch k {
	case CellFloat:
		return FloatValue(0)
	case CellPtr:
		return PtrValue(Pointer{})
	case CellChar:
		return CharValue(0)
	default:
		return IntValue(0)
	}
}

// coerce converts v to cell kind k with C semantics: floats convert to ints
// by sym.ToInt32, chars wrap to 8 bits, ints widen to floats exactly.
func coerce(v Value, k CellKind) Value {
	switch k {
	case CellInt:
		return IntValue(int64(int32(v.Int())))
	case CellChar:
		return CharValue(v.Int())
	case CellFloat:
		return FloatValue(v.Float())
	case CellPtr:
		if v.kind == CellPtr {
			return v
		}
		return PtrValue(Pointer{}) // storing a non-pointer nulls the cell
	}
	return v
}

// maxObjectCells bounds one object. A type with more cells, or one that
// contains itself, has no layout: declaring a variable of it fails with
// ErrTooLarge when the declaration runs.
const maxObjectCells = 1 << 20

// objectLayout flattens a type into its cell kinds, or fails with
// ErrTooLarge when the type has no layout (see maxObjectCells).
func objectLayout(t minic.Type) ([]CellKind, error) {
	n := cellsOf(t)
	if n < 0 || n > maxObjectCells {
		return nil, fmt.Errorf("%w: %s", ErrTooLarge, t)
	}
	return appendLayout(make([]CellKind, 0, n), t), nil
}

// scalarKind is the cell kind of a scalar type (minic.IsScalar).
func scalarKind(t minic.Type) CellKind {
	if b, ok := t.(minic.Basic); ok {
		switch b.Kind {
		case minic.Char:
			return CellChar
		case minic.Float, minic.Double:
			return CellFloat
		}
		return CellInt
	}
	return CellPtr
}

func appendLayout(out []CellKind, t minic.Type) []CellKind {
	switch v := t.(type) {
	case minic.Basic:
		if v.Kind == minic.Void {
			return out
		}
		return append(out, scalarKind(v))
	case minic.Pointer:
		return append(out, CellPtr)
	case minic.Array:
		if v.Len <= 0 {
			return out
		}
		start := len(out)
		out = appendLayout(out, v.Elem)
		elem := out[start:]
		for i := 1; i < v.Len; i++ {
			out = append(out, elem...)
		}
		return out
	case *minic.StructType:
		for _, f := range v.Fields {
			out = appendLayout(out, f.Type)
		}
	}
	return out
}

// cellsOf returns the number of cells a type occupies, saturating just
// past maxObjectCells, or -1 when the type contains itself.
func cellsOf(t minic.Type) int {
	var cc cellCounter
	return cc.count(t)
}

// cellCounter memoizes struct cell counts within one count; -1 marks a
// struct still being counted, which a self-containing struct meets again.
type cellCounter map[*minic.StructType]int

func (cc *cellCounter) count(t minic.Type) int {
	switch v := t.(type) {
	case minic.Basic:
		if v.Kind == minic.Void {
			return 0
		}
		return 1
	case minic.Pointer:
		return 1
	case minic.Array:
		e := cc.count(v.Elem)
		switch {
		case e < 0:
			return -1
		case v.Len <= 0 || e == 0:
			return 0
		case v.Len > maxObjectCells/e:
			return maxObjectCells + 1
		}
		return v.Len * e
	case *minic.StructType:
		if n, ok := (*cc)[v]; ok {
			return n
		}
		if *cc == nil {
			*cc = make(cellCounter)
		}
		(*cc)[v] = -1
		n := 0
		for _, f := range v.Fields {
			c := cc.count(f.Type)
			if c < 0 {
				return -1
			}
			n = min(n+c, maxObjectCells+1)
		}
		(*cc)[v] = n
		return n
	}
	return 0
}

// fieldOffset returns the cell offset of field name within struct st.
func fieldOffset(st *minic.StructType, name string) (int, minic.Type, bool) {
	off := 0
	for _, f := range st.Fields {
		if f.Name == name {
			return off, f.Type, true
		}
		off += cellsOf(f.Type)
	}
	return 0, nil, false
}
