package interp

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"privacyscope/internal/minic"
	"privacyscope/internal/sym"
)

// applyBinary applies a binary operator to two concrete values: pointers
// compare by identity, numbers compute as sym.ApplyBinary defines C.
func applyBinary(op sym.Op, l, r Value) (Value, error) {
	if l.Kind() == CellPtr || r.Kind() == CellPtr {
		if op != sym.OpEq && op != sym.OpNe {
			return Value{}, fmt.Errorf("interp: bad pointer operation %v", op)
		}
		return boolValue((op == sym.OpEq) == (l.Ptr() == r.Ptr())), nil
	}
	out, err := sym.ApplyBinary(op, l.num(), r.num())
	return numValue(out), opError(op, err)
}

// opError phrases an operator table error for the machine's callers.
func opError(op sym.Op, err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, sym.ErrDivideByZero):
		return ErrDivideByZero
	}
	return fmt.Errorf("interp: bad operation %v", op)
}

func boolValue(b bool) Value {
	if b {
		return IntValue(1)
	}
	return IntValue(0)
}

// builtin compiles a call to a library function the machine gives
// semantics to. Arity is checked when the call runs, before its arguments
// are evaluated; a name with no model goes to the OCallHandler, if any.
func (c *compiler) builtin(v *minic.CallExpr) expr {
	name, pos := v.Fun, v.Pos
	args := c.args(v.Args)
	// run wraps a builtin body with the call's step, an arity check when
	// n >= 0, and argument evaluation.
	run := func(ty minic.Type, n int, body func(m *Machine, args []Value) (Value, error)) expr {
		var arityErr error
		if n >= 0 && len(args) != n {
			arityErr = &minic.Error{Pos: pos, Msg: fmt.Sprintf("%s expects %d args, got %d", name, n, len(args))}
		}
		return expr{ty: ty, eval: func(fr *frame) (Value, error) {
			if err := fr.m.step(); err != nil {
				return Value{}, err
			}
			if arityErr != nil {
				return Value{}, arityErr
			}
			var buf [4]Value
			vals, err := evalArgs(fr, args, buf[:0])
			if err != nil {
				return Value{}, err
			}
			return body(fr.m, vals)
		}}
	}
	if f := sym.LookupMath(name); f != nil {
		ty := doubleType
		if f.IntResult {
			ty = intType
		}
		return run(ty, f.Arity, func(_ *Machine, a []Value) (Value, error) {
			var buf [2]sym.Value
			nums := buf[:0]
			for _, v := range a {
				nums = append(nums, v.num())
			}
			out, err := f.Apply(nums)
			var de sym.DomainError
			if errors.As(err, &de) {
				return Value{}, &minic.Error{Pos: pos, Msg: string(de)}
			}
			return numValue(out), err
		})
	}
	switch name {
	case "rand":
		// xorshift64*: deterministic and seedable, standing in for libc
		// rand. Its arguments, if any, are never evaluated.
		return expr{ty: intType, eval: func(fr *frame) (Value, error) {
			if err := fr.m.step(); err != nil {
				return Value{}, err
			}
			return IntValue(int64((fr.m.xorshift() * 0x2545F4914F6CDD1D) >> 33)), nil
		}}
	case "srand":
		return run(intType, 1, func(m *Machine, a []Value) (Value, error) {
			m.Seed(uint64(a[0].Int()))
			return IntValue(0), nil
		})
	case "printf", "ocall_print":
		return run(intType, -1, func(m *Machine, a []Value) (Value, error) {
			m.Printed = append(m.Printed, formatPrintf(a))
			return IntValue(0), nil
		})
	case "memcpy", "sgx_rijndael128GCM_decrypt", "sgx_rijndael128GCM_encrypt":
		// Cell-wise copy dst ← src of n cells. The SGX crypto intrinsics
		// behave as plaintext copies inside the simulator; real sealing
		// happens in internal/sgx outside the enclave body. Argument
		// order follows memcpy(dst, src, n).
		return run(intType, 3, func(_ *Machine, a []Value) (Value, error) {
			dst, src := a[0].Ptr(), a[1].Ptr()
			n := int(a[2].Int())
			if dst.IsNil() || src.IsNil() {
				return Value{}, fmt.Errorf("%w in %s", ErrNilDeref, name)
			}
			for i := 0; i < n; i++ {
				val, err := src.Obj.Load(src.Off + i)
				if err != nil {
					return Value{}, err
				}
				if err := dst.Obj.Store(dst.Off+i, val); err != nil {
					return Value{}, err
				}
			}
			return IntValue(0), nil
		})
	case "memset":
		return run(intType, 3, func(_ *Machine, a []Value) (Value, error) {
			dst := a[0].Ptr()
			if dst.IsNil() {
				return Value{}, fmt.Errorf("%w in memset", ErrNilDeref)
			}
			n := int(a[2].Int())
			for i := 0; i < n; i++ {
				if err := dst.Obj.Store(dst.Off+i, a[1]); err != nil {
					return Value{}, err
				}
			}
			return IntValue(0), nil
		})
	case "sgx_read_rand":
		// Fill buffer with deterministic pseudo-random cells.
		return run(intType, 2, func(m *Machine, a []Value) (Value, error) {
			dst := a[0].Ptr()
			if dst.IsNil() {
				return Value{}, fmt.Errorf("%w in sgx_read_rand", ErrNilDeref)
			}
			n := int(a[1].Int())
			for i := 0; i < n; i++ {
				if err := dst.Obj.Store(dst.Off+i, IntValue(int64(m.xorshift()&0xFF))); err != nil {
					return Value{}, err
				}
			}
			return IntValue(0), nil
		})
	}
	noSuchFunc := fmt.Errorf("%w: %s", ErrNoSuchFunc, name)
	return expr{ty: intType, eval: func(fr *frame) (Value, error) {
		m := fr.m
		if err := m.step(); err != nil {
			return Value{}, err
		}
		if m.OCallHandler == nil {
			return Value{}, noSuchFunc
		}
		vals, err := evalArgs(fr, args, make([]Value, 0, len(args)))
		if err != nil {
			return Value{}, err
		}
		result, handled, err := m.OCallHandler(name, vals)
		if err != nil {
			return Value{}, fmt.Errorf("ocall %s: %w", name, err)
		}
		if !handled {
			return Value{}, noSuchFunc
		}
		return result, nil
	}}
}

// xorshift advances the PRNG one xorshift64 step.
func (m *Machine) xorshift() uint64 {
	m.rng ^= m.rng >> 12
	m.rng ^= m.rng << 25
	m.rng ^= m.rng >> 27
	return m.rng
}

// formatPrintf renders a printf call: the first argument (a char buffer)
// is the format; %d/%f/%g/%c/%s verbs consume subsequent arguments. The
// output is collected, not written to stdout — the machine is a library.
func formatPrintf(args []Value) string {
	if len(args) == 0 {
		return ""
	}
	format := cString(args[0])
	rest := args[1:]
	var sb strings.Builder
	argIdx := 0
	for i := 0; i < len(format); i++ {
		c := format[i]
		if c != '%' || i+1 >= len(format) {
			sb.WriteByte(c)
			continue
		}
		i++
		// Skip width/precision.
		for i < len(format) && (format[i] == '.' || (format[i] >= '0' && format[i] <= '9')) {
			i++
		}
		if i >= len(format) {
			break
		}
		verb := format[i]
		if verb == '%' {
			sb.WriteByte('%')
			continue
		}
		if argIdx >= len(rest) {
			sb.WriteString("%!missing")
			continue
		}
		arg := rest[argIdx]
		argIdx++
		switch verb {
		case 'd', 'i', 'u', 'l':
			sb.WriteString(strconv.FormatInt(arg.Int(), 10))
		case 'f', 'g', 'e':
			sb.WriteString(strconv.FormatFloat(arg.Float(), 'g', -1, 64))
		case 'c':
			sb.WriteByte(byte(arg.Int()))
		case 's':
			sb.WriteString(cString(arg))
		default:
			sb.WriteByte('%')
			sb.WriteByte(verb)
		}
	}
	return sb.String()
}

// cString reads a NUL-terminated char buffer through a pointer value.
func cString(v Value) string {
	p := v.Ptr()
	if p.IsNil() {
		return ""
	}
	var sb strings.Builder
	for off := p.Off; off < p.Obj.Len(); off++ {
		cell, err := p.Obj.Load(off)
		if err != nil || cell.Int() == 0 {
			break
		}
		sb.WriteByte(byte(cell.Int()))
	}
	return sb.String()
}
