package minic

import (
	"fmt"
	"strings"
)

// Type is a MiniC type.
type Type interface {
	isType()
	String() string
}

// BasicKind enumerates scalar types.
type BasicKind int

// Scalar type kinds.
const (
	Void BasicKind = iota + 1
	Int
	Char
	Float  // C float
	Double // C double
)

// Basic is a scalar type.
type Basic struct {
	Kind BasicKind
}

func (Basic) isType() {}

// String implements Type.
func (b Basic) String() string {
	switch b.Kind {
	case Void:
		return "void"
	case Int:
		return "int"
	case Char:
		return "char"
	case Float:
		return "float"
	case Double:
		return "double"
	}
	return fmt.Sprintf("basic(%d)", int(b.Kind))
}

// IsFloat reports whether the scalar is a floating type.
func (b Basic) IsFloat() bool { return b.Kind == Float || b.Kind == Double }

// IsInteger reports whether the scalar is an integer type.
func (b Basic) IsInteger() bool { return b.Kind == Int || b.Kind == Char }

// Pointer is *Elem.
type Pointer struct {
	Elem Type
}

func (Pointer) isType() {}

// String implements Type.
func (p Pointer) String() string { return p.Elem.String() + "*" }

// Array is Elem[Len]; Len < 0 means unknown length (e.g. parameter decay).
type Array struct {
	Elem Type
	Len  int
}

func (Array) isType() {}

// String implements Type.
func (a Array) String() string {
	if a.Len < 0 {
		return a.Elem.String() + "[]"
	}
	return fmt.Sprintf("%s[%d]", a.Elem.String(), a.Len)
}

// StructType is a named struct with ordered fields.
type StructType struct {
	Name   string
	Fields []Field
}

// Field is one struct member.
type Field struct {
	Name string
	Type Type
	Pos  Pos // the member name's position
}

func (*StructType) isType() {}

// String implements Type.
func (s *StructType) String() string { return "struct " + s.Name }

// FieldType returns the type of the named field.
func (s *StructType) FieldType(name string) (Type, bool) {
	for _, f := range s.Fields {
		if f.Name == name {
			return f.Type, true
		}
	}
	return nil, false
}

// Describe renders the full struct layout.
func (s *StructType) Describe() string {
	var sb strings.Builder
	sb.WriteString("struct " + s.Name + " { ")
	for _, f := range s.Fields {
		sb.WriteString(f.Type.String() + " " + f.Name + "; ")
	}
	sb.WriteString("}")
	return sb.String()
}

// IsFloatType reports whether t is a floating scalar.
func IsFloatType(t Type) bool {
	b, ok := t.(Basic)
	return ok && b.IsFloat()
}

// IsScalar reports whether t is a basic non-void type or a pointer.
func IsScalar(t Type) bool {
	switch v := t.(type) {
	case Basic:
		return v.Kind != Void
	case Pointer:
		return true
	}
	return false
}

// ElemType returns the element type of an array or pointer.
func ElemType(t Type) (Type, bool) {
	switch v := t.(type) {
	case Pointer:
		return v.Elem, true
	case Array:
		return v.Elem, true
	}
	return nil, false
}
