// Package types implements the type system of the path-conjunctive data
// model used by the chase & backchase optimizer: base types (including
// opaque OID types invented for class extents), finite sets, records
// (structs) and dictionaries (finite functions).
//
// The model follows §1–§2 of Deutsch, Popa, Tannen (VLDB 1999): a schema is
// a set of names, each with a type built from this grammar:
//
//	T ::= int | float | string | bool | oid(Name)
//	    | Set<T>
//	    | Struct{A1: T1, ..., An: Tn}
//	    | Dict<Tkey, Tval>
package types

import (
	"fmt"
	"strings"
)

// Kind discriminates the variants of Type.
type Kind int

// The kinds of types in the model.
const (
	KindInt Kind = iota
	KindFloat
	KindString
	KindBool
	KindOID // an opaque base type invented for a class of objects
	KindSet
	KindStruct
	KindDict
)

func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	case KindOID:
		return "oid"
	case KindSet:
		return "set"
	case KindStruct:
		return "struct"
	case KindDict:
		return "dict"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Field is a named component of a struct type.
type Field struct {
	Name string
	Type *Type
}

// Type is an immutable description of a value shape. Construct types with
// the constructor functions (Int, SetOf, StructOf, ...); do not mutate a
// Type after construction.
type Type struct {
	Kind Kind

	// OIDName names the opaque base type when Kind == KindOID
	// (e.g. "Doid" for the Dept class of the paper's Figure 3).
	OIDName string

	// Elem is the element type for sets and the value type for dicts.
	Elem *Type

	// Key is the key type for dicts.
	Key *Type

	// Fields are the components of a struct, in declaration order.
	Fields []Field
}

var (
	intType    = &Type{Kind: KindInt}
	floatType  = &Type{Kind: KindFloat}
	stringType = &Type{Kind: KindString}
	boolType   = &Type{Kind: KindBool}
)

// Int returns the int base type.
func Int() *Type { return intType }

// Float returns the float base type.
func Float() *Type { return floatType }

// String returns the string base type.
func StringT() *Type { return stringType }

// Bool returns the bool base type.
func Bool() *Type { return boolType }

// OID returns the opaque base type with the given name. Two OID types are
// equal iff their names are equal.
func OID(name string) *Type { return &Type{Kind: KindOID, OIDName: name} }

// SetOf returns the type of finite sets with the given element type.
func SetOf(elem *Type) *Type { return &Type{Kind: KindSet, Elem: elem} }

// DictOf returns the type of dictionaries (finite functions) from key to
// val.
func DictOf(key, val *Type) *Type {
	return &Type{Kind: KindDict, Key: key, Elem: val}
}

// StructOf returns a record type with the given fields, kept in the order
// given. Field names must be distinct; StructOf panics otherwise since a
// duplicated field is a programming error in schema construction.
func StructOf(fields ...Field) *Type {
	seen := make(map[string]bool, len(fields))
	for _, f := range fields {
		if seen[f.Name] {
			panic(fmt.Sprintf("types: duplicate struct field %q", f.Name))
		}
		seen[f.Name] = true
	}
	return &Type{Kind: KindStruct, Fields: fields}
}

// F is shorthand for constructing a Field.
func F(name string, t *Type) Field { return Field{Name: name, Type: t} }

// IsBase reports whether t is a base type (int, float, string, bool, oid).
func (t *Type) IsBase() bool {
	switch t.Kind {
	case KindInt, KindFloat, KindString, KindBool, KindOID:
		return true
	}
	return false
}

// FieldType returns the type of the named field of a struct type, or nil
// if t is not a struct or has no such field.
func (t *Type) FieldType(name string) *Type {
	if t == nil || t.Kind != KindStruct {
		return nil
	}
	for _, f := range t.Fields {
		if f.Name == name {
			return f.Type
		}
	}
	return nil
}

// Equal reports structural equality of types. OID types compare by name.
func (t *Type) Equal(u *Type) bool {
	if t == u {
		return true
	}
	if t == nil || u == nil || t.Kind != u.Kind {
		return false
	}
	switch t.Kind {
	case KindInt, KindFloat, KindString, KindBool:
		return true
	case KindOID:
		return t.OIDName == u.OIDName
	case KindSet:
		return t.Elem.Equal(u.Elem)
	case KindDict:
		return t.Key.Equal(u.Key) && t.Elem.Equal(u.Elem)
	case KindStruct:
		if len(t.Fields) != len(u.Fields) {
			return false
		}
		for i := range t.Fields {
			if t.Fields[i].Name != u.Fields[i].Name ||
				!t.Fields[i].Type.Equal(u.Fields[i].Type) {
				return false
			}
		}
		return true
	}
	return false
}

// String renders the type in the DDL surface syntax, e.g.
// "dict<Doid, {DName: string, DProjs: set<string>}>".
func (t *Type) String() string {
	if t == nil {
		return "<nil>"
	}
	switch t.Kind {
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	case KindOID:
		return t.OIDName
	case KindSet:
		return "set<" + t.Elem.String() + ">"
	case KindDict:
		return "dict<" + t.Key.String() + ", " + t.Elem.String() + ">"
	case KindStruct:
		var b strings.Builder
		b.WriteString("{")
		for i, f := range t.Fields {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(f.Name)
			b.WriteString(": ")
			b.WriteString(f.Type.String())
		}
		b.WriteString("}")
		return b.String()
	default:
		return fmt.Sprintf("<bad kind %d>", int(t.Kind))
	}
}

// Validate checks that the type is well-formed: no nil components,
// dictionary keys are base-typed or flat records of base types (the PC
// restriction of §5: keys must not contain set or dictionary types), and
// struct field names are unique.
func (t *Type) Validate() error {
	if t == nil {
		return fmt.Errorf("types: nil type")
	}
	switch t.Kind {
	case KindInt, KindFloat, KindString, KindBool:
		return nil
	case KindOID:
		if t.OIDName == "" {
			return fmt.Errorf("types: oid type with empty name")
		}
		return nil
	case KindSet:
		return t.Elem.Validate()
	case KindDict:
		if err := t.Key.Validate(); err != nil {
			return err
		}
		if t.Key.ContainsCollection() {
			return fmt.Errorf("types: dictionary key type %s contains a set or dictionary (violates PC restriction)", t.Key)
		}
		return t.Elem.Validate()
	case KindStruct:
		seen := make(map[string]bool, len(t.Fields))
		for _, f := range t.Fields {
			if f.Name == "" {
				return fmt.Errorf("types: struct field with empty name")
			}
			if seen[f.Name] {
				return fmt.Errorf("types: duplicate struct field %q", f.Name)
			}
			seen[f.Name] = true
			if err := f.Type.Validate(); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("types: unknown kind %d", int(t.Kind))
	}
}

// ContainsCollection reports whether the type mentions a set or dictionary
// anywhere. Dictionary keys, where-clause equalities and select outputs of
// PC queries must not (restriction 1 of §5).
func (t *Type) ContainsCollection() bool {
	if t == nil {
		return false
	}
	switch t.Kind {
	case KindSet, KindDict:
		return true
	case KindStruct:
		for _, f := range t.Fields {
			if f.Type.ContainsCollection() {
				return true
			}
		}
	}
	return false
}
