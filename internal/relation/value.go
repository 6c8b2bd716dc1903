// Package relation implements the relational data model of Rosenthal &
// Galindo-Legaria (SIGMOD 1990): schemes of qualified attributes, tuples
// whose fields may be null, and finite bag relations, together with the
// concatenation, padding and union conventions the paper's algebra relies
// on.
//
// Relations are bags (duplicates permitted): the paper explicitly prefers
// algebraic proofs that remain valid "in an environment where duplicates
// are permitted", so equality of query results is multiset equality (see
// Relation.EqualBag).
package relation

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"freejoin/internal/hashutil"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// The value kinds. KindNull is the zero value, so an uninitialized Value is
// the SQL null, matching the paper's null-padding convention.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a single attribute value. The zero Value is null. Values are
// comparable with == (suitable as map keys), but note that == treats two
// nulls as identical; predicate evaluation instead uses three-valued logic
// (see package predicate).
type Value struct {
	kind Kind
	i    int64 // also stores bool as 0/1
	f    float64
	s    string
}

// Null returns the null value.
func Null() Value { return Value{} }

// Bool returns a boolean value.
func Bool(b bool) Value {
	v := Value{kind: KindBool}
	if b {
		v.i = 1
	}
	return v
}

// Int returns an integer value.
func Int(i int64) Value { return Value{kind: KindInt, i: i} }

// Float returns a floating-point value.
func Float(f float64) Value { return Value{kind: KindFloat, f: f} }

// String returns a string value. The name collides with fmt.Stringer
// deliberately only at package level; the method is Value.Text/Value.String.
func Str(s string) Value { return Value{kind: KindString, s: s} }

// Kind reports the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is null.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsBool returns the boolean content; it panics if the kind is not bool.
func (v Value) AsBool() bool {
	if v.kind != KindBool {
		panic(fmt.Sprintf("relation: AsBool on %s value", v.kind))
	}
	return v.i != 0
}

// AsInt returns the integer content; it panics if the kind is not int.
func (v Value) AsInt() int64 {
	if v.kind != KindInt {
		panic(fmt.Sprintf("relation: AsInt on %s value", v.kind))
	}
	return v.i
}

// AsFloat returns the numeric content widened to float64; it panics if the
// kind is neither int nor float.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KindInt:
		return float64(v.i)
	case KindFloat:
		return v.f
	default:
		panic(fmt.Sprintf("relation: AsFloat on %s value", v.kind))
	}
}

// AsString returns the string content; it panics if the kind is not string.
func (v Value) AsString() string {
	if v.kind != KindString {
		panic(fmt.Sprintf("relation: AsString on %s value", v.kind))
	}
	return v.s
}

// Identical reports Go-level equality: two nulls are identical, and values
// of different kinds are never identical (no numeric coercion). Use this
// for grouping and duplicate elimination; use Compare3VL semantics in
// package predicate for query predicates.
func (v Value) Identical(w Value) bool { return v == w }

// Comparable reports whether the two values can be ordered by Compare
// without a type error: both non-null and of the same kind, or both
// numeric.
func (v Value) Comparable(w Value) bool {
	if v.kind == KindNull || w.kind == KindNull {
		return false
	}
	if v.kind == w.kind {
		return true
	}
	return v.isNumeric() && w.isNumeric()
}

func (v Value) isNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// Compare orders two values: -1, 0 or +1. Nulls sort before all non-null
// values, and distinct kinds order by kind tag (bool < int/float < string);
// ints and floats compare numerically. This is a total order used for
// canonical sorting and ordered indexes, not for predicate truth.
func (v Value) Compare(w Value) int {
	vk, wk := v.orderClass(), w.orderClass()
	if vk != wk {
		if vk < wk {
			return -1
		}
		return 1
	}
	switch vk {
	case 0: // both null
		return 0
	case 1: // bool
		return cmpInt64(v.i, w.i)
	case 2: // numeric
		if v.kind == KindInt && w.kind == KindInt {
			return cmpInt64(v.i, w.i)
		}
		return cmpFloat64(v.AsFloat(), w.AsFloat())
	default: // string
		return strings.Compare(v.s, w.s)
	}
}

func (v Value) orderClass() int {
	switch v.kind {
	case KindNull:
		return 0
	case KindBool:
		return 1
	case KindInt, KindFloat:
		return 2
	default:
		return 3
	}
}

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpFloat64(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	// Order NaNs deterministically before everything else.
	case math.IsNaN(a) && !math.IsNaN(b):
		return -1
	case !math.IsNaN(a) && math.IsNaN(b):
		return 1
	default:
		return 0
	}
}

// String renders the value for display; null renders as "-" following the
// paper's figures (e.g. "(r1, -, -)").
func (v Value) String() string {
	if v.kind == KindString {
		return v.s
	}
	var b [32]byte
	return string(v.appendText(b[:0]))
}

// appendText appends the value's String text to b.
func (v Value) appendText(b []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(b, '-')
	case KindBool:
		return strconv.AppendBool(b, v.i != 0)
	case KindInt:
		return strconv.AppendInt(b, v.i, 10)
	case KindFloat:
		return strconv.AppendFloat(b, v.f, 'g', -1, 64)
	default:
		return append(b, v.s...)
	}
}

// textLen is len(v.String()), counting an int's digits unformatted.
func (v Value) textLen() int {
	switch v.kind {
	case KindInt:
		n := 1 + int(uint64(v.i)>>63) // the digits, and a minus sign
		for u := v.i; u/10 != 0; u /= 10 {
			n++
		}
		return n
	case KindString:
		return len(v.s)
	}
	var b [32]byte
	return len(v.appendText(b[:0]))
}

// AppendKey appends an unambiguous encoding of the value to b, used to
// build hash keys for bag comparison, hash joins and hash indexes. Two
// values have equal encodings iff they are Identical.
func AppendKey(b []byte, v Value) []byte { return v.appendKey(b) }

// AppendJoinKey appends an encoding under which two non-null values have
// equal keys iff an equality predicate would hold between them
// (Compare == 0). It differs from AppendKey on numerics: an integral
// float encodes like the equal int, so hash joins agree with the
// nested-loop three-valued comparison semantics. Callers must skip null
// values (null never equi-matches).
func AppendJoinKey(b []byte, v Value) []byte { return v.joinKey().appendKey(b) }

// JoinKeyEqual reports whether a and b have equal AppendJoinKey
// encodings, without encoding either.
func JoinKeyEqual(a, b Value) bool {
	if a.kind == b.kind && a.kind != KindFloat {
		return a == b // the common case, kept small enough to inline
	}
	return floatJoinKeyEqual(a, b)
}

// floatJoinKeyEqual is JoinKeyEqual with a float on either side; after
// joinKey, a float's key encodes its bits.
func floatJoinKeyEqual(a, b Value) bool {
	a, b = a.joinKey(), b.joinKey()
	return a.kind == b.kind && a.i == b.i && math.Float64bits(a.f) == math.Float64bits(b.f)
}

// HashJoinKey mixes v's join key into h, for hash joins that hash key
// values instead of encoding them: values JoinKeyEqual calls equal hash
// alike, so an integral float hashes like the equal int and -0 like 0.
// Strings hash their bytes with FNV-64, and each step ends in murmur3's
// 64-bit finalizer, so chaining from a different h re-spreads the keys.
func HashJoinKey(h uint64, v Value) uint64 {
	v = v.joinKey()
	x := uint64(v.i)
	switch v.kind {
	case KindFloat:
		x = math.Float64bits(v.f)
	case KindString:
		fnv := hashutil.New64()
		fnv.WriteString(v.s)
		x = fnv.Sum64()
	}
	x = h ^ (x + uint64(v.kind)*0x9e3779b97f4a7c15)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	return x ^ x>>33
}

// joinKey maps an integral float to the equal int, the one value
// AppendJoinKey encodes differently from AppendKey.
func (v Value) joinKey() Value {
	if v.kind == KindFloat {
		f := v.f
		if f == math.Trunc(f) && f >= -9.2e18 && f <= 9.2e18 {
			return Int(int64(f))
		}
	}
	return v
}

// appendKey appends an unambiguous encoding of the value, used to build
// hash keys for bag comparison and hash joins.
func (v Value) appendKey(b []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(b, 'N')
	case KindBool:
		if v.i != 0 {
			return append(b, 'T')
		}
		return append(b, 'F')
	case KindInt:
		b = append(b, 'I')
		b = strconv.AppendInt(b, v.i, 10)
		return append(b, '|')
	case KindFloat:
		b = append(b, 'D')
		b = strconv.AppendUint(b, math.Float64bits(v.f), 16)
		return append(b, '|')
	default:
		b = append(b, 'S')
		b = strconv.AppendInt(b, int64(len(v.s)), 10)
		b = append(b, ':')
		b = append(b, v.s...)
		return b
	}
}
