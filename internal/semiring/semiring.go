// Package semiring defines the algebraic building blocks of GraphBLAS:
// unary operators, binary operators, monoids, and semirings.
//
// A GraphBLAS semiring overloads scalar "multiplication" and "addition" with
// user-defined binary operators; the additive operator must form a commutative
// monoid (it has an identity element). A GraphBLAS monoid is a binary operator
// together with an identity element, and a GraphBLAS function is a bare binary
// operator, allowed in operations that do not require an identity (such as
// eWiseMult).
//
// All operators are generic over the element type so that the same algorithm
// text serves, e.g., (+,×) over float64 for numerics, (min,+) over int64 for
// shortest paths, and (min,select2nd) over int64 for BFS parent propagation.
package semiring

import (
	"math"
	"reflect"
)

// Signed is the constraint for signed integer element types.
type Signed interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64
}

// Unsigned is the constraint for unsigned integer element types.
type Unsigned interface {
	~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64
}

// Integer is the constraint for integer element types.
type Integer interface {
	Signed | Unsigned
}

// Float is the constraint for floating-point element types.
type Float interface {
	~float32 | ~float64
}

// Number is the constraint for all numeric element types usable as matrix and
// vector values.
type Number interface {
	Integer | Float
}

// UnaryOp maps one scalar to another. Apply() applies a UnaryOp to every
// stored element of a matrix or vector.
type UnaryOp[T any] func(T) T

// BinaryOp combines two scalars into one. It is the "GraphBLAS function":
// no identity element is required.
type BinaryOp[T any] func(T, T) T

// Pred is a binary predicate on scalar pairs, used by the filtering form of
// eWiseMult described in the paper (an element x[i] is kept when
// pred(x[i], y[i]) holds).
type Pred[T any] func(T, T) bool

// Monoid is a binary operator together with its identity element. The
// operator is expected to be associative; commutativity is additionally
// required when the monoid is used as the additive component of a semiring.
type Monoid[T any] struct {
	Name     string
	Op       BinaryOp[T]
	Identity T

	// kind and the code pointer of the operator the constructor installed;
	// see Kind. A struct literal leaves them zero.
	kind MonoidKind
	opPC uintptr
}

// MonoidKind names a built-in monoid whose operator a reduction may inline.
type MonoidKind uint8

const (
	// MonoidGeneric is every monoid a reduction must run through its
	// function-valued Op: user struct literals, and copies of a built-in
	// whose Op was reassigned.
	MonoidGeneric MonoidKind = iota
	MonoidPlus
	MonoidMin
	MonoidMax
)

// Kind reports which built-in monoid m still is, by the rule of
// Semiring.Kind: the constructor's tag is honoured only while Op has the code
// pointer the constructor recorded. Reductions call this once per call, never
// per element.
func (m Monoid[T]) Kind() MonoidKind {
	if m.kind == MonoidGeneric || funcPC(m.Op) != m.opPC {
		return MonoidGeneric
	}
	return m.kind
}

// builtinMonoid tags m as the built-in monoid k.
func builtinMonoid[T any](k MonoidKind, m Monoid[T]) Monoid[T] {
	m.kind, m.opPC = k, funcPC(m.Op)
	return m
}

// Reduce folds xs with the monoid, starting from the identity.
func (m Monoid[T]) Reduce(xs []T) T {
	acc := m.Identity
	for _, x := range xs {
		acc = m.Op(acc, x)
	}
	return acc
}

// Semiring pairs an additive commutative monoid with a multiplicative binary
// operator. Matrix–vector and matrix–matrix products are computed over it:
// y[j] = ⊕_i ( x[i] ⊗ A[i,j] ).
type Semiring[T any] struct {
	Name string
	Add  Monoid[T]
	Mul  BinaryOp[T]

	// kind and the code pointers of the operators the constructor installed;
	// see Kind. A struct literal leaves them zero.
	kind         Kind
	addPC, mulPC uintptr
}

// Kind names a built-in semiring whose arithmetic the kernels may inline.
type Kind uint8

const (
	// KindGeneric is every semiring the kernels must run through its
	// function-valued operators: user struct literals, and copies of a
	// built-in whose operators were reassigned.
	KindGeneric Kind = iota
	KindPlusTimes
	KindMinPlus
	KindMaxPlus
	KindLOrLAnd
	KindMinSecond
	KindMinFirst
)

// Kind reports which built-in semiring s still is. Add.Op and Mul are
// exported, so a copy of a built-in may carry other operators by now: the
// tag is honoured only while both still have the code pointers the
// constructor recorded. A false KindGeneric costs speed only; a false
// built-in would compute with the wrong operator, and cannot happen —
// another function cannot have the same code pointer, and a closure over the
// same code would need the same element type, where it is the same operator.
// Kernels call this once per call, never per nonzero.
func (s Semiring[T]) Kind() Kind {
	if s.kind == KindGeneric || funcPC(s.Add.Op) != s.addPC || funcPC(s.Mul) != s.mulPC {
		return KindGeneric
	}
	return s.kind
}

func funcPC[T any](f BinaryOp[T]) uintptr { return reflect.ValueOf(f).Pointer() }

// builtin tags s as the built-in semiring k.
func builtin[T any](k Kind, s Semiring[T]) Semiring[T] {
	s.kind, s.addPC, s.mulPC = k, funcPC(s.Add.Op), funcPC(s.Mul)
	return s
}

// AddIdentity returns the additive identity ("zero") of the semiring.
func (s Semiring[T]) AddIdentity() T { return s.Add.Identity }

// MaxValue returns the identity of the Min monoid: +Inf for floating-point
// element types, and the largest representable value for integer types.
func MaxValue[T Number]() T {
	if isFloat[T]() {
		inf := math.Inf(1)
		return T(inf)
	}
	var zero T
	minusOne := -1
	if T(minusOne) > zero {
		// Unsigned: -1 converts (by truncation) to the all-ones maximum.
		return T(minusOne)
	}
	// Signed: probe the width — the maximum is the value whose successor
	// wraps negative.
	for _, m := range [...]int64{math.MaxInt8, math.MaxInt16, math.MaxInt32} {
		if v := T(m); v+1 < v {
			return v
		}
	}
	m := int64(math.MaxInt64)
	return T(m)
}

// MinValue returns the identity of the Max monoid: -Inf for floating-point
// element types, and the smallest representable value for integer types.
func MinValue[T Number]() T {
	if isFloat[T]() {
		inf := math.Inf(-1)
		return T(inf)
	}
	var zero T
	minusOne := -1
	if T(minusOne) > zero {
		return zero // unsigned
	}
	return -MaxValue[T]() - 1
}

// isFloat reports whether T is a floating-point type, detected by whether a
// fractional value survives conversion to T.
func isFloat[T Number]() bool {
	half := 0.5
	var zero T
	return T(half) != zero
}

// --- Standard unary operators -----------------------------------------------

// Identity returns its argument unchanged.
func Identity[T any](x T) T { return x }

// --- Standard binary operators ----------------------------------------------

// Plus adds.
func Plus[T Number](a, b T) T { return a + b }

// Times multiplies.
func Times[T Number](a, b T) T { return a * b }

// Min returns the smaller argument.
func Min[T Number](a, b T) T {
	if a < b {
		return a
	}
	return b
}

// Max returns the larger argument.
func Max[T Number](a, b T) T {
	if a > b {
		return a
	}
	return b
}

// Second returns its second argument. (min, Second) is the classic BFS
// semiring: the product of a frontier entry with a matrix entry is the
// frontier entry itself (the parent vertex id).
func Second[T any](_, b T) T { return b }

// LOr is logical OR on numeric values (nonzero = true), returning 0 or 1.
func LOr[T Number](a, b T) T {
	if a != 0 || b != 0 {
		return 1
	}
	return 0
}

// LAnd is logical AND on numeric values (nonzero = true), returning 0 or 1.
func LAnd[T Number](a, b T) T {
	if a != 0 && b != 0 {
		return 1
	}
	return 0
}

// --- Standard monoids ---------------------------------------------------------

// PlusMonoid is the (+, 0) commutative monoid.
func PlusMonoid[T Number]() Monoid[T] {
	return builtinMonoid(MonoidPlus, Monoid[T]{Name: "plus", Op: Plus[T], Identity: 0})
}

// MinMonoid is the (min, +∞) commutative monoid.
func MinMonoid[T Number]() Monoid[T] {
	return builtinMonoid(MonoidMin, Monoid[T]{Name: "min", Op: Min[T], Identity: MaxValue[T]()})
}

// MaxMonoid is the (max, -∞) commutative monoid.
func MaxMonoid[T Number]() Monoid[T] {
	return builtinMonoid(MonoidMax, Monoid[T]{Name: "max", Op: Max[T], Identity: MinValue[T]()})
}

// LOrMonoid is the (∨, 0) commutative monoid.
func LOrMonoid[T Number]() Monoid[T] {
	return Monoid[T]{Name: "lor", Op: LOr[T], Identity: 0}
}

// --- Standard semirings -------------------------------------------------------

// PlusTimes is the arithmetic semiring (+, ×, 0).
func PlusTimes[T Number]() Semiring[T] {
	return builtin(KindPlusTimes, Semiring[T]{Name: "plus-times", Add: PlusMonoid[T](), Mul: Times[T]})
}

// MinPlus is the tropical semiring (min, +, +∞) used for shortest paths.
func MinPlus[T Number]() Semiring[T] {
	return builtin(KindMinPlus, Semiring[T]{Name: "min-plus", Add: MinMonoid[T](), Mul: SaturatingPlus[T]})
}

// MaxPlus is the (max, +, -∞) semiring used for longest/critical paths.
func MaxPlus[T Number]() Semiring[T] {
	return builtin(KindMaxPlus, Semiring[T]{Name: "max-plus", Add: MaxMonoid[T](), Mul: Plus[T]})
}

// LOrLAnd is the Boolean semiring (∨, ∧, 0) used for reachability.
func LOrLAnd[T Number]() Semiring[T] {
	return builtin(KindLOrLAnd, Semiring[T]{Name: "lor-land", Add: LOrMonoid[T](), Mul: LAnd[T]})
}

// MinSecond is the BFS semiring (min, second, +∞): multiplying a frontier
// value with a matrix entry yields the frontier value, and collisions keep the
// minimum, so SpMSpV over MinSecond propagates (for example) parent ids.
func MinSecond[T Number]() Semiring[T] {
	return builtin(KindMinSecond, Semiring[T]{Name: "min-second", Add: MinMonoid[T](), Mul: secondSaturating[T]})
}

// MinFirst is the (min, first, +∞) semiring; symmetric counterpart of
// MinSecond for column-major formulations.
func MinFirst[T Number]() Semiring[T] {
	return builtin(KindMinFirst, Semiring[T]{Name: "min-first", Add: MinMonoid[T](), Mul: firstSaturating[T]})
}

// SaturatingPlus adds but keeps the Min identity ("+∞") absorbing, so that
// +∞ + w = +∞ instead of wrapping around for integer types.
func SaturatingPlus[T Number](a, b T) T {
	inf := MaxValue[T]()
	if a == inf || b == inf {
		return inf
	}
	return a + b
}

// secondSaturating behaves like Second but treats "+∞" in either operand as
// absorbing, mirroring SaturatingPlus for the MinSecond semiring.
func secondSaturating[T Number](a, b T) T {
	inf := MaxValue[T]()
	if a == inf || b == inf {
		return inf
	}
	return b
}

// firstSaturating returns its first argument, with absorbing "+∞".
func firstSaturating[T Number](a, b T) T {
	inf := MaxValue[T]()
	if a == inf || b == inf {
		return inf
	}
	return a
}
