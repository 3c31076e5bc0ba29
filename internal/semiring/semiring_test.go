package semiring

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMaxMinValueInt(t *testing.T) {
	if got := MaxValue[int8](); got != math.MaxInt8 {
		t.Errorf("MaxValue[int8] = %d, want %d", got, math.MaxInt8)
	}
	if got := MinValue[int8](); got != math.MinInt8 {
		t.Errorf("MinValue[int8] = %d, want %d", got, math.MinInt8)
	}
	if got := MaxValue[int16](); got != math.MaxInt16 {
		t.Errorf("MaxValue[int16] = %d, want %d", got, math.MaxInt16)
	}
	if got := MaxValue[int32](); got != math.MaxInt32 {
		t.Errorf("MaxValue[int32] = %d, want %d", got, math.MaxInt32)
	}
	if got := MaxValue[int64](); got != math.MaxInt64 {
		t.Errorf("MaxValue[int64] = %d, want %d", got, math.MaxInt64)
	}
	if got := MaxValue[int](); got != math.MaxInt {
		t.Errorf("MaxValue[int] = %d, want %d", got, math.MaxInt)
	}
	if got := MinValue[int](); got != math.MinInt {
		t.Errorf("MinValue[int] = %d, want %d", got, math.MinInt)
	}
}

func TestMaxMinValueUint(t *testing.T) {
	if got := MaxValue[uint8](); got != math.MaxUint8 {
		t.Errorf("MaxValue[uint8] = %d, want %d", got, math.MaxUint8)
	}
	if got := MinValue[uint8](); got != 0 {
		t.Errorf("MinValue[uint8] = %d, want 0", got)
	}
	if got := MaxValue[uint64](); got != math.MaxUint64 {
		t.Errorf("MaxValue[uint64] = %d, want %d", got, uint64(math.MaxUint64))
	}
	if got := MinValue[uint](); got != 0 {
		t.Errorf("MinValue[uint] = %d, want 0", got)
	}
}

func TestMaxMinValueFloat(t *testing.T) {
	if got := MaxValue[float64](); !math.IsInf(got, 1) {
		t.Errorf("MaxValue[float64] = %g, want +Inf", got)
	}
	if got := MinValue[float64](); !math.IsInf(got, -1) {
		t.Errorf("MinValue[float64] = %g, want -Inf", got)
	}
	if got := MaxValue[float32](); !math.IsInf(float64(got), 1) {
		t.Errorf("MaxValue[float32] = %g, want +Inf", got)
	}
	if got := MinValue[float32](); !math.IsInf(float64(got), -1) {
		t.Errorf("MinValue[float32] = %g, want -Inf", got)
	}
}

func TestUnaryOps(t *testing.T) {
	if Identity(7) != 7 {
		t.Error("Identity(7) != 7")
	}
	if AInv(5) != -5 {
		t.Error("AInv(5) != -5")
	}
	if Abs(-3.5) != 3.5 || Abs(3.5) != 3.5 {
		t.Error("Abs wrong")
	}
	if One(42) != 1 {
		t.Error("One(42) != 1")
	}
	add3 := AddConst(3)
	if add3(4) != 7 {
		t.Error("AddConst(3)(4) != 7")
	}
}

func TestBinaryOps(t *testing.T) {
	if Plus(2, 3) != 5 || Times(2, 3) != 6 {
		t.Error("Plus/Times wrong")
	}
	if Min(2, 3) != 2 || Min(3, 2) != 2 || Max(2, 3) != 3 || Max(3, 2) != 3 {
		t.Error("Min/Max wrong")
	}
	if Second(1, 2) != 2 {
		t.Error("Second wrong")
	}
	if LOr(0, 0) != 0 || LOr(1, 0) != 1 || LOr(0, 5) != 1 {
		t.Error("LOr wrong")
	}
	if LAnd(0, 1) != 0 || LAnd(2, 3) != 1 || LAnd(0, 0) != 0 {
		t.Error("LAnd wrong")
	}
}

func TestMonoidReduce(t *testing.T) {
	if got := PlusMonoid[int]().Reduce([]int{1, 2, 3, 4}); got != 10 {
		t.Errorf("plus reduce = %d, want 10", got)
	}
	if got := MinMonoid[int]().Reduce([]int{5, 2, 9}); got != 2 {
		t.Errorf("min reduce = %d, want 2", got)
	}
	if got := MinMonoid[int]().Reduce(nil); got != MaxValue[int]() {
		t.Errorf("min reduce of empty = %d, want identity", got)
	}
	if got := MaxMonoid[int]().Reduce([]int{5, 2, 9}); got != 9 {
		t.Errorf("max reduce = %d, want 9", got)
	}
	if got := LOrMonoid[int]().Reduce([]int{0, 0, 7}); got != 1 {
		t.Errorf("lor reduce = %d, want 1", got)
	}
}

// monoidLaws checks identity and associativity for a monoid over int64 inputs
// drawn by testing/quick.
func monoidLaws(t *testing.T, m Monoid[int64]) {
	t.Helper()
	ident := func(a int64) bool {
		return m.Op(m.Identity, a) == a && m.Op(a, m.Identity) == a
	}
	if err := quick.Check(ident, nil); err != nil {
		t.Errorf("%s: identity law: %v", m.Name, err)
	}
	assoc := func(a, b, c int64) bool {
		return m.Op(m.Op(a, b), c) == m.Op(a, m.Op(b, c))
	}
	if err := quick.Check(assoc, nil); err != nil {
		t.Errorf("%s: associativity law: %v", m.Name, err)
	}
	comm := func(a, b int64) bool { return m.Op(a, b) == m.Op(b, a) }
	if err := quick.Check(comm, nil); err != nil {
		t.Errorf("%s: commutativity law: %v", m.Name, err)
	}
}

func TestMonoidLawsQuick(t *testing.T) {
	monoidLaws(t, MinMonoid[int64]())
	monoidLaws(t, MaxMonoid[int64]())
	// PlusMonoid satisfies the laws modulo two's-complement wraparound, which
	// is still associative/commutative in Go's defined integer overflow.
	monoidLaws(t, PlusMonoid[int64]())
}

// TestBooleanMonoidLaws checks lor over its actual carrier set {0,1}.
func TestBooleanMonoidLaws(t *testing.T) {
	for _, m := range []Monoid[int64]{LOrMonoid[int64]()} {
		dom := []int64{0, 1}
		for _, a := range dom {
			if m.Op(m.Identity, a) != a || m.Op(a, m.Identity) != a {
				t.Errorf("%s: identity law fails for %d", m.Name, a)
			}
			for _, b := range dom {
				if m.Op(a, b) != m.Op(b, a) {
					t.Errorf("%s: commutativity fails at (%d,%d)", m.Name, a, b)
				}
				for _, c := range dom {
					if m.Op(m.Op(a, b), c) != m.Op(a, m.Op(b, c)) {
						t.Errorf("%s: associativity fails at (%d,%d,%d)", m.Name, a, b, c)
					}
				}
			}
		}
	}
}

func TestSemiringAccessors(t *testing.T) {
	s := PlusTimes[float64]()
	if s.AddIdentity() != 0 {
		t.Error("plus-times additive identity != 0")
	}
	if s.Add.Op(2, 3) != 5 {
		t.Error("plus-times add op wrong")
	}
	if s.Mul(2, 3) != 6 {
		t.Error("plus-times mul wrong")
	}
}

func TestMinPlusSaturation(t *testing.T) {
	s := MinPlus[int32]()
	inf := MaxValue[int32]()
	if got := s.Mul(inf, 5); got != inf {
		t.Errorf("inf + 5 = %d, want inf", got)
	}
	if got := s.Mul(5, inf); got != inf {
		t.Errorf("5 + inf = %d, want inf", got)
	}
	if got := s.Mul(2, 3); got != 5 {
		t.Errorf("2 + 3 = %d, want 5", got)
	}
	if got := s.Add.Op(inf, 7); got != 7 {
		t.Errorf("min(inf, 7) = %d, want 7", got)
	}
}

func TestMinSecondSemiring(t *testing.T) {
	s := MinSecond[int]()
	inf := MaxValue[int]()
	// Frontier value 3 times matrix entry 9 yields 9 (the "second").
	if got := s.Mul(3, 9); got != 9 {
		t.Errorf("minsecond mul(3,9) = %d, want 9", got)
	}
	// The additive identity must be absorbing for Mul.
	if got := s.Mul(inf, 9); got != inf {
		t.Errorf("minsecond mul(inf,9) = %d, want inf", got)
	}
	if got := s.Mul(9, inf); got != inf {
		t.Errorf("minsecond mul(9,inf) = %d, want inf", got)
	}
	if got := s.Add.Op(4, 2); got != 2 {
		t.Errorf("minsecond add(4,2) = %d, want 2", got)
	}
}

func TestMinFirstSemiring(t *testing.T) {
	s := MinFirst[int]()
	inf := MaxValue[int]()
	if got := s.Mul(3, 9); got != 3 {
		t.Errorf("minfirst mul(3,9) = %d, want 3", got)
	}
	if got := s.Mul(inf, 9); got != inf {
		t.Errorf("minfirst mul(inf,9) = %d, want inf", got)
	}
	if got := s.Mul(9, inf); got != inf {
		t.Errorf("minfirst mul(9,inf) = %d, want inf", got)
	}
}

// Semiring distributivity spot-check on small domains (full quick.Check over
// int64 would hit wraparound asymmetries for plus-times; restrict to a small
// range where arithmetic is exact).
func TestSemiringDistributivitySmall(t *testing.T) {
	check := func(name string, s Semiring[int64]) {
		for a := int64(-4); a <= 4; a++ {
			for b := int64(-4); b <= 4; b++ {
				for c := int64(-4); c <= 4; c++ {
					left := s.Mul(a, s.Add.Op(b, c))
					right := s.Add.Op(s.Mul(a, b), s.Mul(a, c))
					if left != right {
						t.Fatalf("%s: a⊗(b⊕c) != (a⊗b)⊕(a⊗c) at a=%d b=%d c=%d: %d vs %d",
							name, a, b, c, left, right)
					}
				}
			}
		}
	}
	check("plus-times", PlusTimes[int64]())
	check("lor-land", LOrLAnd[int64]())
}

func TestMinPlusDistributivity(t *testing.T) {
	s := MinPlus[int64]()
	vals := []int64{0, 1, 2, 5, 100, MaxValue[int64]()}
	for _, a := range vals {
		for _, b := range vals {
			for _, c := range vals {
				left := s.Mul(a, s.Add.Op(b, c))
				right := s.Add.Op(s.Mul(a, b), s.Mul(a, c))
				if left != right {
					t.Fatalf("min-plus distributivity fails at a=%d b=%d c=%d: %d vs %d",
						a, b, c, left, right)
				}
			}
		}
	}
}

func TestAnnihilatorMinPlus(t *testing.T) {
	// In min-plus the additive identity +∞ must annihilate under ⊗.
	s := MinPlus[int64]()
	inf := s.AddIdentity()
	vals := []int64{0, 1, -7, 1 << 40}
	for _, v := range vals {
		if s.Mul(inf, v) != inf || s.Mul(v, inf) != inf {
			t.Fatalf("+∞ is not absorbing for v=%d", v)
		}
	}
}

// extremes checks MaxValue/MinValue of one element type against the
// constants of its underlying type.
func extremes[T Number](t *testing.T, name string, wantMax, wantMin float64) {
	t.Helper()
	if got := float64(MaxValue[T]()); got != wantMax {
		t.Errorf("MaxValue[%s] = %g, want %g", name, got, wantMax)
	}
	if got := float64(MinValue[T]()); got != wantMin {
		t.Errorf("MinValue[%s] = %g, want %g", name, got, wantMin)
	}
}

type (
	namedInt16  int16
	namedUint32 uint32
	namedFloat  float64
)

// TestMaxMinValueEveryNumberType is the table for the constant-time
// MaxValue/MinValue: every type of the Number constraint, and named types of
// three of its shapes. The 64-bit maxima round to the same float64 on both
// sides, and are compared exactly below.
func TestMaxMinValueEveryNumberType(t *testing.T) {
	inf := math.Inf(1)
	extremes[int8](t, "int8", math.MaxInt8, math.MinInt8)
	extremes[int16](t, "int16", math.MaxInt16, math.MinInt16)
	extremes[int32](t, "int32", math.MaxInt32, math.MinInt32)
	extremes[int64](t, "int64", math.MaxInt64, math.MinInt64)
	extremes[int](t, "int", math.MaxInt, math.MinInt)
	extremes[uint8](t, "uint8", math.MaxUint8, 0)
	extremes[uint16](t, "uint16", math.MaxUint16, 0)
	extremes[uint32](t, "uint32", math.MaxUint32, 0)
	extremes[uint64](t, "uint64", math.MaxUint64, 0)
	extremes[uint](t, "uint", math.MaxUint, 0)
	extremes[float32](t, "float32", inf, -inf)
	extremes[float64](t, "float64", inf, -inf)
	extremes[namedInt16](t, "namedInt16", math.MaxInt16, math.MinInt16)
	extremes[namedUint32](t, "namedUint32", math.MaxUint32, 0)
	extremes[namedFloat](t, "namedFloat", inf, -inf)
	if MaxValue[int64]() != math.MaxInt64 || MinValue[int64]() != math.MinInt64 || MaxValue[uint64]() != math.MaxUint64 {
		t.Errorf("64-bit extremes: %d %d %d", MaxValue[int64](), MinValue[int64](), MaxValue[uint64]())
	}
}

// TestKindTagCannotLie pins the contract of Semiring.Kind: only the built-in
// constructors set it, and it is withdrawn the moment either operator of a
// copy stops being the constructor's.
func TestKindTagCannotLie(t *testing.T) {
	for want, sr := range map[Kind]Semiring[float64]{
		KindPlusTimes: PlusTimes[float64](),
		KindMinPlus:   MinPlus[float64](),
		KindMaxPlus:   MaxPlus[float64](),
		KindLOrLAnd:   LOrLAnd[float64](),
		KindMinSecond: MinSecond[float64](),
		KindMinFirst:  MinFirst[float64](),
	} {
		if got := sr.Kind(); got != want {
			t.Errorf("%s: Kind() = %d, want %d", sr.Name, got, want)
		}
		cp := sr // a copy keeps the tag while it keeps the operators
		if cp.Kind() != want {
			t.Errorf("%s: an untouched copy lost its kind", sr.Name)
		}
		cp.Add.Identity = 42 // not an operator: the kernels read it from the struct
		if cp.Kind() != want {
			t.Errorf("%s: changing the identity withdrew the kind", sr.Name)
		}
		mul := sr
		mul.Mul = func(a, b float64) float64 { return a - b }
		if mul.Kind() != KindGeneric {
			t.Errorf("%s: Kind() = %d after Mul was reassigned", sr.Name, mul.Kind())
		}
		add := sr
		add.Add.Op = func(a, b float64) float64 { return a * b }
		if add.Kind() != KindGeneric {
			t.Errorf("%s: Kind() = %d after Add.Op was reassigned", sr.Name, add.Kind())
		}
		none := sr
		none.Mul = nil
		if none.Kind() != KindGeneric {
			t.Errorf("%s: Kind() = %d with a nil Mul", sr.Name, none.Kind())
		}
	}
	// Another built-in's operator is still not this built-in's.
	swapped := MinPlus[float64]()
	swapped.Mul = MinSecond[float64]().Mul
	if swapped.Kind() != KindGeneric {
		t.Errorf("MinPlus with MinSecond's Mul: Kind() = %d", swapped.Kind())
	}
	// A struct literal of the very same operators is a user's semiring.
	lit := Semiring[float64]{Name: "mine", Add: PlusMonoid[float64](), Mul: Times[float64]}
	if lit.Kind() != KindGeneric {
		t.Errorf("struct literal: Kind() = %d, want generic", lit.Kind())
	}
	// The tag is per element type.
	if PlusTimes[int32]().Kind() != KindPlusTimes || MinFirst[int64]().Kind() != KindMinFirst {
		t.Error("integer instantiations lost their kind")
	}
}

// TestMonoidKindTagCannotLie is TestKindTagCannotLie for Monoid.Kind: set by
// the constructors of the monoids a reduction inlines, withdrawn when Op is
// reassigned, absent from struct literals and from the other constructors.
func TestMonoidKindTagCannotLie(t *testing.T) {
	for want, m := range map[MonoidKind]Monoid[float64]{
		MonoidPlus: PlusMonoid[float64](),
		MonoidMin:  MinMonoid[float64](),
		MonoidMax:  MaxMonoid[float64](),
	} {
		if got := m.Kind(); got != want {
			t.Errorf("%s: Kind() = %d, want %d", m.Name, got, want)
		}
		cp := m
		cp.Identity = 42 // not the operator: reductions read it from the struct
		if cp.Kind() != want {
			t.Errorf("%s: changing the identity withdrew the kind", m.Name)
		}
		cp.Op = func(a, b float64) float64 { return a * b }
		if cp.Kind() != MonoidGeneric {
			t.Errorf("%s: Kind() = %d after Op was reassigned", m.Name, cp.Kind())
		}
		cp.Op = nil
		if cp.Kind() != MonoidGeneric {
			t.Errorf("%s: Kind() = %d with a nil Op", m.Name, cp.Kind())
		}
	}
	// Another built-in's operator is still not this built-in's.
	swapped := MinMonoid[float64]()
	swapped.Op = MaxMonoid[float64]().Op
	if swapped.Kind() != MonoidGeneric {
		t.Errorf("min with max's Op: Kind() = %d", swapped.Kind())
	}
	// A struct literal of the very same operator is a user's monoid.
	lit := Monoid[float64]{Name: "mine", Op: Plus[float64]}
	if lit.Kind() != MonoidGeneric {
		t.Errorf("struct literal: Kind() = %d, want generic", lit.Kind())
	}
	for _, m := range []Monoid[int64]{LOrMonoid[int64]()} {
		if m.Kind() != MonoidGeneric {
			t.Errorf("%s: Kind() = %d, but no reduction inlines it", m.Name, m.Kind())
		}
	}
	// The tag is per element type, and a semiring's additive monoid carries it.
	if MinMonoid[int32]().Kind() != MonoidMin || MinPlus[int64]().Add.Kind() != MonoidMin || PlusTimes[float64]().Add.Kind() != MonoidPlus {
		t.Error("integer instantiations or semiring components lost their kind")
	}
}

// AInv returns the additive inverse (negation).
func AInv[T Signed | Float](x T) T { return -x }

// Abs returns the absolute value.
func Abs[T Signed | Float](x T) T {
	if x < 0 {
		return -x
	}
	return x
}

// One returns the multiplicative identity regardless of its argument; useful
// for structural computations (pattern-only semantics).
func One[T Number](T) T { return 1 }

// AddConst returns a UnaryOp adding c to its argument.
func AddConst[T Number](c T) UnaryOp[T] {
	return func(x T) T { return x + c }
}
