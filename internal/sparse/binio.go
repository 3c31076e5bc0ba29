package sparse

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/semiring"
)

// Binary serialization for CSR matrices and sparse vectors: a compact
// little-endian format for checkpointing generated workloads (the paper-scale
// Erdős–Rényi matrices take minutes to generate; reloading them takes
// seconds). Values are stored as their IEEE-754/two's-complement bit patterns
// widened to 64 bits.
//
// Layout (all little-endian uint64 unless noted):
//
//	magic "GBLB" | version | kind (1=matrix, 2=vector) | valKind (1=int, 2=float)
//	matrix: nrows ncols nnz | rowptr[nrows+1] | colidx[nnz] | val[nnz]
//	vector: n nnz           | ind[nnz] | val[nnz]
const (
	binMagic   = 0x424C4247 // "GBLB"
	binVersion = 2
	kindMatrix = 1
	kindVector = 2
	valInt     = 1 // values stored as two's-complement int64
	valFloat   = 2 // values stored as IEEE-754 float64 bits
)

// valKind reports how T's values are encoded on the wire.
func valKind[T semiring.Number]() uint64 {
	if isFloatT[T]() {
		return valFloat
	}
	return valInt
}

// decodeValue converts a wire word written with the given kind to T,
// converting across numeric kinds when the reader's T differs from the
// writer's.
func decodeValue[T semiring.Number](u uint64, kind uint64) T {
	if kind == valFloat {
		return T(math.Float64frombits(u))
	}
	return T(int64(u))
}

type binWriter struct {
	w   *bufio.Writer
	err error
}

func (b *binWriter) u64(v uint64) {
	if b.err != nil {
		return
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	_, b.err = b.w.Write(buf[:])
}

func (b *binWriter) ints(xs []int) {
	for _, x := range xs {
		b.u64(uint64(x))
	}
}

type binReader struct {
	r   *bufio.Reader
	err error
}

func (b *binReader) u64() uint64 {
	if b.err != nil {
		return 0
	}
	var buf [8]byte
	_, b.err = io.ReadFull(b.r, buf[:])
	return binary.LittleEndian.Uint64(buf[:])
}

func (b *binReader) ints(n int) []int {
	// Grow incrementally so a corrupt header claiming an enormous count
	// fails at EOF instead of attempting a giant allocation up front.
	const chunk = 1 << 20
	var xs []int
	for len(xs) < n && b.err == nil {
		take := n - len(xs)
		if take > chunk {
			take = chunk
		}
		start := len(xs)
		xs = append(xs, make([]int, take)...)
		for i := start; i < start+take; i++ {
			xs[i] = int(b.u64())
			if b.err != nil {
				return xs
			}
		}
	}
	return xs
}

// valueBits widens a numeric value to a 64-bit pattern.
func valueBits[T semiring.Number](v T) uint64 {
	if isFloatT[T]() {
		return math.Float64bits(float64(v))
	}
	return uint64(int64(v))
}

// isFloatT mirrors semiring's float detection locally.
func isFloatT[T semiring.Number]() bool {
	half := 0.5
	var zero T
	return T(half) != zero
}

// WriteBinary writes the matrix in the library's binary format.
func (a *CSR[T]) WriteBinary(w io.Writer) error {
	bw := &binWriter{w: bufio.NewWriter(w)}
	bw.u64(binMagic)
	bw.u64(binVersion)
	bw.u64(kindMatrix)
	bw.u64(valKind[T]())
	bw.u64(uint64(a.NRows))
	bw.u64(uint64(a.NCols))
	bw.u64(uint64(a.NNZ()))
	bw.ints(a.RowPtr)
	bw.ints(a.ColIdx)
	for _, v := range a.Val {
		bw.u64(valueBits(v))
	}
	if bw.err != nil {
		return bw.err
	}
	return bw.w.Flush()
}

// ReadBinaryCSR reads a matrix written by WriteBinary and validates it.
func ReadBinaryCSR[T semiring.Number](r io.Reader) (*CSR[T], error) {
	br := &binReader{r: bufio.NewReader(r)}
	if m := br.u64(); m != binMagic {
		return nil, fmt.Errorf("sparse: binio: bad magic %#x", m)
	}
	if v := br.u64(); v != binVersion {
		return nil, fmt.Errorf("sparse: binio: unsupported version %d", v)
	}
	if k := br.u64(); k != kindMatrix {
		return nil, fmt.Errorf("sparse: binio: expected matrix, found kind %d", k)
	}
	vk := br.u64()
	if vk != valInt && vk != valFloat {
		return nil, fmt.Errorf("sparse: binio: unknown value kind %d", vk)
	}
	nrows := int(br.u64())
	ncols := int(br.u64())
	nnz := int(br.u64())
	if br.err != nil {
		return nil, br.err
	}
	if nrows < 0 || ncols < 0 || nnz < 0 {
		return nil, fmt.Errorf("sparse: binio: negative dimensions")
	}
	a := &CSR[T]{NRows: nrows, NCols: ncols}
	a.RowPtr = br.ints(nrows + 1)
	a.ColIdx = br.ints(nnz)
	a.Val = readVals[T](br, nnz, vk)
	if br.err != nil {
		return nil, br.err
	}
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("sparse: binio: corrupt matrix: %w", err)
	}
	return a, nil
}

// WriteBinary writes the vector in the library's binary format.
func (v *Vec[T]) WriteBinary(w io.Writer) error {
	bw := &binWriter{w: bufio.NewWriter(w)}
	bw.u64(binMagic)
	bw.u64(binVersion)
	bw.u64(kindVector)
	bw.u64(valKind[T]())
	bw.u64(uint64(v.N))
	bw.u64(uint64(v.NNZ()))
	bw.ints(v.Ind)
	for _, x := range v.Val {
		bw.u64(valueBits(x))
	}
	if bw.err != nil {
		return bw.err
	}
	return bw.w.Flush()
}

// readVals reads n values with the same incremental-growth discipline as
// binReader.ints.
func readVals[T semiring.Number](b *binReader, n int, kind uint64) []T {
	const chunk = 1 << 20
	var xs []T
	for len(xs) < n && b.err == nil {
		take := n - len(xs)
		if take > chunk {
			take = chunk
		}
		start := len(xs)
		xs = append(xs, make([]T, take)...)
		for i := start; i < start+take; i++ {
			xs[i] = decodeValue[T](b.u64(), kind)
			if b.err != nil {
				return xs
			}
		}
	}
	return xs
}
