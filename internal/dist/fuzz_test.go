package dist

import (
	"testing"

	"repro/internal/locale"
	"repro/internal/machine"
	"repro/internal/sparse"
)

// FuzzDeltaMerge drives a random insert/delete stream through an EpochMat —
// flushed in randomly-sized batches across multiple epochs — and keeps every
// committed epoch's snapshot beside a from-scratch rebuild of the stream up
// to that epoch. At the end each held snapshot must still equal its rebuild:
// every merge is equivalent to replaying the mutations last-wins onto the
// initial matrix, and no later merge writes into an epoch a reader holds.
// Replication (when the first byte selects it) must stay refreshed at every
// commit.
func FuzzDeltaMerge(f *testing.F) {
	f.Add([]byte{0x01, 0x10, 0x03, 0x05, 0x11})
	f.Add([]byte{0x42, 0x00, 0xff, 0xff, 0xff, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07})
	f.Add([]byte{0x85, 0x22, 0x22, 0x80, 0x01, 0x22, 0x22, 0x80, 0x02})
	// Five flushes on a replicated 2×2 grid, each one touching blocks an
	// earlier epoch rewrote.
	f.Add([]byte{0x83, 0x01, 0x02, 0x01, 0x07, 0x10, 0x11, 0x01, 0x0e, 0x01, 0x14, 0x00, 0x15,
		0x14, 0x03, 0x02, 0x1c, 0x02, 0x02, 0x03, 0x23})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		p := int(data[0]&0x07) + 1
		replicate := data[0]&0x80 != 0
		const n = 23
		data = data[1:]

		rt, err := locale.New(machine.Edison(), p, 4)
		if err != nil {
			t.Fatal(err)
		}
		a := sparse.ErdosRenyi[float64](n, 3, 11)
		m := MatFromCSR(rt, a)
		if replicate {
			ReplicateMat(rt, m)
		}
		em := NewEpochMat(m)
		oracle := oracleFromCSR(a)

		// held[k] is a snapshot taken after the k-th flush (held[0] before
		// any) and the rebuild it must equal.
		type heldEpoch struct {
			mat  *Mat[float64]
			want *sparse.CSR[float64]
		}
		held := []heldEpoch{{em.Committed(), oracleCSR(t, n, oracle)}}
		flush := func() {
			if _, err := em.Flush(rt); err != nil {
				t.Fatal(err)
			}
			held = append(held, heldEpoch{em.Committed(), oracleCSR(t, n, oracle)})
		}

		for k := 0; k+4 <= len(data); k += 4 {
			i := int(data[k]) % n
			j := int(data[k+1]) % n
			switch data[k+2] % 5 {
			case 0: // tombstone
				if err := em.Delete(i, j); err != nil {
					t.Fatal(err)
				}
				delete(oracle, oracleKey{i, j})
			default:
				v := float64(data[k+3]) + 0.25
				if err := em.Update(i, j, v); err != nil {
					t.Fatal(err)
				}
				oracle[oracleKey{i, j}] = v
			}
			if data[k+3]%7 == 0 {
				flush()
			}
		}
		before := em.Epoch()
		flush()
		if em.Pending() != 0 {
			t.Fatalf("pending = %d after final flush", em.Pending())
		}
		if em.Epoch() < before {
			t.Fatalf("epoch went backwards: %d -> %d", before, em.Epoch())
		}

		for k, h := range held {
			if err := h.mat.Validate(); err != nil {
				t.Fatalf("snapshot after flush %d of %d invalid: %v", k, len(held)-1, err)
			}
			got, err := h.mat.ToCSR()
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(h.want) {
				t.Fatalf("snapshot after flush %d of %d differs from its from-scratch rebuild: nnz %d vs %d",
					k, len(held)-1, got.NNZ(), h.want.NNZ())
			}
			for l := 0; replicate && l < rt.G.P; l++ {
				if !h.mat.Replicas[l].Equal(h.mat.Blocks[l]) {
					t.Fatalf("replica of block %d stale in the snapshot after flush %d", l, k)
				}
			}
		}
	})
}
