package comm

import (
	"repro/internal/locale"
)

// summaHeaderBytes is the fixed per-broadcast framing (block dimensions and
// the stage's band window) that makes even an empty panel cost one message —
// the SUMMA message count is a function of the grid, never of nnz.
const summaHeaderBytes = 16

// PanelBytes is the wire size of a Sparse SUMMA stage panel of nnz
// (index, value) elements: the payload plus a fixed header.
func PanelBytes(nnz int) int64 { return summaHeaderBytes + payloadBytes(nnz) }

// DenseBytes is the wire size of n dense elements.
func DenseBytes(n int) int64 { return bytesOf(n) }

// TeamBroadcast charges the tree broadcast of a bytes-long payload from root
// to every other member of team (locale ids; root must be a member): a
// Sparse SUMMA stage panel (PanelBytes), or a band of the SpMSpV mask
// (DenseBytes). Exactly one message is counted per non-root member, so a
// broadcast costs O(team size) messages whatever its size, and each
// transfer is fault-checked and retried under the runtime's retry policy: a
// mid-broadcast crash surfaces here as an error wrapping
// fault.ErrLocaleLost, charged with the detection timeout, exactly like the
// bulk collectives. Latency is the per-hop bulk time times the ceil(log2)
// depth of the team's broadcast tree. It moves no data.
func TeamBroadcast(rt *locale.Runtime, root int, team []int, bytes int64, op string) error {
	if len(team) <= 1 {
		return nil
	}
	for _, dst := range team {
		if dst == root {
			// The root drives the top of the tree: it is busy for the full
			// pipelined depth like everyone else.
			rt.S.Advance(root, TeamBroadcastTime(rt, root, root, len(team), bytes))
			continue
		}
		hop, rest := broadcastLeg(rt, root, dst, len(team), bytes)
		extra, err := retryExtra(rt, root, dst, hop, op)
		if err != nil {
			return err
		}
		rt.S.Bulk(dst, bytes, rt.G.SameNode(root, dst))
		rt.S.Advance(dst, rest+extra)
	}
	return nil
}

// TeamBroadcastTime is what TeamBroadcast charges member dst of a team of
// size members rooted at root, fault-free: the root pays the whole tree at
// the inter-node hop; any other member its one hop, then the rest of the
// tree at that hop.
func TeamBroadcastTime(rt *locale.Runtime, root, dst, size int, bytes int64) float64 {
	if size <= 1 {
		return 0
	}
	if dst == root {
		return rt.S.BulkTime(bytes, false) * treeDepth(size)
	}
	hop, rest := broadcastLeg(rt, root, dst, size, bytes)
	return hop + rest
}

// broadcastLeg splits a non-root member's broadcast charge into the hop that
// brings it the payload and the rest of the tree's depth.
func broadcastLeg(rt *locale.Runtime, root, dst, size int, bytes int64) (hop, rest float64) {
	hop = rt.S.BulkTime(bytes, rt.G.SameNode(root, dst))
	return hop, hop * (treeDepth(size) - 1)
}
