package pisa

import "repro/internal/txnwire"

// arrayPos linearizes a (stage, array) coordinate for ordering.
func arrayPos(in txnwire.Instr) int {
	return int(in.Stage)<<8 | int(in.Array)
}

// passEnd returns the end (exclusive) of the pipeline pass that begins at
// instrs[start], under the switch memory model (Section 4.1):
//
//   - within one pass, register-array positions must be strictly
//     increasing in (stage, array) order — the pipeline flows forward and
//     each stateful ALU fires at most once per packet;
//   - an instruction whose position is not after the previous one starts a
//     new pass (the packet recirculates and comes around again).
//
// The instruction ORDER is preserved: operations may depend on each other
// (e.g. a read feeding a later write), so pass boundaries are only ever
// inserted greedily, never moved. A sequence already laid out by the
// declustering algorithm in ascending stage order therefore is one pass.
func passEnd(instrs []txnwire.Instr, start int) int {
	last := -1
	i := start
	for ; i < len(instrs); i++ {
		pos := arrayPos(instrs[i])
		if pos <= last {
			break
		}
		last = pos
	}
	return i
}

// SplitPasses partitions an instruction sequence into the pipeline passes
// the switch memory model requires (see passEnd). The switch itself walks
// the boundaries on the fly; this materialized form serves tests and tools.
func SplitPasses(instrs []txnwire.Instr) [][]txnwire.Instr {
	var passes [][]txnwire.Instr
	for start := 0; start < len(instrs); {
		end := passEnd(instrs, start)
		passes = append(passes, instrs[start:end])
		start = end
	}
	return passes
}

// NumPasses returns how many pipeline passes the instruction sequence
// needs; 1 means the transaction is single-pass.
func NumPasses(instrs []txnwire.Instr) int {
	n := 0
	for start := 0; start < len(instrs); start = passEnd(instrs, start) {
		n++
	}
	return n
}
