package pisa

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/txnwire"
)

// flatSwitch is the dense register file the sparse one replaced: one
// zero-initialised int64 per slot of the whole pipeline, flattened in
// [stage][array][slot] order, with the data-plane semantics applied
// serially. It is the differential oracle for the sparse storage: every
// read, write, replay, reset and snapshot must agree with it, and the
// sparse switch's WriteTo must emit exactly the bytes of this file.
type flatSwitch struct {
	cfg  Config
	regs []int64
}

func newFlatSwitch(cfg Config) *flatSwitch {
	return &flatSwitch{cfg: cfg, regs: make([]int64, cfg.Capacity())}
}

func (f *flatSwitch) slot(stage, array uint8, index uint32) int {
	if int(stage) >= f.cfg.Stages || int(array) >= f.cfg.ArraysPerStage || int(index) >= f.cfg.SlotsPerArray {
		panic("flat: register access out of range")
	}
	return (int(stage)*f.cfg.ArraysPerStage+int(array))*f.cfg.SlotsPerArray + int(index)
}

func (f *flatSwitch) read(stage, array uint8, index uint32) int64 {
	return f.regs[f.slot(stage, array, index)]
}

func (f *flatSwitch) write(stage, array uint8, index uint32, v int64) {
	f.regs[f.slot(stage, array, index)] = v
}

// applyTxn executes a transaction serially with a fresh packet context.
func (f *flatSwitch) applyTxn(instrs []txnwire.Instr) []txnwire.Result {
	acc, ok := int64(0), true
	out := make([]txnwire.Result, len(instrs))
	for i, in := range instrs {
		v := &f.regs[f.slot(in.Stage, in.Array, in.Index)]
		res := txnwire.Result{OK: true}
		switch in.Op {
		case txnwire.OpRead:
		case txnwire.OpWrite:
			*v = in.Operand
		case txnwire.OpAdd:
			*v += in.Operand
		case txnwire.OpCondAddGE0:
			if *v+in.Operand >= 0 {
				*v += in.Operand
			} else {
				ok, res.OK = false, false
			}
		case txnwire.OpMax:
			*v = max(*v, in.Operand)
		case txnwire.OpReadClear:
			res.Value = *v
			acc += *v
			*v = 0
			out[i] = res
			continue
		case txnwire.OpAddAcc:
			*v += acc + in.Operand
		case txnwire.OpAddIfOK:
			if ok {
				*v += in.Operand
			} else {
				res.OK = false
			}
		}
		res.Value = *v
		out[i] = res
	}
	return out
}

// stream is the dense digest byte stream: every slot, big-endian.
func (f *flatSwitch) stream() []byte {
	out := make([]byte, 0, 8*len(f.regs))
	for _, v := range f.regs {
		out = binary.BigEndian.AppendUint64(out, uint64(v))
	}
	return out
}

// image is the flat file cut into per-array slices (zero tails included).
func (f *flatSwitch) image() Image {
	n := f.cfg.SlotsPerArray
	img := make(Image, f.cfg.Stages*f.cfg.ArraysPerStage)
	for ai := range img {
		img[ai] = f.regs[ai*n : (ai+1)*n]
	}
	return img
}

// panics reports whether fn panicked.
func panics(fn func()) (p bool) {
	defer func() { p = recover() != nil }()
	fn()
	return false
}

// TestSparseSwitchMatchesFlatReference drives the sparse switch and the
// flat reference through one seeded random sequence of control-plane
// reads and writes, single- and multi-pass ExecK packets, ApplyTxn
// replays, Resets and Snapshot→Restore round trips, with indices at 0, at
// SlotsPerArray-1, just past an array's high-water mark and anywhere, and
// out-of-range coordinates that both must reject with a panic. After
// every step the zero-extended images must agree; at intervals the
// WriteTo byte stream must equal the flat file's.
func TestSparseSwitchMatchesFlatReference(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Stages, cfg.ArraysPerStage, cfg.SlotsPerArray = 4, 3, 600 // 4800-byte arrays: longer than WriteTo's zero buffer
	for seed := uint64(1); seed <= 4; seed++ {
		env := sim.NewEnv(seed)
		sw, ref := New(env, cfg), newFlatSwitch(cfg)
		rng := sim.NewRNG(seed * 7919)
		arrays := cfg.Stages * cfg.ArraysPerStage

		coord := func(ai int) (uint8, uint8) {
			return uint8(ai / cfg.ArraysPerStage), uint8(ai % cfg.ArraysPerStage)
		}
		index := func(ai int) uint32 {
			hwm := len(sw.regs[ai])
			switch rng.Intn(5) {
			case 0:
				return 0
			case 1:
				return uint32(cfg.SlotsPerArray - 1)
			case 2:
				return uint32(min(hwm+rng.Intn(3), cfg.SlotsPerArray-1)) // at or just past the mark
			case 3:
				return uint32(rng.Intn(max(hwm, 1)))
			default:
				return uint32(rng.Intn(cfg.SlotsPerArray))
			}
		}
		instr := func(ai int) txnwire.Instr {
			s, a := coord(ai)
			ops := []txnwire.Op{txnwire.OpRead, txnwire.OpWrite, txnwire.OpAdd, txnwire.OpCondAddGE0,
				txnwire.OpMax, txnwire.OpReadClear, txnwire.OpAddAcc, txnwire.OpAddIfOK}
			return txnwire.Instr{Op: ops[rng.Intn(len(ops))], Stage: s, Array: a, Index: index(ai), Operand: int64(rng.Intn(41) - 20)}
		}
		// singlePass draws instructions on strictly ascending arrays.
		singlePass := func() []txnwire.Instr {
			var out []txnwire.Instr
			for ai := 0; ai < arrays; ai++ {
				if rng.Bool(40) {
					out = append(out, instr(ai))
				}
			}
			if len(out) == 0 {
				out = append(out, instr(rng.Intn(arrays)))
			}
			return out
		}
		exec := func(pkt *txnwire.Packet) {
			var got []txnwire.Result
			sw.ExecK(pkt, func(r *txnwire.Response, err error) {
				if err != nil {
					t.Fatalf("seed %d: ExecK: %v", seed, err)
				}
				got = append(got, r.Results...)
			})
			env.Run()
			if want := ref.applyTxn(pkt.Instrs); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: ExecK results %+v, reference %+v", seed, got, want)
			}
		}

		var snap Image
		var refSnap []int64
		for step := 0; step < 2000; step++ {
			ai := rng.Intn(arrays)
			s, a := coord(ai)
			switch op := rng.Intn(100); {
			case op < 25:
				i, v := index(ai), int64(rng.Intn(1000)-500)
				if rng.Bool(20) {
					v = 0 // a zero write still claims the slot
				}
				sw.WriteRegister(s, a, i, v)
				ref.write(s, a, i, v)
			case op < 40:
				i := index(ai)
				if got, want := sw.ReadRegister(s, a, i), ref.read(s, a, i); got != want {
					t.Fatalf("seed %d step %d: ReadRegister(%d,%d,%d) = %d, reference %d", seed, step, s, a, i, got, want)
				}
			case op < 60:
				exec(&txnwire.Packet{Instrs: singlePass()})
			case op < 70:
				instrs := append(singlePass(), singlePass()...)
				if NumPasses(instrs) < 2 {
					instrs = append(instrs, instrs[0])
				}
				exec(&txnwire.Packet{Header: txnwire.Header{IsMultipass: true}, Instrs: instrs})
			case op < 80:
				instrs := append(singlePass(), singlePass()...)
				if got, want := sw.ApplyTxn(instrs), ref.applyTxn(instrs); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: ApplyTxn %+v, reference %+v", seed, step, got, want)
				}
			case op < 83:
				sw.Reset()
				clear(ref.regs)
			case op < 88:
				snap, refSnap = sw.Snapshot(), append([]int64(nil), ref.regs...)
			case op < 93:
				if snap != nil {
					sw.Restore(snap)
					copy(ref.regs, refSnap)
				}
			default:
				// Out of range in each coordinate: both must refuse.
				bad := [][3]int{{cfg.Stages, 0, 0}, {0, cfg.ArraysPerStage, 0}, {0, 0, cfg.SlotsPerArray}}[rng.Intn(3)]
				bs, ba, bi := uint8(bad[0]), uint8(bad[1]), uint32(bad[2])
				for name, fn := range map[string]func(){
					"ReadRegister":  func() { sw.ReadRegister(bs, ba, bi) },
					"WriteRegister": func() { sw.WriteRegister(bs, ba, bi, 1) },
					"ApplyTxn":      func() { sw.ApplyTxn([]txnwire.Instr{{Op: txnwire.OpAdd, Stage: bs, Array: ba, Index: bi, Operand: 1}}) },
					"ExecK": func() { // on a throwaway switch: the panic leaves its frame mid-pass
						e := sim.NewEnv(1)
						New(e, cfg).ExecK(&txnwire.Packet{Instrs: []txnwire.Instr{{Op: txnwire.OpRead, Stage: bs, Array: ba, Index: bi}}},
							func(*txnwire.Response, error) {})
						e.Run()
					},
				} {
					if !panics(fn) {
						t.Fatalf("seed %d step %d: %s(%d,%d,%d) did not panic", seed, step, name, bs, ba, bi)
					}
				}
				if !panics(func() { ref.read(bs, ba, bi) }) {
					t.Fatal("reference accepted an out-of-range coordinate")
				}
			}

			img := sw.Snapshot()
			for ai, vals := range img {
				if len(vals) != len(sw.regs[ai]) || cap(sw.regs[ai]) > cfg.SlotsPerArray {
					t.Fatalf("seed %d step %d: array %d snapshot holds %d slots (mark %d, capacity %d)", seed, step, ai, len(vals), len(sw.regs[ai]), cap(sw.regs[ai]))
				}
			}
			if ai, i, differ := img.Diff(ref.image()); differ {
				t.Fatalf("seed %d step %d: array %d slot %d = %d, reference %d", seed, step, ai, i, img.At(ai, i), ref.image().At(ai, i))
			}
			if step%250 == 0 {
				var buf bytes.Buffer
				n, err := sw.WriteTo(&buf)
				if err != nil || n != int64(buf.Len()) || !bytes.Equal(buf.Bytes(), ref.stream()) {
					t.Fatalf("seed %d step %d: WriteTo (%d bytes, %v) differs from the dense stream (%d bytes)", seed, step, n, err, len(ref.stream()))
				}
			}
		}
	}
}

// TestImageDiffZeroExtends: images of different lengths that agree after
// zero-extension are equal; the first real difference is reported at its
// (array, slot), whichever side is the shorter one.
func TestImageDiffZeroExtends(t *testing.T) {
	a := Image{{1, 0, 0}, nil, {0, 5}}
	b := Image{{1}, {0, 0}, {0, 5, 0, 0}, nil}
	if ai, i, differ := a.Diff(b); differ {
		t.Fatalf("zero-extended images differ at %d/%d", ai, i)
	}
	c := Image{{1}, nil, {0, 5, 0, 7}}
	for _, pair := range [][2]Image{{a, c}, {c, a}} {
		if ai, i, differ := pair[0].Diff(pair[1]); !differ || ai != 2 || i != 3 {
			t.Fatalf("Diff = (%d, %d, %v), want (2, 3, true)", ai, i, differ)
		}
	}
	if a.At(7, 0) != 0 || c.At(2, 3) != 7 {
		t.Fatal("At does not zero-extend")
	}
}
