package sim

import (
	"fmt"
	"slices"
	"testing"

	"multipass/internal/compile"
	"multipass/internal/isa"
	"multipass/internal/workload"
	"multipass/internal/xcheck/progen"
)

// flatOf returns the flat indices of regs that are not hardwired (r0, p0),
// in order, skipping any equal to skip.
func flatOf(regs []isa.Reg, skip isa.Reg, skipOn bool) []int16 {
	out := []int16{}
	for _, r := range regs {
		if r.IsZeroReg() || skipOn && r == skip {
			continue
		}
		out = append(out, int16(r.Flat()))
	}
	return out
}

// checkOperands fails unless every entry of p's operand table equals what
// isa.Inst.Reads/Writes and the isa.Op methods give for its instruction,
// after the filter StaticInst documents.
func checkOperands(t *testing.T, name string, p *isa.Program) {
	t.Helper()
	ops := NewOperands(p)
	if len(ops) != len(p.Insts) {
		t.Fatalf("%s: %d entries for %d instructions", name, len(ops), len(p.Insts))
	}
	for i := range p.Insts {
		in, s := &p.Insts[i], &ops[i]
		where := fmt.Sprintf("%s inst %d (%s, qp %v dst %v dst2 %v src1 %v src2 %v)", name, i, in.Op, in.QP, in.Dst, in.Dst2, in.Src1, in.Src2)
		wantQP := int16(-1)
		if !in.QP.IsNone() && !in.QP.IsZeroReg() {
			wantQP = int16(in.QP.Flat())
		}
		reads, writes := in.Reads(nil), in.Writes(nil)
		for _, c := range []struct {
			what      string
			got, want []int16
		}{
			{"QP", []int16{s.QP}, []int16{wantQP}},
			{"Srcs", s.Srcs(), flatOf(reads, in.QP, true)},
			{"Reads", s.Reads(), flatOf(reads, isa.None, false)},
			{"Dsts", s.Dsts(), flatOf(writes, isa.None, false)},
		} {
			if !slices.Equal(c.got, c.want) {
				t.Fatalf("%s: %s = %v, want %v", where, c.what, c.got, c.want)
			}
		}
		if s.Addr != isa.InstAddr(i) || int(s.Lat) != in.Op.Latency() || s.FU != in.Op.FU() || s.Kind != in.Op.Kind() {
			t.Fatalf("%s: addr %#x lat %d fu %v kind %v, want %#x %d %v %v", where,
				s.Addr, s.Lat, s.FU, s.Kind, isa.InstAddr(i), in.Op.Latency(), in.Op.FU(), in.Op.Kind())
		}
		if s.IsLoad() != in.Op.IsLoad() || s.IsStore() != in.Op.IsStore() || s.IsBranch() != in.Op.IsBranch() {
			t.Fatalf("%s: load/store/branch %v %v %v", where, s.IsLoad(), s.IsStore(), s.IsBranch())
		}
	}
}

// TestOperandsMatchInst checks the operand table against the instructions
// it decodes: every opcode with every combination of operands drawn from
// each register class (r0, p0 and the absent register among them, and
// sources equal to the qualifying predicate), the 12 kernels, and generated
// programs.
func TestOperandsMatchInst(t *testing.T) {
	pool := []isa.Reg{isa.None, isa.R0, isa.IntReg(7), isa.FPReg(0), isa.FPReg(9), isa.P0, isa.PredReg(5)}
	for op := isa.Op(0); int(op) < isa.NumOps; op++ {
		var p isa.Program
		for _, qp := range pool {
			for _, dst := range pool {
				for _, dst2 := range pool {
					for _, src1 := range pool {
						for _, src2 := range pool {
							p.Insts = append(p.Insts, isa.Inst{Op: op, QP: qp, Dst: dst, Dst2: dst2, Src1: src1, Src2: src2})
						}
					}
				}
			}
		}
		checkOperands(t, op.String(), &p)
	}
	for _, w := range workload.All() {
		p, _, err := workload.Program(w, 1, compile.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		checkOperands(t, w.Name, p)
	}
	for seed := uint64(1); seed <= 200; seed++ {
		checkOperands(t, fmt.Sprintf("progen seed %d", seed), progen.MustGenerate(progen.ForSeed(seed)))
	}
}
