package mcc

import (
	"fmt"
	"strings"
)

// VReg is a virtual register.
type VReg int

// NoVReg marks an absent operand.
const NoVReg VReg = -1

// MOp is a mid-level IR operation.
type MOp int

// MIR operations. MJmp/MCmpBr/MRet are terminators and appear only as the
// last instruction of a block.
const (
	MConst MOp = iota // Dst = Imm
	MMov              // Dst = A
	MAdd              // Dst = A + B
	MSub              // Dst = A - B
	MMul              // Dst = A * B
	MSDiv             // Dst = A / B (signed)
	MUDiv             // Dst = A / B (unsigned)
	MSRem             // Dst = A % B (signed)
	MURem             // Dst = A % B (unsigned)
	MAnd              // Dst = A & B
	MOr               // Dst = A | B
	MXor              // Dst = A ^ B
	MShl              // Dst = A << B
	MShr              // Dst = A >> B (logical)
	MSar              // Dst = A >> B (arithmetic)
	MNeg              // Dst = -A
	MNot              // Dst = ^A
	MSetCC            // Dst = (A cc B) ? 1 : 0
	MExt              // Dst = extend(A, Width, Signed): value normalization
	MLoad             // Dst = mem[A] (Width, Signed)
	MStore            // mem[A] = B (Width)
	MAddrG            // Dst = &Sym (global, function)
	MAddrL            // Dst = &slot[Imm] (local stack object)
	MCall             // Dst = Sym(Args...); Dst may be NoVReg
	MJmp              // goto L1
	MCmpBr            // if (A cc B) goto L1 else goto L2
	MRet              // return A (or nothing when A == NoVReg)
)

var mopNames = [...]string{
	MConst: "const", MMov: "mov", MAdd: "add", MSub: "sub", MMul: "mul",
	MSDiv: "sdiv", MUDiv: "udiv", MSRem: "srem", MURem: "urem",
	MAnd: "and", MOr: "or", MXor: "xor", MShl: "shl", MShr: "shr",
	MSar: "sar", MNeg: "neg", MNot: "not", MSetCC: "setcc", MExt: "ext",
	MLoad: "load", MStore: "store", MAddrG: "addrg", MAddrL: "addrl",
	MCall: "call", MJmp: "jmp", MCmpBr: "cmpbr", MRet: "ret",
}

func (op MOp) String() string {
	if int(op) < len(mopNames) {
		return mopNames[op]
	}
	return fmt.Sprintf("mop(%d)", int(op))
}

// CC is a comparison condition for MSetCC/MCmpBr.
type CC int

// Comparison conditions. Signedness is encoded in the condition, matching
// the ARM flags the comparison will use.
const (
	CCEq CC = iota
	CCNe
	CCLt  // signed <
	CCLe  // signed <=
	CCGt  // signed >
	CCGe  // signed >=
	CCULt // unsigned <
	CCULe // unsigned <=
	CCUGt // unsigned >
	CCUGe // unsigned >=
)

var ccNames = [...]string{
	CCEq: "eq", CCNe: "ne", CCLt: "lt", CCLe: "le", CCGt: "gt",
	CCGe: "ge", CCULt: "ult", CCULe: "ule", CCUGt: "ugt", CCUGe: "uge",
}

func (c CC) String() string {
	if int(c) < len(ccNames) {
		return ccNames[c]
	}
	return "cc(?)"
}

// Invert returns the negated condition.
func (c CC) Invert() CC {
	switch c {
	case CCEq:
		return CCNe
	case CCNe:
		return CCEq
	case CCLt:
		return CCGe
	case CCLe:
		return CCGt
	case CCGt:
		return CCLe
	case CCGe:
		return CCLt
	case CCULt:
		return CCUGe
	case CCULe:
		return CCUGt
	case CCUGt:
		return CCULe
	case CCUGe:
		return CCULt
	}
	panic("mcc: bad cc")
}

// Eval applies the condition to two 32-bit values.
func (c CC) Eval(a, b uint32) bool {
	sa, sb := int32(a), int32(b)
	switch c {
	case CCEq:
		return a == b
	case CCNe:
		return a != b
	case CCLt:
		return sa < sb
	case CCLe:
		return sa <= sb
	case CCGt:
		return sa > sb
	case CCGe:
		return sa >= sb
	case CCULt:
		return a < b
	case CCULe:
		return a <= b
	case CCUGt:
		return a > b
	case CCUGe:
		return a >= b
	}
	panic("mcc: bad cc")
}

// MIns is one MIR instruction.
type MIns struct {
	Op     MOp
	Dst    VReg
	A, B   VReg
	Imm    int32
	Sym    string
	Width  int  // 1, 2 or 4 for MLoad/MStore/MExt
	Signed bool // for MLoad/MExt
	CC     CC
	Args   []VReg
	L1, L2 string
}

// IsTerm reports terminator instructions.
func (in *MIns) IsTerm() bool {
	return in.Op == MJmp || in.Op == MCmpBr || in.Op == MRet
}

// Uses returns the vregs read by the instruction.
func (in *MIns) Uses() []VReg {
	return in.appendUses(nil)
}

// appendUses appends the vregs read by the instruction to out, so hot
// loops can reuse one buffer.
func (in *MIns) appendUses(out []VReg) []VReg {
	add := func(v VReg) {
		if v != NoVReg {
			out = append(out, v)
		}
	}
	switch in.Op {
	case MConst, MAddrG, MAddrL, MJmp:
	case MCall:
		for _, a := range in.Args {
			add(a)
		}
	case MStore:
		add(in.A)
		add(in.B)
	case MRet:
		add(in.A)
	default:
		add(in.A)
		add(in.B)
	}
	return out
}

// Def returns the vreg written, or NoVReg.
func (in *MIns) Def() VReg {
	switch in.Op {
	case MStore, MJmp, MCmpBr, MRet:
		return NoVReg
	}
	return in.Dst
}

// Pure reports instructions with no side effects (removable when dead).
func (in *MIns) Pure() bool {
	switch in.Op {
	case MStore, MCall, MJmp, MCmpBr, MRet:
		return false
	}
	return true
}

func (in *MIns) String() string {
	v := func(r VReg) string {
		if r == NoVReg {
			return "_"
		}
		return fmt.Sprintf("v%d", r)
	}
	switch in.Op {
	case MConst:
		return fmt.Sprintf("%s = const %d", v(in.Dst), in.Imm)
	case MMov, MNeg, MNot:
		return fmt.Sprintf("%s = %s %s", v(in.Dst), in.Op, v(in.A))
	case MExt:
		sign := "u"
		if in.Signed {
			sign = "s"
		}
		return fmt.Sprintf("%s = ext%s%d %s", v(in.Dst), sign, in.Width, v(in.A))
	case MSetCC:
		return fmt.Sprintf("%s = %s %s %s", v(in.Dst), v(in.A), in.CC, v(in.B))
	case MLoad:
		return fmt.Sprintf("%s = load%d [%s]", v(in.Dst), in.Width, v(in.A))
	case MStore:
		return fmt.Sprintf("store%d [%s] = %s", in.Width, v(in.A), v(in.B))
	case MAddrG:
		return fmt.Sprintf("%s = &%s", v(in.Dst), in.Sym)
	case MAddrL:
		return fmt.Sprintf("%s = &slot%d", v(in.Dst), in.Imm)
	case MCall:
		var args []string
		for _, a := range in.Args {
			args = append(args, v(a))
		}
		return fmt.Sprintf("%s = call %s(%s)", v(in.Dst), in.Sym, strings.Join(args, ", "))
	case MJmp:
		return "jmp " + in.L1
	case MCmpBr:
		return fmt.Sprintf("if %s %s %s goto %s else %s", v(in.A), in.CC, v(in.B), in.L1, in.L2)
	case MRet:
		if in.A == NoVReg {
			return "ret"
		}
		return "ret " + v(in.A)
	default:
		return fmt.Sprintf("%s = %s %s, %s", v(in.Dst), in.Op, v(in.A), v(in.B))
	}
}

// MBlock is a MIR basic block; the last instruction is its terminator.
type MBlock struct {
	Label string
	Ins   []MIns
}

// Term returns the block terminator.
func (b *MBlock) Term() *MIns {
	if len(b.Ins) == 0 {
		return nil
	}
	last := &b.Ins[len(b.Ins)-1]
	if last.IsTerm() {
		return last
	}
	return nil
}

// MFunc is a function in MIR.
type MFunc struct {
	Name     string
	NumParam int
	HasRet   bool
	Blocks   []*MBlock
	NumVRegs int
	// SlotSizes are the byte sizes of addressable stack objects.
	SlotSizes []int
	// ParamRegs[i] is the vreg holding parameter i on entry.
	ParamRegs []VReg
}

// Block returns the block with the given label, or nil.
func (f *MFunc) Block(label string) *MBlock {
	for _, b := range f.Blocks {
		if b.Label == label {
			return b
		}
	}
	return nil
}

// Succs returns the labels a block can branch to.
func (b *MBlock) Succs() []string {
	t := b.Term()
	if t == nil {
		return nil
	}
	switch t.Op {
	case MJmp:
		return []string{t.L1}
	case MCmpBr:
		return []string{t.L1, t.L2}
	}
	return nil
}

func (f *MFunc) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s (%d params, %d vregs)\n", f.Name, f.NumParam, f.NumVRegs)
	for _, b := range f.Blocks {
		fmt.Fprintf(&sb, "%s:\n", b.Label)
		for i := range b.Ins {
			fmt.Fprintf(&sb, "  %s\n", b.Ins[i].String())
		}
	}
	return sb.String()
}

// MProgram is a lowered translation unit.
type MProgram struct {
	Funcs   []*MFunc
	Globals []*VarDecl
	// FloatCalled records which soft-float runtime routines are used.
	FloatCalled map[string]bool
}

// Func returns the function with the given name, or nil.
func (p *MProgram) Func(name string) *MFunc {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Verify checks MIR structural invariants: every block ends in exactly one
// terminator, branch targets resolve, operands are in range.
func (p *MProgram) Verify() error {
	for _, f := range p.Funcs {
		labels := map[string]bool{}
		for _, b := range f.Blocks {
			if labels[b.Label] {
				return fmt.Errorf("mir: %s: duplicate label %s", f.Name, b.Label)
			}
			labels[b.Label] = true
		}
		for _, b := range f.Blocks {
			if b.Term() == nil {
				return fmt.Errorf("mir: %s/%s: missing terminator", f.Name, b.Label)
			}
			for i := range b.Ins {
				in := &b.Ins[i]
				if in.IsTerm() && i != len(b.Ins)-1 {
					return fmt.Errorf("mir: %s/%s: terminator not last", f.Name, b.Label)
				}
				for _, u := range in.Uses() {
					if int(u) >= f.NumVRegs {
						return fmt.Errorf("mir: %s/%s: vreg v%d out of range", f.Name, b.Label, u)
					}
				}
				for _, l := range []string{in.L1, in.L2} {
					if l != "" && (in.Op == MJmp || in.Op == MCmpBr) && !labels[l] {
						return fmt.Errorf("mir: %s/%s: branch to unknown %q", f.Name, b.Label, l)
					}
				}
			}
		}
	}
	return nil
}
