package ir

import "repro/internal/isa"

// BlockBuilder provides a fluent instruction-emission API over a Block.
// It exists for hand-written IR: the soft-float runtime, the Figure 1 and
// Figure 2 micro-programs, and tests.
type BlockBuilder struct {
	blk *Block
}

// Build wraps a block in a builder.
func Build(b *Block) *BlockBuilder { return &BlockBuilder{blk: b} }

func (bb *BlockBuilder) emit(in isa.Instr) *BlockBuilder {
	bb.blk.Append(in)
	return bb
}

// Nop emits nop.
func (bb *BlockBuilder) Nop() *BlockBuilder {
	return bb.emit(isa.Instr{Op: isa.NOP})
}

// MovImm emits mov rd, #imm.
func (bb *BlockBuilder) MovImm(rd isa.Reg, imm int32) *BlockBuilder {
	return bb.emit(isa.Instr{Op: isa.MOV, Rd: rd, Imm: imm, HasImm: true})
}

// Mov emits mov rd, rm.
func (bb *BlockBuilder) Mov(rd, rm isa.Reg) *BlockBuilder {
	return bb.emit(isa.Instr{Op: isa.MOV, Rd: rd, Rm: rm})
}

// Op3 emits a three-register data-processing instruction.
func (bb *BlockBuilder) Op3(op isa.Op, rd, rn, rm isa.Reg) *BlockBuilder {
	return bb.emit(isa.Instr{Op: op, Rd: rd, Rn: rn, Rm: rm})
}

// OpImm emits op rd, rn, #imm.
func (bb *BlockBuilder) OpImm(op isa.Op, rd, rn isa.Reg, imm int32) *BlockBuilder {
	return bb.emit(isa.Instr{Op: op, Rd: rd, Rn: rn, Imm: imm, HasImm: true})
}

// Add emits add rd, rn, rm.
func (bb *BlockBuilder) Add(rd, rn, rm isa.Reg) *BlockBuilder {
	return bb.Op3(isa.ADD, rd, rn, rm)
}

// AddImm emits add rd, rn, #imm.
func (bb *BlockBuilder) AddImm(rd, rn isa.Reg, imm int32) *BlockBuilder {
	return bb.OpImm(isa.ADD, rd, rn, imm)
}

// Sub emits sub rd, rn, rm.
func (bb *BlockBuilder) Sub(rd, rn, rm isa.Reg) *BlockBuilder {
	return bb.Op3(isa.SUB, rd, rn, rm)
}

// SubImm emits sub rd, rn, #imm.
func (bb *BlockBuilder) SubImm(rd, rn isa.Reg, imm int32) *BlockBuilder {
	return bb.OpImm(isa.SUB, rd, rn, imm)
}

// Mul emits mul rd, rn, rm.
func (bb *BlockBuilder) Mul(rd, rn, rm isa.Reg) *BlockBuilder {
	return bb.Op3(isa.MUL, rd, rn, rm)
}

// CmpImm emits cmp rn, #imm.
func (bb *BlockBuilder) CmpImm(rn isa.Reg, imm int32) *BlockBuilder {
	return bb.emit(isa.Instr{Op: isa.CMP, Rn: rn, Imm: imm, HasImm: true})
}

// Cmp emits cmp rn, rm.
func (bb *BlockBuilder) Cmp(rn, rm isa.Reg) *BlockBuilder {
	return bb.emit(isa.Instr{Op: isa.CMP, Rn: rn, Rm: rm})
}

// Ldr emits ldr rd, [rn, #off].
func (bb *BlockBuilder) Ldr(rd, rn isa.Reg, off int32) *BlockBuilder {
	return bb.emit(isa.Instr{Op: isa.LDR, Rd: rd, Rn: rn, Mode: isa.AddrOffset, Imm: off})
}

// Str emits str rd, [rn, #off].
func (bb *BlockBuilder) Str(rd, rn isa.Reg, off int32) *BlockBuilder {
	return bb.emit(isa.Instr{Op: isa.STR, Rd: rd, Rn: rn, Mode: isa.AddrOffset, Imm: off})
}

// OpMem emits an arbitrary load/store with an immediate offset (for the
// byte/halfword variants the dedicated helpers do not cover).
func (bb *BlockBuilder) OpMem(op isa.Op, rd, rn isa.Reg, off int32) *BlockBuilder {
	return bb.emit(isa.Instr{Op: op, Rd: rd, Rn: rn, Mode: isa.AddrOffset, Imm: off})
}

// LdrLit emits ldr rd, =sym (address of a symbol via the literal pool).
func (bb *BlockBuilder) LdrLit(rd isa.Reg, sym string) *BlockBuilder {
	return bb.emit(isa.Instr{Op: isa.LDRLIT, Rd: rd, Sym: sym})
}

// LdrConst emits ldr rd, =const (a 32-bit constant via the literal pool).
func (bb *BlockBuilder) LdrConst(rd isa.Reg, c int32) *BlockBuilder {
	return bb.emit(isa.Instr{Op: isa.LDRLIT, Rd: rd, Imm: c, HasImm: true})
}

// B emits an unconditional branch to a label.
func (bb *BlockBuilder) B(label string) *BlockBuilder {
	return bb.emit(isa.Instr{Op: isa.B, Sym: label})
}

// Bcond emits b<cond> label.
func (bb *BlockBuilder) Bcond(cond isa.Cond, label string) *BlockBuilder {
	return bb.emit(isa.Instr{Op: isa.B, Cond: cond, Sym: label})
}

// Bl emits a direct call.
func (bb *BlockBuilder) Bl(fn string) *BlockBuilder {
	return bb.emit(isa.Instr{Op: isa.BL, Sym: fn})
}

// Blx emits an indirect call through a register.
func (bb *BlockBuilder) Blx(rm isa.Reg) *BlockBuilder {
	return bb.emit(isa.Instr{Op: isa.BLX, Rm: rm})
}

// Ret emits bx lr.
func (bb *BlockBuilder) Ret() *BlockBuilder {
	return bb.emit(isa.Instr{Op: isa.BX, Rm: isa.LR})
}

// Push emits push {regs...}.
func (bb *BlockBuilder) Push(regs ...isa.Reg) *BlockBuilder {
	var list uint16
	for _, r := range regs {
		list |= 1 << r
	}
	return bb.emit(isa.Instr{Op: isa.PUSH, RegList: list})
}

// Pop emits pop {regs...}.
func (bb *BlockBuilder) Pop(regs ...isa.Reg) *BlockBuilder {
	var list uint16
	for _, r := range regs {
		list |= 1 << r
	}
	return bb.emit(isa.Instr{Op: isa.POP, RegList: list})
}
