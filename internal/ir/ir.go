// Package ir defines the assembly-level intermediate representation the
// whole toolchain operates on: a Program of Functions made of Blocks of
// isa.Instr. This is the level at which the paper's optimization runs —
// after code generation, just before layout ("the actual transformation
// itself happens at the very end of compilation", §5).
package ir

import (
	"fmt"
	"strings"

	"repro/internal/isa"
)

// Program is a whole embedded application: functions plus global data.
type Program struct {
	Funcs   []*Function
	Globals []*Global
	Entry   string // name of the entry function (usually "main")
}

// Global is a data object. Writable globals live in RAM (copied from flash
// at startup by the runtime, like .data); read-only globals stay in flash
// (.rodata), which is why RAM-resident code touching them still pays flash
// power (the last bar of Figure 1).
type Global struct {
	Name string
	Size int    // total size in bytes
	Init []byte // initial contents; nil or short means zero-filled (.bss)
	RO   bool   // read-only: placed in flash, never copied to RAM
}

// Function is a unit of code.
type Function struct {
	Name   string
	Blocks []*Block

	// Library marks functions statically linked in after the optimizer
	// runs (soft-float routines, compiler intrinsics). The paper's §6
	// explains that such code is invisible to the optimization pass and
	// can never be placed in RAM; we reproduce that restriction.
	Library bool
}

// Block is a basic block: straight-line code where control enters only at
// the top and leaves only at the bottom. A block may end in a branch; if
// its last instruction is not an unconditional control transfer, execution
// falls through to the next block in Function.Blocks order.
type Block struct {
	Label  string
	Instrs []isa.Instr

	Func  *Function // owning function
	Index int       // position within Func.Blocks
}

// NewProgram returns an empty program with the conventional entry name.
func NewProgram() *Program {
	return &Program{Entry: "main"}
}

// Func returns the function with the given name, or nil.
func (p *Program) Func(name string) *Function {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Global returns the global with the given name, or nil.
func (p *Program) Global(name string) *Global {
	for _, g := range p.Globals {
		if g.Name == name {
			return g
		}
	}
	return nil
}

// AddFunc appends a function and returns it.
func (p *Program) AddFunc(f *Function) *Function {
	p.Funcs = append(p.Funcs, f)
	return f
}

// AddGlobal appends a global and returns it.
func (p *Program) AddGlobal(g *Global) *Global {
	p.Globals = append(p.Globals, g)
	return g
}

// BlockByLabel finds a block anywhere in the program by its (unique) label.
func (p *Program) BlockByLabel(label string) *Block {
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			if b.Label == label {
				return b
			}
		}
	}
	return nil
}

// Reindex refreshes every block's Func/Index back-pointers. Call after any
// structural edit to Blocks slices.
func (p *Program) Reindex() {
	for _, f := range p.Funcs {
		for i, b := range f.Blocks {
			b.Func = f
			b.Index = i
		}
	}
}

// NumBlocks counts basic blocks across all functions.
func (p *Program) NumBlocks() int {
	n := 0
	for _, f := range p.Funcs {
		n += len(f.Blocks)
	}
	return n
}

// AddBlock appends a new empty block with the given label and returns it.
func (f *Function) AddBlock(label string) *Block {
	b := &Block{Label: label, Func: f, Index: len(f.Blocks)}
	f.Blocks = append(f.Blocks, b)
	return b
}

// Entry returns the function's entry block (the first one), or nil.
func (f *Function) Entry() *Block {
	if len(f.Blocks) == 0 {
		return nil
	}
	return f.Blocks[0]
}

// Block returns the block with the given label within the function, or nil.
func (f *Function) Block(label string) *Block {
	for _, b := range f.Blocks {
		if b.Label == label {
			return b
		}
	}
	return nil
}

// Append adds an instruction to the block.
func (b *Block) Append(in isa.Instr) { b.Instrs = append(b.Instrs, in) }

// Terminator returns the block's final instruction if it is a control
// transfer, or nil if the block falls through (or is empty).
func (b *Block) Terminator() *isa.Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	last := &b.Instrs[len(b.Instrs)-1]
	if isControlTransfer(last) {
		return last
	}
	return nil
}

// isControlTransfer reports whether the instruction redirects the PC
// (excluding calls, which return to the next instruction).
func isControlTransfer(in *isa.Instr) bool {
	switch in.Op {
	case isa.B, isa.BX:
		return true
	case isa.LDRLIT:
		return in.Rd == isa.PC
	case isa.POP:
		return in.RegList&(1<<isa.PC) != 0
	}
	return false
}

// FallsThrough reports whether execution can continue into the next block
// in layout order: the block is empty, ends in a non-branch, ends in a
// conditional branch, or ends in a call.
func (b *Block) FallsThrough() bool {
	t := b.Terminator()
	if t == nil {
		return true
	}
	return t.Op == isa.B && t.Cond != isa.AL // not b, bx, ldr pc or pop {pc}
}

// IsReturn reports whether the block ends the function (bx lr or pop{..,pc}).
func (b *Block) IsReturn() bool {
	t := b.Terminator()
	if t == nil {
		return false
	}
	switch t.Op {
	case isa.BX:
		return t.Rm == isa.LR
	case isa.POP:
		return t.RegList&(1<<isa.PC) != 0
	}
	return false
}

// Size returns the block's code size in bytes, excluding literal pools.
func (b *Block) Size() int {
	n := 0
	for i := range b.Instrs {
		n += isa.Size(&b.Instrs[i])
	}
	return n
}

// SizeWithLiterals returns code size plus the literal-pool words the
// block's ldr =sym instructions require. This is the Sb the model uses: a
// block moved to RAM drags its literals with it.
func (b *Block) SizeWithLiterals() int {
	n := 0
	for i := range b.Instrs {
		n += isa.Size(&b.Instrs[i]) + isa.LiteralBytes(&b.Instrs[i])
	}
	return n
}

// Calls returns the callee names of all direct calls in the block.
func (b *Block) Calls() []string {
	var out []string
	for i := range b.Instrs {
		if b.Instrs[i].Op == isa.BL {
			out = append(out, b.Instrs[i].Sym)
		}
	}
	return out
}

// String renders the block as assembly text.
func (b *Block) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s:\n", b.Label)
	for i := range b.Instrs {
		fmt.Fprintf(&sb, "\t%s\n", b.Instrs[i].String())
	}
	return sb.String()
}

// String renders the function as assembly text.
func (f *Function) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s:\n", f.Name)
	for _, b := range f.Blocks {
		sb.WriteString(b.String())
	}
	return sb.String()
}

// String renders the whole program as assembly text.
func (p *Program) String() string {
	var sb strings.Builder
	for _, f := range p.Funcs {
		sb.WriteString(f.String())
		sb.WriteString("\n")
	}
	for _, g := range p.Globals {
		kind := "data"
		if g.RO {
			kind = "rodata"
		}
		fmt.Fprintf(&sb, "%s: .%s %d bytes\n", g.Name, kind, g.Size)
	}
	return sb.String()
}

// Clone deep-copies the program (blocks, instructions, globals) so a
// transformation can run without touching the baseline.
func (p *Program) Clone() *Program {
	q := &Program{Entry: p.Entry}
	for _, f := range p.Funcs {
		nf := &Function{Name: f.Name, Library: f.Library}
		for _, b := range f.Blocks {
			nb := &Block{Label: b.Label, Func: nf, Index: b.Index}
			nb.Instrs = append([]isa.Instr(nil), b.Instrs...)
			nf.Blocks = append(nf.Blocks, nb)
		}
		q.Funcs = append(q.Funcs, nf)
	}
	for _, g := range p.Globals {
		ng := &Global{Name: g.Name, Size: g.Size, RO: g.RO}
		ng.Init = append([]byte(nil), g.Init...)
		q.Globals = append(q.Globals, ng)
	}
	return q
}
