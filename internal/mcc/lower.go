package mcc

import "fmt"

// Soft-float runtime routine names (AEABI style). These are provided by
// internal/softfloat as library functions the placement optimizer cannot
// see — reproducing the paper's statically-linked-libgcc limitation.
const (
	FnFAdd   = "__aeabi_fadd"
	FnFSub   = "__aeabi_fsub"
	FnFMul   = "__aeabi_fmul"
	FnFDiv   = "__aeabi_fdiv"
	FnI2F    = "__aeabi_i2f"
	FnUI2F   = "__aeabi_ui2f"
	FnF2IZ   = "__aeabi_f2iz"
	FnFCmpEq = "__aeabi_fcmpeq"
	FnFCmpLt = "__aeabi_fcmplt"
	FnFCmpLe = "__aeabi_fcmple"
)

// lowerer translates one checked function to MIR.
type lowerer struct {
	prog *MProgram
	fn   *MFunc

	cur *MBlock

	// locals maps symbols to their storage.
	vregOf map[*Symbol]VReg
	slotOf map[*Symbol]int

	addrTaken map[*Symbol]bool

	breakLbl    []string
	continueLbl []string
	labelSeq    int
}

// Lower translates the whole checked program to MIR.
func Lower(src *SourceProgram) (*MProgram, error) {
	mp := &MProgram{FloatCalled: map[string]bool{}}
	mp.Globals = src.Globals
	for _, f := range src.Funcs {
		if f.Body == nil {
			continue
		}
		lf, err := lowerFunc(mp, f)
		if err != nil {
			return nil, err
		}
		mp.Funcs = append(mp.Funcs, lf)
	}
	if err := mp.Verify(); err != nil {
		return nil, err
	}
	return mp, nil
}

func lowerFunc(mp *MProgram, f *FuncDecl) (*MFunc, error) {
	lw := &lowerer{
		prog: mp,
		fn: &MFunc{
			Name:     f.Name,
			NumParam: len(f.Params),
			HasRet:   f.Ret.Kind != TVoid,
		},
		vregOf:    map[*Symbol]VReg{},
		slotOf:    map[*Symbol]int{},
		addrTaken: map[*Symbol]bool{},
	}
	collectAddrTaken(f.Body, lw.addrTaken)

	entry := lw.newBlock("entry")
	lw.cur = entry

	for _, p := range f.Params {
		v := lw.newVReg()
		lw.fn.ParamRegs = append(lw.fn.ParamRegs, v)
		if lw.addrTaken[p.Sym] {
			slot := lw.newSlot(4)
			lw.slotOf[p.Sym] = slot
			addr := lw.newVReg()
			lw.emit(MIns{Op: MAddrL, Dst: addr, Imm: int32(slot)})
			lw.emit(MIns{Op: MStore, A: addr, B: v, Width: 4})
		} else {
			lw.vregOf[p.Sym] = v
		}
	}

	if err := lw.stmt(f.Body); err != nil {
		return nil, err
	}
	// Implicit return at the end.
	if lw.cur != nil && lw.cur.Term() == nil {
		if lw.fn.HasRet {
			z := lw.constV(0)
			lw.emit(MIns{Op: MRet, A: z})
		} else {
			lw.emit(MIns{Op: MRet, A: NoVReg})
		}
	}
	pruneUnreachable(lw.fn)
	return lw.fn, nil
}

// pruneUnreachable drops blocks not reachable from the entry (created by
// code after return/break/continue) and reports whether it dropped any.
func pruneUnreachable(f *MFunc) bool {
	if len(f.Blocks) == 0 {
		return false
	}
	byLabel := map[string]*MBlock{}
	for _, b := range f.Blocks {
		byLabel[b.Label] = b
	}
	seen := map[*MBlock]bool{f.Blocks[0]: true}
	work := []*MBlock{f.Blocks[0]}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range b.Succs() {
			t := byLabel[s]
			if t != nil && !seen[t] {
				seen[t] = true
				work = append(work, t)
			}
		}
	}
	if len(seen) == len(f.Blocks) {
		return false
	}
	var kept []*MBlock
	for _, b := range f.Blocks {
		if seen[b] {
			kept = append(kept, b)
		}
	}
	f.Blocks = kept
	return true
}

func collectAddrTaken(s Stmt, out map[*Symbol]bool) {
	var walkExpr func(Expr)
	walkExpr = func(e Expr) {
		switch x := e.(type) {
		case *Unary:
			if x.Op == "&" {
				if v, ok := x.X.(*VarRef); ok {
					out[v.Sym] = true
				}
			}
			walkExpr(x.X)
		case *Binary:
			walkExpr(x.L)
			walkExpr(x.R)
		case *Assign:
			walkExpr(x.L)
			walkExpr(x.R)
		case *Cond:
			walkExpr(x.C)
			walkExpr(x.A)
			walkExpr(x.B)
		case *Call:
			for _, a := range x.Args {
				walkExpr(a)
			}
		case *Index:
			walkExpr(x.Arr)
			walkExpr(x.Idx)
		case *Cast:
			walkExpr(x.X)
		}
	}
	var walk func(Stmt)
	walk = func(s Stmt) {
		switch st := s.(type) {
		case *Block:
			for _, t := range st.Stmts {
				walk(t)
			}
		case *ExprStmt:
			walkExpr(st.X)
		case *DeclStmt:
			for _, d := range st.Decls {
				if d.Init != nil {
					walkExpr(d.Init)
				}
			}
		case *If:
			walkExpr(st.Cond)
			walk(st.Then)
			if st.Else != nil {
				walk(st.Else)
			}
		case *While:
			walkExpr(st.Cond)
			walk(st.Body)
		case *DoWhile:
			walk(st.Body)
			walkExpr(st.Cond)
		case *For:
			if st.Init != nil {
				walk(st.Init)
			}
			if st.Cond != nil {
				walkExpr(st.Cond)
			}
			if st.Post != nil {
				walkExpr(st.Post)
			}
			walk(st.Body)
		case *Return:
			if st.X != nil {
				walkExpr(st.X)
			}
		}
	}
	walk(s)
}

func (lw *lowerer) newVReg() VReg {
	v := VReg(lw.fn.NumVRegs)
	lw.fn.NumVRegs++
	return v
}

func (lw *lowerer) newSlot(size int) int {
	lw.fn.SlotSizes = append(lw.fn.SlotSizes, size)
	return len(lw.fn.SlotSizes) - 1
}

func (lw *lowerer) newBlock(hint string) *MBlock {
	lbl := fmt.Sprintf("%s_%s%d", lw.fn.Name, hint, lw.labelSeq)
	lw.labelSeq++
	b := &MBlock{Label: lbl}
	lw.fn.Blocks = append(lw.fn.Blocks, b)
	return b
}

func (lw *lowerer) emit(in MIns) {
	lw.cur.Ins = append(lw.cur.Ins, in)
}

func (lw *lowerer) constV(v int32) VReg {
	d := lw.newVReg()
	lw.emit(MIns{Op: MConst, Dst: d, Imm: v})
	return d
}

// setCur switches emission to a block, adding a jump from the previous
// block when it lacks a terminator.
func (lw *lowerer) seal(next *MBlock) {
	if lw.cur != nil && lw.cur.Term() == nil {
		lw.emit(MIns{Op: MJmp, L1: next.Label})
	}
	lw.cur = next
}

// ---- statements ----

func (lw *lowerer) stmt(s Stmt) error {
	switch st := s.(type) {
	case *Block:
		for _, t := range st.Stmts {
			if err := lw.stmt(t); err != nil {
				return err
			}
		}
		return nil
	case *ExprStmt:
		_, err := lw.expr(st.X)
		return err
	case *DeclStmt:
		for _, d := range st.Decls {
			if err := lw.localDecl(d); err != nil {
				return err
			}
		}
		return nil
	case *If:
		thenB := lw.newBlock("then")
		endB := lw.newBlock("endif")
		elseB := endB
		if st.Else != nil {
			elseB = lw.newBlock("else")
		}
		if err := lw.cond(st.Cond, thenB.Label, elseB.Label); err != nil {
			return err
		}
		lw.cur = thenB
		if err := lw.stmt(st.Then); err != nil {
			return err
		}
		lw.seal(endB)
		if st.Else != nil {
			lw.cur = elseB
			if err := lw.stmt(st.Else); err != nil {
				return err
			}
			lw.seal(endB)
		}
		lw.cur = endB
		return nil
	case *While:
		head := lw.newBlock("while")
		body := lw.newBlock("body")
		end := lw.newBlock("endwhile")
		lw.seal(head)
		if err := lw.cond(st.Cond, body.Label, end.Label); err != nil {
			return err
		}
		lw.cur = body
		lw.breakLbl = append(lw.breakLbl, end.Label)
		lw.continueLbl = append(lw.continueLbl, head.Label)
		err := lw.stmt(st.Body)
		lw.breakLbl = lw.breakLbl[:len(lw.breakLbl)-1]
		lw.continueLbl = lw.continueLbl[:len(lw.continueLbl)-1]
		if err != nil {
			return err
		}
		lw.seal(head)
		lw.fn.Blocks = moveBlockAfter(lw.fn.Blocks, end)
		lw.cur = end
		return nil
	case *DoWhile:
		body := lw.newBlock("do")
		end := lw.newBlock("enddo")
		lw.seal(body)
		lw.breakLbl = append(lw.breakLbl, end.Label)
		lw.continueLbl = append(lw.continueLbl, body.Label)
		err := lw.stmt(st.Body)
		lw.breakLbl = lw.breakLbl[:len(lw.breakLbl)-1]
		lw.continueLbl = lw.continueLbl[:len(lw.continueLbl)-1]
		if err != nil {
			return err
		}
		if lw.cur.Term() == nil {
			if err := lw.cond(st.Cond, body.Label, end.Label); err != nil {
				return err
			}
		}
		lw.fn.Blocks = moveBlockAfter(lw.fn.Blocks, end)
		lw.cur = end
		return nil
	case *For:
		if st.Init != nil {
			if err := lw.stmt(st.Init); err != nil {
				return err
			}
		}
		head := lw.newBlock("for")
		body := lw.newBlock("body")
		post := lw.newBlock("post")
		end := lw.newBlock("endfor")
		lw.seal(head)
		if st.Cond != nil {
			if err := lw.cond(st.Cond, body.Label, end.Label); err != nil {
				return err
			}
		} else {
			lw.emit(MIns{Op: MJmp, L1: body.Label})
		}
		lw.cur = body
		lw.breakLbl = append(lw.breakLbl, end.Label)
		lw.continueLbl = append(lw.continueLbl, post.Label)
		err := lw.stmt(st.Body)
		lw.breakLbl = lw.breakLbl[:len(lw.breakLbl)-1]
		lw.continueLbl = lw.continueLbl[:len(lw.continueLbl)-1]
		if err != nil {
			return err
		}
		lw.seal(post)
		lw.cur = post
		if st.Post != nil {
			if _, err := lw.expr(st.Post); err != nil {
				return err
			}
		}
		lw.emit(MIns{Op: MJmp, L1: head.Label})
		lw.fn.Blocks = moveBlockAfter(lw.fn.Blocks, end)
		lw.cur = end
		return nil
	case *Return:
		if st.X == nil {
			lw.emit(MIns{Op: MRet, A: NoVReg})
		} else {
			v, err := lw.expr(st.X)
			if err != nil {
				return err
			}
			lw.emit(MIns{Op: MRet, A: v})
		}
		// Code after return in the same block is unreachable; open a fresh
		// block so further lowering has somewhere to go.
		lw.cur = lw.newBlock("dead")
		return nil
	case *Break:
		lw.emit(MIns{Op: MJmp, L1: lw.breakLbl[len(lw.breakLbl)-1]})
		lw.cur = lw.newBlock("dead")
		return nil
	case *Continue:
		lw.emit(MIns{Op: MJmp, L1: lw.continueLbl[len(lw.continueLbl)-1]})
		lw.cur = lw.newBlock("dead")
		return nil
	}
	return fmt.Errorf("mcc: lower: unknown statement %T", s)
}

// moveBlockAfter moves b to the end of the block list, keeping source
// order natural (loop exits come after the loop body).
func moveBlockAfter(blocks []*MBlock, b *MBlock) []*MBlock {
	out := blocks[:0]
	for _, x := range blocks {
		if x != b {
			out = append(out, x)
		}
	}
	return append(out, b)
}

func (lw *lowerer) localDecl(d *VarDecl) error {
	sym := d.Sym
	switch {
	case sym.Type.Kind == TArray:
		slot := lw.newSlot(sym.Type.ByteSize())
		lw.slotOf[sym] = slot
		return nil
	case lw.addrTaken[sym]:
		slot := lw.newSlot(4)
		lw.slotOf[sym] = slot
		if d.Init != nil {
			v, err := lw.expr(d.Init)
			if err != nil {
				return err
			}
			addr := lw.newVReg()
			lw.emit(MIns{Op: MAddrL, Dst: addr, Imm: int32(slot)})
			lw.emit(MIns{Op: MStore, A: addr, B: v, Width: widthOf(sym.Type)})
		}
		return nil
	default:
		v := lw.newVReg()
		lw.vregOf[sym] = v
		if d.Init != nil {
			iv, err := lw.expr(d.Init)
			if err != nil {
				return err
			}
			iv = lw.normalize(iv, sym.Type)
			lw.emit(MIns{Op: MMov, Dst: v, A: iv})
		} else {
			lw.emit(MIns{Op: MConst, Dst: v, Imm: 0})
		}
		return nil
	}
}

func widthOf(t *Type) int {
	if t.Kind == TInt {
		return t.Size
	}
	return 4
}

// normalize truncates/extends a value to a sub-int type's range when it
// will live in a full-width vreg.
func (lw *lowerer) normalize(v VReg, t *Type) VReg {
	if t.Kind == TInt && t.Size < 4 {
		d := lw.newVReg()
		lw.emit(MIns{Op: MExt, Dst: d, A: v, Width: t.Size, Signed: t.Signed})
		return d
	}
	return v
}
