package mcc

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"repro/internal/ir"
	"repro/internal/softfloat"
)

// Compile translates mcc source to a laid-out-ready machine program at the
// given optimization level. When the source uses float arithmetic, the
// soft-float runtime is linked in as library code (Library=true), which
// the placement optimizer cannot touch — the paper's libgcc limitation.
func Compile(src string, level OptLevel) (*ir.Program, error) {
	ast, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if err := check(ast, true); err != nil {
		return nil, err
	}
	mp, err := Lower(ast)
	if err != nil {
		return nil, err
	}
	Optimize(mp, level)

	prog := ir.NewProgram()

	// Link the soft-float runtime if needed: a private copy of the
	// process-wide prebuilt one.
	if len(mp.FloatCalled) > 0 {
		for _, f := range mp.Funcs {
			for _, rt := range softfloat.Routines() {
				if f.Name == rt {
					return nil, fmt.Errorf("mcc: user function %q collides with the soft-float runtime", rt)
				}
			}
		}
		lib, err := softFloatLib()
		if err != nil {
			return nil, err
		}
		prog = lib.Clone()
	}

	for _, f := range mp.Funcs {
		irf, err := genWithLevel(f, level)
		if err != nil {
			return nil, err
		}
		prog.AddFunc(irf)
	}

	for _, g := range mp.Globals {
		irg, err := lowerGlobal(g)
		if err != nil {
			return nil, err
		}
		prog.AddGlobal(irg)
	}

	prog.Entry = "main"
	prog.Reindex()
	if err := ir.Verify(prog); err != nil {
		return nil, fmt.Errorf("mcc: generated invalid program: %w", err)
	}
	return prog, nil
}

// softFloatLib returns the soft-float runtime, compiled once per process at
// a fixed -O2 the way a prebuilt libgcc would be. The result is shared:
// Compile links a Clone of it into each float program and never modifies
// it.
var softFloatLib = sync.OnceValues(compileSoftFloat)

func compileSoftFloat() (*ir.Program, error) {
	libAST, err := Parse(softfloat.Source)
	if err != nil {
		return nil, fmt.Errorf("mcc: internal: soft-float source: %w", err)
	}
	if err := check(libAST, false); err != nil {
		return nil, fmt.Errorf("mcc: internal: soft-float check: %w", err)
	}
	libMP, err := Lower(libAST)
	if err != nil {
		return nil, fmt.Errorf("mcc: internal: soft-float lower: %w", err)
	}
	Optimize(libMP, O2)
	prog := ir.NewProgram()
	for _, f := range libMP.Funcs {
		irf, err := genWithLevel(f, O2)
		if err != nil {
			return nil, fmt.Errorf("mcc: internal: soft-float codegen: %w", err)
		}
		irf.Library = true
		prog.AddFunc(irf)
	}
	return prog, nil
}

// check wraps Check with the main-function requirement toggled (library
// translation units have no main).
func check(prog *SourceProgram, requireMain bool) error {
	return checkUnit(prog, requireMain)
}

func genWithLevel(f *MFunc, level OptLevel) (*ir.Function, error) {
	var alloc *Allocation
	if level == O0 {
		alloc = AllocateSpillAll(f)
	} else {
		alloc = Allocate(f)
	}
	return GenFunc(f, alloc)
}

// lowerGlobal turns a checked global declaration into initialized bytes.
func lowerGlobal(g *VarDecl) (*ir.Global, error) {
	size := g.Type.ByteSize()
	irg := &ir.Global{Name: g.Name, Size: size, RO: g.Const}

	elemType := g.Type
	var elems []Expr
	switch {
	case g.InitList != nil:
		elems = g.InitList
		elemType = g.Type.Elem
		for elemType.Kind == TArray {
			elemType = elemType.Elem
		}
	case g.Init != nil:
		elems = []Expr{g.Init}
	default:
		return irg, nil // zero-initialized (.bss)
	}

	esz := elemType.ByteSize()
	buf := make([]byte, size)
	for i, e := range elems {
		iv, fv, ok := ConstEval(e)
		if !ok {
			return nil, fmt.Errorf("mcc: global %q: non-constant initializer", g.Name)
		}
		var word uint32
		if elemType.Kind == TFloat {
			if e.TypeOf() != nil && e.TypeOf().Kind != TFloat {
				fv = float64(iv)
			}
			word = math.Float32bits(float32(fv))
		} else {
			if e.TypeOf() != nil && e.TypeOf().Kind == TFloat {
				iv = int64(fv)
			}
			word = uint32(int32(iv))
		}
		off := i * esz
		if off+esz > size {
			return nil, fmt.Errorf("mcc: global %q: initializer overflows", g.Name)
		}
		switch esz {
		case 1:
			buf[off] = byte(word)
		case 2:
			binary.LittleEndian.PutUint16(buf[off:], uint16(word))
		default:
			binary.LittleEndian.PutUint32(buf[off:], word)
		}
	}
	irg.Init = buf
	return irg, nil
}
