package mcc

import (
	"fmt"
	"math"
)

// Interp is a reference interpreter for MIR programs. It exists for
// differential testing: the same source can be executed (a) here on the
// unoptimized MIR, (b) here on the optimized MIR, and (c) through
// register allocation, codegen, layout and the board simulator — any
// disagreement pinpoints the guilty stage.
//
// Soft-float runtime calls are executed natively (Go float32 arithmetic),
// which also cross-checks internal/softfloat's bit-twiddling from a
// second, independent direction.
type Interp struct {
	prog *MProgram

	mem        []byte
	globalAddr map[string]uint32
	sp         uint32 // bump allocator for frames, growing downward

	// MaxSteps bounds execution (default 50 million).
	MaxSteps uint64
	steps    uint64
}

const (
	interpMemSize    = 1 << 20
	interpGlobalBase = 0x1000
)

// NewInterp prepares an interpreter with globals laid out and initialized.
func NewInterp(p *MProgram) (*Interp, error) {
	it := &Interp{
		prog:       p,
		mem:        make([]byte, interpMemSize),
		globalAddr: make(map[string]uint32),
		sp:         interpMemSize,
	}
	addr := uint32(interpGlobalBase)
	for _, g := range p.Globals {
		it.globalAddr[g.Name] = addr
		gl, err := lowerGlobal(g)
		if err != nil {
			return nil, err
		}
		copy(it.mem[addr:], gl.Init)
		addr += uint32(g.Type.ByteSize())
		addr = (addr + 3) &^ 3
	}
	if addr >= interpMemSize/2 {
		return nil, fmt.Errorf("mcc: interp: globals too large")
	}
	return it, nil
}

// Run executes main and returns nil on success.
func (it *Interp) Run() error {
	if it.MaxSteps == 0 {
		it.MaxSteps = 50_000_000
	}
	it.steps = 0
	main := it.prog.Func("main")
	if main == nil {
		return fmt.Errorf("mcc: interp: no main")
	}
	_, err := it.call(main, nil)
	return err
}

// ReadGlobal copies n bytes of a global after a run.
func (it *Interp) ReadGlobal(name string, n int) ([]byte, error) {
	a, ok := it.globalAddr[name]
	if !ok {
		return nil, fmt.Errorf("mcc: interp: unknown global %q", name)
	}
	out := make([]byte, n)
	copy(out, it.mem[a:])
	return out, nil
}

func (it *Interp) call(f *MFunc, args []uint32) (uint32, error) {
	// Frame: slot storage carved from the bump stack.
	frameSize := uint32(0)
	slotAddr := make([]uint32, len(f.SlotSizes))
	for i, sz := range f.SlotSizes {
		frameSize += uint32((sz + 3) &^ 3)
		_ = i
	}
	if it.sp < frameSize+4096 {
		return 0, fmt.Errorf("mcc: interp: stack overflow in %s", f.Name)
	}
	it.sp -= frameSize
	base := it.sp
	{
		off := uint32(0)
		for i, sz := range f.SlotSizes {
			slotAddr[i] = base + off
			off += uint32((sz + 3) &^ 3)
		}
		// Zero the frame (locals are not guaranteed zero in C, but our
		// lowering never reads uninitialized slots; zeroing keeps runs
		// deterministic).
		for i := base; i < base+frameSize; i++ {
			it.mem[i] = 0
		}
	}
	defer func() { it.sp += frameSize }()

	regs := make([]uint32, f.NumVRegs)
	for i, pr := range f.ParamRegs {
		if i < len(args) {
			regs[pr] = args[i]
		}
	}

	if len(f.Blocks) == 0 {
		return 0, fmt.Errorf("mcc: interp: empty function %s", f.Name)
	}
	blk := f.Blocks[0]
	byLabel := make(map[string]*MBlock, len(f.Blocks))
	for _, b := range f.Blocks {
		byLabel[b.Label] = b
	}

	for {
		var next string
		for i := range blk.Ins {
			in := &blk.Ins[i]
			it.steps++
			if it.steps > it.MaxSteps {
				return 0, fmt.Errorf("mcc: interp: step limit exceeded in %s", f.Name)
			}
			switch in.Op {
			case MConst:
				regs[in.Dst] = uint32(in.Imm)
			case MMov:
				regs[in.Dst] = regs[in.A]
			case MAdd:
				regs[in.Dst] = regs[in.A] + regs[in.B]
			case MSub:
				regs[in.Dst] = regs[in.A] - regs[in.B]
			case MMul:
				regs[in.Dst] = regs[in.A] * regs[in.B]
			case MSDiv:
				a, b := int32(regs[in.A]), int32(regs[in.B])
				switch {
				case b == 0:
					regs[in.Dst] = 0
				case a == -1<<31 && b == -1:
					regs[in.Dst] = uint32(a)
				default:
					regs[in.Dst] = uint32(a / b)
				}
			case MUDiv:
				if regs[in.B] == 0 {
					regs[in.Dst] = 0
				} else {
					regs[in.Dst] = regs[in.A] / regs[in.B]
				}
			case MSRem:
				a, b := int32(regs[in.A]), int32(regs[in.B])
				switch {
				case b == 0:
					regs[in.Dst] = regs[in.A]
				case a == -1<<31 && b == -1:
					regs[in.Dst] = 0
				default:
					regs[in.Dst] = uint32(a % b)
				}
			case MURem:
				if regs[in.B] == 0 {
					regs[in.Dst] = regs[in.A]
				} else {
					regs[in.Dst] = regs[in.A] % regs[in.B]
				}
			case MAnd:
				regs[in.Dst] = regs[in.A] & regs[in.B]
			case MOr:
				regs[in.Dst] = regs[in.A] | regs[in.B]
			case MXor:
				regs[in.Dst] = regs[in.A] ^ regs[in.B]
			case MShl:
				s := regs[in.B] & 0xFF
				if s >= 32 {
					regs[in.Dst] = 0
				} else {
					regs[in.Dst] = regs[in.A] << s
				}
			case MShr:
				s := regs[in.B] & 0xFF
				if s >= 32 {
					regs[in.Dst] = 0
				} else {
					regs[in.Dst] = regs[in.A] >> s
				}
			case MSar:
				s := regs[in.B] & 0xFF
				if s >= 32 {
					s = 31
				}
				regs[in.Dst] = uint32(int32(regs[in.A]) >> s)
			case MNeg:
				regs[in.Dst] = -regs[in.A]
			case MNot:
				regs[in.Dst] = ^regs[in.A]
			case MSetCC:
				if in.CC.Eval(regs[in.A], regs[in.B]) {
					regs[in.Dst] = 1
				} else {
					regs[in.Dst] = 0
				}
			case MExt:
				regs[in.Dst] = uint32(extVal(int32(regs[in.A]), in.Width, in.Signed))
			case MLoad:
				v, err := it.load(regs[in.A], in.Width, in.Signed)
				if err != nil {
					return 0, fmt.Errorf("%s/%s: %w", f.Name, blk.Label, err)
				}
				regs[in.Dst] = v
			case MStore:
				if err := it.store(regs[in.A], regs[in.B], in.Width); err != nil {
					return 0, fmt.Errorf("%s/%s: %w", f.Name, blk.Label, err)
				}
			case MAddrG:
				a, ok := it.globalAddr[in.Sym]
				if !ok {
					return 0, fmt.Errorf("mcc: interp: unknown global %q", in.Sym)
				}
				regs[in.Dst] = a
			case MAddrL:
				regs[in.Dst] = slotAddr[in.Imm]
			case MCall:
				vals := make([]uint32, len(in.Args))
				for k, a := range in.Args {
					vals[k] = regs[a]
				}
				ret, err := it.dispatch(in.Sym, vals)
				if err != nil {
					return 0, err
				}
				if in.Dst != NoVReg {
					regs[in.Dst] = ret
				}
			case MJmp:
				next = in.L1
			case MCmpBr:
				if in.CC.Eval(regs[in.A], regs[in.B]) {
					next = in.L1
				} else {
					next = in.L2
				}
			case MRet:
				if in.A != NoVReg {
					return regs[in.A], nil
				}
				return 0, nil
			default:
				return 0, fmt.Errorf("mcc: interp: unhandled %s", in.String())
			}
		}
		if next == "" {
			return 0, fmt.Errorf("mcc: interp: %s/%s fell off block end", f.Name, blk.Label)
		}
		nb, ok := byLabel[next]
		if !ok {
			return 0, fmt.Errorf("mcc: interp: jump to unknown %q", next)
		}
		blk = nb
	}
}

// CallFunction invokes a named MIR function directly with raw 32-bit
// arguments — used by the soft-float conformance tests to drive
// individual runtime routines.
func (it *Interp) CallFunction(name string, args ...uint32) (uint32, error) {
	if it.MaxSteps == 0 {
		it.MaxSteps = 50_000_000
	}
	f := it.prog.Func(name)
	if f == nil {
		return 0, fmt.Errorf("mcc: interp: unknown function %q", name)
	}
	return it.call(f, args)
}

// dispatch calls a user function or a native soft-float builtin.
func (it *Interp) dispatch(name string, args []uint32) (uint32, error) {
	if f := it.prog.Func(name); f != nil {
		return it.call(f, args)
	}
	if fn, ok := floatBuiltins[name]; ok {
		return fn(args), nil
	}
	return 0, fmt.Errorf("mcc: interp: call to unknown function %q", name)
}

// floatBuiltins natively implements the soft-float ABI with Go float32
// arithmetic.
var floatBuiltins = map[string]func([]uint32) uint32{
	FnFAdd: func(a []uint32) uint32 {
		return math.Float32bits(math.Float32frombits(a[0]) + math.Float32frombits(a[1]))
	},
	FnFSub: func(a []uint32) uint32 {
		return math.Float32bits(math.Float32frombits(a[0]) - math.Float32frombits(a[1]))
	},
	FnFMul: func(a []uint32) uint32 {
		return math.Float32bits(math.Float32frombits(a[0]) * math.Float32frombits(a[1]))
	},
	FnFDiv: func(a []uint32) uint32 {
		return math.Float32bits(math.Float32frombits(a[0]) / math.Float32frombits(a[1]))
	},
	FnI2F: func(a []uint32) uint32 {
		return math.Float32bits(float32(int32(a[0])))
	},
	FnUI2F: func(a []uint32) uint32 {
		return math.Float32bits(float32(a[0]))
	},
	FnF2IZ: func(a []uint32) uint32 {
		f := math.Float32frombits(a[0])
		switch {
		case f >= 2147483647:
			return 0x7FFFFFFF
		case f <= -2147483648:
			return 0x80000000
		}
		return uint32(int32(f))
	},
	FnFCmpEq: func(a []uint32) uint32 {
		return b2u32(math.Float32frombits(a[0]) == math.Float32frombits(a[1]))
	},
	FnFCmpLt: func(a []uint32) uint32 {
		return b2u32(math.Float32frombits(a[0]) < math.Float32frombits(a[1]))
	},
	FnFCmpLe: func(a []uint32) uint32 {
		return b2u32(math.Float32frombits(a[0]) <= math.Float32frombits(a[1]))
	},
}

func b2u32(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

func (it *Interp) load(addr uint32, width int, signed bool) (uint32, error) {
	if addr < interpGlobalBase || int(addr)+width > len(it.mem) {
		return 0, fmt.Errorf("interp load outside memory at %#x", addr)
	}
	var v uint32
	for i := 0; i < width; i++ {
		v |= uint32(it.mem[addr+uint32(i)]) << (8 * i)
	}
	if signed {
		shift := uint(32 - 8*width)
		v = uint32(int32(v<<shift) >> shift)
	}
	return v, nil
}

func (it *Interp) store(addr, val uint32, width int) error {
	if addr < interpGlobalBase || int(addr)+width > len(it.mem) {
		return fmt.Errorf("interp store outside memory at %#x", addr)
	}
	for i := 0; i < width; i++ {
		it.mem[addr+uint32(i)] = byte(val >> (8 * i))
	}
	return nil
}
