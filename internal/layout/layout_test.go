package layout

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/power"
)

func TestAllFlashBaseline(t *testing.T) {
	p := ir.Figure2Program()
	img, err := New(p, DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if img.RAMCodeBytes != 0 {
		t.Errorf("RAMCodeBytes = %d, want 0 for baseline", img.RAMCodeBytes)
	}
	if img.FlashCodeBytes <= 0 {
		t.Error("FlashCodeBytes must be positive")
	}
	// Entry symbol points into flash.
	mem, ok := img.MemoryOf(img.Symbols["main"])
	if !ok || mem != power.Flash {
		t.Errorf("main at %#x in %v, want flash", img.Symbols["main"], mem)
	}
	// fn symbol equals its entry block address.
	if img.Symbols["fn"] != img.Symbols["fn_init"] {
		t.Error("function symbol must equal entry-block address")
	}
	// Data in RAM.
	mem, ok = img.MemoryOf(img.Symbols["result"])
	if !ok || mem != power.RAM {
		t.Errorf("result in %v, want RAM", mem)
	}
	if img.DataBytes != 4 {
		t.Errorf("DataBytes = %d, want 4", img.DataBytes)
	}
}

// instrumentedProgram is a program whose RAM-destined function is reached
// only through indirect transfers (ldr =sym + blx, bx lr), the shape the
// paper's transformation produces; it can therefore be laid out with
// ramfn's block in RAM without further rewriting.
func instrumentedProgram() *ir.Program {
	p := ir.NewProgram()
	rf := p.AddFunc(&ir.Function{Name: "ramfn"})
	body := rf.AddBlock("ramfn_body")
	ir.Build(body).
		LdrLit(isa.R1, "result"). // literal travels with the block
		MovImm(isa.R0, 42).
		Str(isa.R0, isa.R1, 0).
		Ret()

	m := p.AddFunc(&ir.Function{Name: "main"})
	mb := m.AddBlock("main_entry")
	ir.Build(mb).
		Push(isa.R4, isa.LR).
		LdrLit(isa.R4, "ramfn").
		Blx(isa.R4).
		Pop(isa.R4, isa.PC)

	p.AddGlobal(&ir.Global{Name: "result", Size: 4})
	p.Reindex()
	return p
}

func TestRAMPlacement(t *testing.T) {
	p := instrumentedProgram()
	img, err := New(p, DefaultConfig(), map[string]bool{"ramfn_body": true})
	if err != nil {
		t.Fatal(err)
	}
	pl, ok := img.PlacedBlock("ramfn_body")
	if !ok || !pl.InRAM {
		t.Fatal("ramfn_body not placed in RAM")
	}
	mem, _ := img.MemoryOf(pl.Addr)
	if mem != power.RAM {
		t.Errorf("ramfn_body at %#x (%v), want RAM", pl.Addr, mem)
	}
	if img.RAMCodeBytes <= 0 {
		t.Error("RAMCodeBytes must be positive with a RAM block")
	}
	pl, _ = img.PlacedBlock("main_entry")
	mem, _ = img.MemoryOf(pl.Addr)
	if mem != power.Flash {
		t.Errorf("main_entry in %v, want flash", mem)
	}
	// Writable data sits above the RAM code.
	if img.Symbols["result"] < img.Config.RAMBase+uint32(img.RAMCodeBytes) {
		t.Error("data must be placed above .ramcode")
	}
}

func TestSeveredFallThroughRejected(t *testing.T) {
	// Moving only fn_loop of the Figure 2 function to RAM severs both its
	// fall-through edge and fn_init's; layout must refuse (this is why
	// the transformation exists).
	p := ir.Figure2Program()
	_, err := New(p, DefaultConfig(), map[string]bool{"fn_loop": true})
	if err == nil || !strings.Contains(err.Error(), "fall-through") {
		t.Fatalf("err = %v, want severed fall-through", err)
	}
}

func TestCrossMemoryDirectCallRejected(t *testing.T) {
	// Moving the whole callee to RAM leaves main's direct bl unable to
	// span the flash↔RAM distance.
	p := ir.Figure2Program()
	all := map[string]bool{
		"fn_init": true, "fn_loop": true, "fn_if": true,
		"fn_iftrue": true, "fn_return": true,
	}
	_, err := New(p, DefaultConfig(), all)
	if err == nil || !strings.Contains(err.Error(), "indirect-branch instrumentation") {
		t.Fatalf("err = %v, want reachability error", err)
	}
}

func TestInstrAddressesMonotoneAndResolvable(t *testing.T) {
	p := instrumentedProgram()
	img, err := New(p, DefaultConfig(), map[string]bool{"ramfn_body": true})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint32]string{}
	for _, pl := range img.Blocks {
		prev := pl.Addr
		for i, a := range pl.InstrAddrs {
			if i > 0 && a <= prev {
				t.Fatalf("%s: non-monotone instruction addresses", pl.Block.Label)
			}
			prev = a
			at := fmt.Sprintf("%s[%d]", pl.Block.Label, i)
			if other, dup := seen[a]; dup {
				t.Fatalf("%s and %s share address %#x", other, at, a)
			}
			seen[a] = at
		}
		if pl.End < pl.Addr {
			t.Fatalf("%s: End below Addr", pl.Block.Label)
		}
	}
}

func TestDenseBlockIDsAndCodeBounds(t *testing.T) {
	p := instrumentedProgram()
	img, err := New(p, DefaultConfig(), map[string]bool{"ramfn_body": true})
	if err != nil {
		t.Fatal(err)
	}
	for i, pl := range img.Blocks {
		if pl.ID != i {
			t.Errorf("%s: ID = %d, want dense index %d", pl.Block.Label, pl.ID, i)
		}
		mem := power.Flash
		if pl.InRAM {
			mem = power.RAM
		}
		base, length := img.CodeBounds(mem)
		for j, a := range pl.InstrAddrs {
			if a < base || a >= base+length {
				t.Errorf("%s[%d]: addr %#x outside CodeBounds(%v) [%#x, %#x)",
					pl.Block.Label, j, a, mem, base, base+length)
			}
		}
	}
	fBase, fLen := img.CodeBounds(power.Flash)
	rBase, rLen := img.CodeBounds(power.RAM)
	if fBase != img.Config.FlashBase || int(fLen) != img.FlashCodeBytes {
		t.Errorf("flash bounds (%#x, %d) != (%#x, %d)", fBase, fLen, img.Config.FlashBase, img.FlashCodeBytes)
	}
	if rBase != img.Config.RAMBase || int(rLen) != img.RAMCodeBytes {
		t.Errorf("RAM bounds (%#x, %d) != (%#x, %d)", rBase, rLen, img.Config.RAMBase, img.RAMCodeBytes)
	}
}

func TestLiteralPoolPlacement(t *testing.T) {
	p := ir.Figure2Program()
	img, err := New(p, DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	pl, _ := img.PlacedBlock("main_entry")
	found := false
	for i := range pl.Block.Instrs {
		if pl.Block.Instrs[i].Op == isa.LDRLIT {
			found = true
			if pl.LitAddrs[i] == 0 {
				t.Fatal("LDRLIT has no literal address")
			}
			if pl.LitAddrs[i]%4 != 0 {
				t.Error("literal not word aligned")
			}
			if pl.LitAddrs[i] < pl.InstrAddrs[len(pl.InstrAddrs)-1] {
				t.Error("literal pool must follow the block")
			}
			mem, _ := img.MemoryOf(pl.LitAddrs[i])
			if mem != power.Flash {
				t.Errorf("flash block's literal pool in %v", mem)
			}
		}
	}
	if !found {
		t.Fatal("expected a literal in main_entry")
	}
}

func TestLiteralPoolMovesWithBlock(t *testing.T) {
	p := instrumentedProgram()
	img, err := New(p, DefaultConfig(), map[string]bool{"ramfn_body": true})
	if err != nil {
		t.Fatal(err)
	}
	pl, _ := img.PlacedBlock("ramfn_body")
	found := false
	for i := range pl.Block.Instrs {
		if pl.Block.Instrs[i].Op == isa.LDRLIT {
			found = true
			mem, _ := img.MemoryOf(pl.LitAddrs[i])
			if mem != power.RAM {
				t.Errorf("RAM block's literal pool in %v, want RAM", mem)
			}
		}
	}
	if !found {
		t.Fatal("expected a literal in ramfn_body")
	}
}

func TestDeferredLiteralPool(t *testing.T) {
	// A fall-through block with a literal must not have its pool between
	// itself and its successor.
	p := ir.NewProgram()
	f := p.AddFunc(&ir.Function{Name: "main"})
	a := f.AddBlock("a")
	ir.Build(a).LdrLit(isa.R0, "g") // falls through
	b := f.AddBlock("b")
	ir.Build(b).AddImm(isa.R0, isa.R0, 1).Ret()
	p.AddGlobal(&ir.Global{Name: "g", Size: 4})
	p.Reindex()

	img, err := New(p, DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	pa, _ := img.PlacedBlock("a")
	pb, _ := img.PlacedBlock("b")
	if pb.Addr != pa.CodeEnd {
		t.Fatalf("successor at %#x, want adjacent to %#x", pb.Addr, pa.CodeEnd)
	}
	if pa.LitAddrs[0] < pb.Addr {
		t.Errorf("literal at %#x sits inside the fall-through path", pa.LitAddrs[0])
	}
}

func TestRAMOverflowRejected(t *testing.T) {
	p := ir.Figure2Program()
	cfg := DefaultConfig()
	cfg.RAMSize = 1024
	cfg.StackReserve = 1021 // leaves 3 bytes: the 4-byte global overflows
	_, err := New(p, cfg, nil)
	if err == nil || !strings.Contains(err.Error(), "RAM overflow") {
		t.Fatalf("err = %v, want RAM overflow", err)
	}
}

func TestFlashOverflowRejected(t *testing.T) {
	p := ir.Figure2Program()
	cfg := DefaultConfig()
	cfg.FlashSize = 8
	_, err := New(p, cfg, nil)
	if err == nil || !strings.Contains(err.Error(), "flash overflow") {
		t.Fatalf("err = %v, want flash overflow", err)
	}
}

func TestBranchWidening(t *testing.T) {
	// A function with a big block between a branch and its target forces
	// the conditional branch out of ±254 narrow range.
	p := ir.NewProgram()
	f := p.AddFunc(&ir.Function{Name: "main"})
	head := f.AddBlock("head")
	ir.Build(head).CmpImm(isa.R0, 0).Bcond(isa.NE, "tail")
	big := f.AddBlock("big")
	bb := ir.Build(big)
	for i := 0; i < 300; i++ {
		bb.Nop() // 600 bytes of nops
	}
	tail := f.AddBlock("tail")
	ir.Build(tail).Ret()
	p.Reindex()

	img, err := New(p, DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	pl, _ := img.PlacedBlock("head")
	last := len(pl.Block.Instrs) - 1
	if !pl.Wide[last] {
		t.Error("out-of-range conditional branch was not widened")
	}
	if pl.InstrSize(last) != 4 {
		t.Errorf("widened branch size = %d, want 4", pl.InstrSize(last))
	}
}

func TestRodataStaysInFlash(t *testing.T) {
	p := ir.Figure2Program()
	p.AddGlobal(&ir.Global{Name: "table", Size: 64, RO: true})
	img, err := New(p, DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	mem, _ := img.MemoryOf(img.Symbols["table"])
	if mem != power.Flash {
		t.Errorf("rodata in %v, want flash", mem)
	}
	if img.RodataBytes != 64 {
		t.Errorf("RodataBytes = %d, want 64", img.RodataBytes)
	}
}

func TestSpareRAM(t *testing.T) {
	p := ir.Figure2Program() // 4 bytes of data
	cfg := DefaultConfig()
	got := SpareRAM(p, cfg)
	want := cfg.RAMSize - 4 - cfg.StackReserve
	if got != want {
		t.Errorf("SpareRAM = %d, want %d", got, want)
	}
	cfg.RAMSize = 100
	cfg.StackReserve = 200
	if got := SpareRAM(p, cfg); got != 0 {
		t.Errorf("SpareRAM clamped = %d, want 0", got)
	}
}

func TestStackTopAligned(t *testing.T) {
	p := ir.Figure2Program()
	img, err := New(p, DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	top := img.StackTop()
	if top%8 != 0 {
		t.Errorf("stack top %#x not 8-byte aligned", top)
	}
	if top != img.Config.RAMBase+uint32(img.Config.RAMSize) {
		t.Errorf("stack top = %#x, want top of RAM", top)
	}
}

func TestMemoryOfOutside(t *testing.T) {
	p := ir.Figure2Program()
	img, _ := New(p, DefaultConfig(), nil)
	if _, ok := img.MemoryOf(0); ok {
		t.Error("address 0 should not classify")
	}
	if _, ok := img.MemoryOf(0xFFFFFFF0); ok {
		t.Error("high address should not classify")
	}
}
