// Package sim is this reproduction's stand-in for the paper's
// power-instrumented Cortex-M3 board: a cycle-level simulator for the
// laid-out program image that charges every cycle the power of the memory
// it fetches from (internal/power), models the single-port RAM contention
// stall on loads executed from RAM (the paper's Lb effect), pays the
// pipeline-refill penalty on taken branches, and counts per-basic-block
// execution frequencies (the profiler behind the "w/Frequency" results in
// Figure 5).
//
// The image is compiled once per SetImage into dense per-memory slot
// tables and one micro-op per instruction (predecode.go), and every
// instruction executes through one uop executor (superblock.go): fused
// straight-line runs as one descriptor, everything else as length-1
// descriptors. The run loop is a pure array-indexed dispatch with no map
// lookups, closures or symbol resolution per instruction. Charges are
// integers: cycles per (fetch memory, class, data memory) cell of an
// energy ledger (ledger.go), priced into Stats.EnergyNJ once per run.
package sim

import (
	"context"
	"encoding/binary"
	"fmt"

	"repro/internal/isa"
	"repro/internal/layout"
	"repro/internal/power"
)

// exitLR is the magic return address planted in LR before calling the
// entry function; returning to it ends the simulation (the hardware
// equivalent is EXC_RETURN).
const exitLR = 0xFFFFFFFE

// Event describes one executed (and charged) instruction for an attached
// Observer. The same Event value is reused across calls — observers must
// copy out anything they keep.
type Event struct {
	Block *layout.Placed // the placed basic block being executed
	Index int            // instruction index within the block
	PC    uint32

	Class    isa.Class
	FetchMem power.Memory // memory the fetch hit (block residence)
	DataMem  power.Memory // memory a data access hit (power.None if none)

	// Cycles is the total cycle cost charged, including Stall.
	Cycles uint64
	// Stall is the RAM-port contention stall included in Cycles (the
	// paper's Lb effect).
	Stall uint64
	// EnergyNJ is the energy charged for this instruction.
	EnergyNJ float64
	// Taken is true when the instruction redirected control flow (taken
	// branch, call, return, pop-to-pc, ldr pc,=...), i.e. it paid the
	// pipeline-refill penalty.
	Taken bool
	// BlockEntry is true on the first charged instruction of a block
	// activation — exactly when Stats.BlockCounts is incremented.
	BlockEntry bool
}

// Observer receives one Event per executed instruction. A nil observer
// (the default) keeps the simulator on its fused fast path; the dispatch
// loop pays a nil check per descriptor, the uop loop none.
type Observer interface {
	Event(*Event)
}

// Attach installs an observer (nil detaches). Attach before Run; events
// are emitted for every charged instruction, including failed-predication
// issue cycles, and force one-instruction-at-a-time dispatch.
func (m *Machine) Attach(o Observer) { m.obs = o }

// Machine is one simulated SoC instance.
type Machine struct {
	Img     *layout.Image
	Profile *power.Profile

	// MaxInstrs aborts runaway programs (0 = default 500 million).
	MaxInstrs uint64

	// NoFuse dispatches every instruction as a length-1 descriptor even
	// where fused runs exist (superblock.go) — the differential-testing
	// knob behind beebsbench -nofuse, which checks the fusion boundaries
	// (pre-aggregated cycles, chaining, partial-stats flushes, stop and
	// poll gates). An attached observer forces length-1 dispatch
	// regardless, since the event stream is per instruction.
	NoFuse bool

	regs  [isa.NumRegs]uint32
	n, z  bool
	c, v  bool
	flash []byte
	ram   []byte

	// Memory map bounds, cached flat so load/store need no pointer chase.
	flashBase, ramBase uint32
	flashSize, ramSize uint32

	eng engine // predecoded instruction tables (predecode.go)

	obs   Observer
	ev    Event // reused event buffer when obs != nil
	stats Stats
	// led is the run's integer energy ledger (ledger.go); Stats.EnergyNJ
	// and Stats.CyclesByMem are derived from it when the run ends. dyn
	// holds the executing descriptor's dynamic load charges until its
	// flush.
	led ledger
	dyn dynCharges

	// one is the reused length-1 descriptor runFrom dispatches unfused
	// instructions through; oc is the outcome of the executor's last
	// dynamic charge choice (ocMain/ocAlt/ocNT), and cycles0/stalls0 the
	// counts before the last length-1 dispatch, read back for events.
	one              superblock
	oc               uint8
	cycles0, stalls0 uint64

	// stopCycles, when nonzero, pauses runFrom at the first instruction
	// boundary whose executed-cycle count has reached it — the segment
	// mechanism behind RunIntermittent (intermittent.go). pausePC holds
	// the resume address of a paused run. Zero (the steady state outside
	// intermittent runs) means no stop.
	stopCycles uint64
	pausePC    uint32

	// polls counts cancellation-poll selects this run; the regression
	// test beside TestSimCancellationOverhead pigeonholes it against the
	// instruction count to prove no fused run stretched the poll
	// interval past cancelCheckMask+1 dispatched instructions.
	polls uint64
	// unfused counts instructions retired through length-1 descriptors
	// this run; the rest retired fused (fusion-rate reporting; Stats stays
	// byte-identical either way). ffwd counts instructions installed by
	// the intermittent replay fast-forward instead of simulated.
	unfused, ffwd uint64

	// Intermittent-run scratch (intermittent.go), kept across runs so a
	// pooled machine reuses its RAM-sized buffers: the checkpoint
	// snapshot and the ring of the two most recent lost segments, with
	// lostNext the slot the next record overwrites.
	snap     ckptSnapshot
	lost     [2]lostSegment
	lostNext int
}

// Stats aggregates one run.
type Stats struct {
	Instructions uint64
	Cycles       uint64
	// EnergyNJ is total energy in nanojoules.
	EnergyNJ float64
	// CyclesByMem[mem][class] splits cycles by fetch memory and class.
	CyclesByMem [2][isa.NumClasses]uint64
	// ContentionStalls counts RAM-port load stalls (the Lb effect).
	ContentionStalls uint64
	// BlockCounts is the per-basic-block execution profile. During a run
	// the counts accumulate in a dense array indexed by block ID; this
	// map is materialized when the run completes.
	BlockCounts map[string]uint64
}

// TimeSeconds converts the cycle count to wall time at the profile clock.
func (s *Stats) timeSeconds(clockHz float64) float64 {
	return float64(s.Cycles) / clockHz
}

// EnergyMJ returns total energy in millijoules.
func (s *Stats) EnergyMJ() float64 { return s.EnergyNJ * 1e-6 }

// Fault is a simulated hardware fault (bad memory access, bad jump, ...)
// or an externally forced stop. Block and Func locate the faulting
// instruction in the program ("" when the PC resolves to no block, e.g. a
// wild jump). Cause, when set, is the underlying error — a cancelled run
// carries its context error here, so errors.Is(f, context.Canceled) works.
type Fault struct {
	PC     uint32
	Block  string
	Func   string
	Reason string
	Cause  error
}

// Unwrap exposes the underlying cause (nil for plain hardware faults).
func (f *Fault) Unwrap() error { return f.Cause }

func (f *Fault) Error() string {
	if f.Block != "" {
		return fmt.Sprintf("sim: fault at pc=%#x (block %s, func %s): %s",
			f.PC, f.Block, f.Func, f.Reason)
	}
	return fmt.Sprintf("sim: fault at pc=%#x: %s", f.PC, f.Reason)
}

// locate fills a fault's Block/Func from an instruction reference.
func (f *Fault) locate(ref layout.InstrRef) {
	if f.Block != "" || ref.Placed == nil {
		return
	}
	f.Block = ref.Placed.Block.Label
	if fn := ref.Placed.Block.Func; fn != nil {
		f.Func = fn.Name
	}
}

// New prepares a machine for the image: zeroed registers, data sections
// initialized (the startup runtime's flash→RAM copy of .data and .ramcode
// has happened), SP at the top of RAM.
func New(img *layout.Image, prof *power.Profile) *Machine {
	m := &Machine{Profile: prof}
	m.SetImage(img)
	return m
}

// SetImage retargets the machine to an image, reusing the existing
// flash/RAM arrays and predecode-table storage when capacities allow, and
// resets to power-on state. The predecode tables depend only on the
// image and the profile, so they are rebuilt when either differs from
// what they were built for: retargeting to the same image under the same
// Profile skips the rebuild, while a changed Profile field rebuilds even
// for the same image. This is how the process-wide machine pool
// (Acquire, Release) reuses machines across runs and sessions instead
// of allocating per run.
func (m *Machine) SetImage(img *layout.Image) {
	rebuild := img != m.Img || m.Profile != m.eng.prof
	m.Img = img
	c := img.Config
	m.flashBase, m.flashSize = c.FlashBase, uint32(c.FlashSize)
	m.ramBase, m.ramSize = c.RAMBase, uint32(c.RAMSize)
	m.flash = resize(m.flash, c.FlashSize)
	m.ram = resize(m.ram, c.RAMSize)
	if rebuild {
		m.predecode()
	}
	m.reset()
}

func (m *Machine) reset() {
	for i := range m.regs {
		m.regs[i] = 0
	}
	m.n, m.z, m.c, m.v = false, false, false, false
	clear(m.flash)
	clear(m.ram)
	clear(m.eng.blockCounts)
	m.stats, m.led = Stats{}, ledger{}
	m.polls, m.unfused, m.ffwd = 0, 0, 0

	// Initialize globals.
	for _, g := range m.Img.Prog.Globals {
		base := m.Img.Symbols[g.Name]
		for i, by := range g.Init {
			m.pokeByte(base+uint32(i), by)
		}
	}
	// Materialize literal pool words so raw memory is consistent.
	for _, pl := range m.Img.Blocks {
		for i := range pl.Block.Instrs {
			in := &pl.Block.Instrs[i]
			if in.Op != isa.LDRLIT || pl.LitAddrs[i] == 0 {
				continue
			}
			var w uint32
			if in.Sym != "" {
				w = m.Img.Symbols[in.Sym]
			} else {
				w = uint32(in.Imm)
			}
			m.pokeWord(pl.LitAddrs[i], w)
		}
	}
	m.regs[isa.SP] = m.Img.StackTop()
	m.regs[isa.LR] = exitLR
}

// pokeByte writes initialization data, ignoring faults (validated later).
func (m *Machine) pokeByte(addr uint32, b byte) {
	switch {
	case addr-m.flashBase < m.flashSize:
		m.flash[addr-m.flashBase] = b
	case addr-m.ramBase < m.ramSize:
		m.ram[addr-m.ramBase] = b
	}
}

func (m *Machine) pokeWord(addr uint32, w uint32) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], w)
	for i, b := range buf {
		m.pokeByte(addr+uint32(i), b)
	}
}

// FusedInstructions reports how many of the current run's instructions
// retired through superblock descriptors — fusion-rate reporting only;
// Stats is byte-identical with fusion on or off. A fast-forwarded
// instruction counts as its recorded retirement did.
func (m *Machine) FusedInstructions() uint64 { return m.stats.Instructions - m.unfused }

// FastForwarded reports how many of the current run's instructions the
// intermittent replay fast-forward installed from a recorded lost
// segment instead of simulating them; Instructions − FastForwarded were
// simulated. Each fast-forwarded instruction is also counted fused or
// not, by how it retired when its segment was recorded, so
// FusedInstructions spans both. Zero outside RunIntermittent and for
// observer-attached runs.
func (m *Machine) FastForwarded() uint64 { return m.ffwd }

// Reg returns a register value (for tests and result extraction).
func (m *Machine) Reg(r isa.Reg) uint32 { return m.regs[r] }

// ReadWord reads a 32-bit little-endian word from simulated memory.
func (m *Machine) ReadWord(addr uint32) (uint32, error) {
	var w uint32
	for i := uint32(0); i < 4; i++ {
		b, _, err := m.loadByte(addr + i)
		if err != nil {
			return 0, err
		}
		w |= uint32(b) << (8 * i)
	}
	return w, nil
}

// ReadGlobal reads the first word of a named global.
func (m *Machine) ReadGlobal(name string) (uint32, error) {
	a, ok := m.Img.Symbols[name]
	if !ok {
		return 0, fmt.Errorf("sim: unknown global %q", name)
	}
	return m.ReadWord(a)
}

// ReadGlobalBytes copies n bytes of a named global.
func (m *Machine) ReadGlobalBytes(name string, n int) ([]byte, error) {
	a, ok := m.Img.Symbols[name]
	if !ok {
		return nil, fmt.Errorf("sim: unknown global %q", name)
	}
	out := make([]byte, n)
	for i := range out {
		b, _, err := m.loadByte(a + uint32(i))
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

func (m *Machine) loadByte(addr uint32) (byte, power.Memory, error) {
	switch {
	case addr-m.flashBase < m.flashSize:
		return m.flash[addr-m.flashBase], power.Flash, nil
	case addr-m.ramBase < m.ramSize:
		return m.ram[addr-m.ramBase], power.RAM, nil
	}
	return 0, power.None, fmt.Errorf("load outside memory at %#x", addr)
}

// load reads a size-byte little-endian value. The access must lie
// entirely inside one memory — that memory is the attributed power
// domain. An access that starts inside a memory but does not fit (it
// would straddle into the other memory or off the end) faults: real
// hardware would split it across bus ports, and attributing the power of
// only the last byte (the pre-predecode behaviour) mis-charges it.
func (m *Machine) load(addr uint32, size int, signed bool) (uint32, power.Memory, error) {
	var v uint32
	var mem power.Memory
	if d := addr - m.flashBase; uint64(d)+uint64(size) <= uint64(m.flashSize) {
		v, mem = readLE(m.flash[d:], size), power.Flash
	} else if d := addr - m.ramBase; uint64(d)+uint64(size) <= uint64(m.ramSize) {
		v, mem = readLE(m.ram[d:], size), power.RAM
	} else {
		return 0, power.None, m.accessFault("load", addr, size)
	}
	if signed {
		shift := uint(32 - 8*size)
		v = uint32(int32(v<<shift) >> shift)
	}
	return v, mem, nil
}

func (m *Machine) store(addr uint32, v uint32, size int) (power.Memory, error) {
	if d := addr - m.ramBase; uint64(d)+uint64(size) <= uint64(m.ramSize) {
		writeLE(m.ram[d:], v, size)
		return power.RAM, nil
	}
	if addr-m.flashBase < m.flashSize {
		return power.None, fmt.Errorf("store to flash at %#x", addr)
	}
	return power.None, m.accessFault("store", addr, size)
}

// accessFault distinguishes an access that is simply unmapped from one
// that starts inside a memory but does not fit within it.
func (m *Machine) accessFault(kind string, addr uint32, size int) error {
	switch {
	case addr-m.flashBase < m.flashSize:
		return fmt.Errorf("%d-byte %s at %#x straddles the flash boundary", size, kind, addr)
	case addr-m.ramBase < m.ramSize:
		return fmt.Errorf("%d-byte %s at %#x straddles the ram boundary", size, kind, addr)
	}
	return fmt.Errorf("%s outside memory at %#x", kind, addr)
}

func readLE(b []byte, size int) uint32 {
	switch size {
	case 1:
		return uint32(b[0])
	case 2:
		return uint32(binary.LittleEndian.Uint16(b))
	}
	return binary.LittleEndian.Uint32(b)
}

func writeLE(b []byte, v uint32, size int) {
	switch size {
	case 1:
		b[0] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(v))
	default:
		binary.LittleEndian.PutUint32(b, v)
	}
}

// Reset restores the machine to its power-on state (registers, memory,
// statistics), re-running the startup data initialization. New returns an
// already-reset machine; call Reset only to reuse one across runs. The
// predecode tables are kept — they depend only on the image.
func (m *Machine) Reset() { m.reset() }

// Run executes the program from its entry function until it returns, and
// returns the collected statistics. The machine must be freshly created or
// Reset.
func (m *Machine) Run() (*Stats, error) {
	return m.RunContext(context.Background())
}

// cancelCheckMask gates the run loop's cancellation poll: the context is
// checked once every 4096 dispatched instructions, so the fast path pays a
// nil test and compare per dispatch and a cancelled run stops within at
// most 4096 further instructions.
const cancelCheckMask = 4095

// RunContext is Run with cooperative cancellation: when ctx is cancelled
// or its deadline expires, the run stops within cancelCheckMask+1 further
// instructions and returns a *Fault whose Cause is the context error
// (errors.Is against context.Canceled / DeadlineExceeded both work) and
// whose Block/Func name the instruction the stop landed on.
func (m *Machine) RunContext(ctx context.Context) (*Stats, error) {
	entry, err := m.entry()
	if err != nil {
		return nil, err
	}
	err = m.runFrom(ctx, entry)
	m.settle()
	if err != nil {
		return nil, err
	}
	st := m.stats
	st.BlockCounts = m.blockCountsMap()
	return &st, nil
}

// entry returns the program entry address, resolved at SetImage.
func (m *Machine) entry() (uint32, error) {
	if !m.eng.entryOK {
		return 0, fmt.Errorf("sim: no entry symbol %q", m.Img.Prog.Entry)
	}
	return m.eng.entry, nil
}

// blockCountsMap materializes the dense per-block counters into the
// public map form: one entry per block that executed at least once —
// exactly the entries the per-step map increment used to create.
func (m *Machine) blockCountsMap() map[string]uint64 {
	out := make(map[string]uint64)
	for id, n := range m.eng.blockCounts {
		if n != 0 {
			out[m.Img.Blocks[id].Block.Label] = n
		}
	}
	return out
}

// TimeSeconds converts collected cycles to seconds at this profile's clock.
func (m *Machine) TimeSeconds(s *Stats) float64 { return s.timeSeconds(m.Profile.ClockHz) }

func (m *Machine) setSubFlags(a, b uint32) {
	r := a - b
	m.n = int32(r) < 0
	m.z = r == 0
	m.c = a >= b // no borrow
	m.v = (a^b)&(a^r)&0x80000000 != 0
}

func memWidth(op isa.Op) (size int, signed bool) {
	switch op {
	case isa.LDR, isa.STR:
		return 4, false
	case isa.LDRB, isa.STRB:
		return 1, false
	case isa.LDRH, isa.STRH:
		return 2, false
	case isa.LDRSB:
		return 1, true
	case isa.LDRSH:
		return 2, true
	}
	return 4, false
}

func shiftL(a, b uint32) uint32 {
	s := b & 0xFF
	if s >= 32 {
		return 0
	}
	return a << s
}

func shiftR(a, b uint32) uint32 {
	s := b & 0xFF
	if s >= 32 {
		return 0
	}
	return a >> s
}

func shiftAR(a, b uint32) uint32 {
	s := b & 0xFF
	if s >= 32 {
		s = 31
	}
	return uint32(int32(a) >> s)
}

// AveragePowerMW returns the run's average power in milliwatts:
// energy / time.
func (m *Machine) AveragePowerMW(s *Stats) float64 {
	t := m.TimeSeconds(s)
	if t == 0 {
		return 0
	}
	return s.EnergyMJ() / t // mJ per second = mW
}
