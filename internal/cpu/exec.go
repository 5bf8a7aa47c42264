package cpu

import (
	"encoding/binary"

	"adelie/internal/isa"
	"adelie/internal/mm"
)

// kind is an executor opcode: the AK64 opcodes renumbered densely from
// zero, so the executor's switch compiles to one jump table instead of
// the compare tree the sparse opcode bytes would give.
type kind uint8

const (
	kBad kind = iota // no AK64 opcode maps here; executing it faults
	kNOP
	kHLT
	kMOVI // MOVI and MOVABS: both load Imm
	kMOV
	kLEARIP
	kADD
	kSUB
	kXOR
	kAND
	kOR
	kIMUL
	kUDIV
	kADDI
	kSUBI
	kXORI
	kANDI
	kSHLI
	kSHRI
	kCMP
	kCMPI
	kTEST
	kLOAD
	kSTORE
	kLDRIP
	kSTRIP
	kXORM
	kPUSH
	kPOP
	kJMP
	kJE
	kJNE
	kJL
	kJGE
	kJLE
	kJG
	kJB
	kJAE
	kCALL
	kCALLR
	kCALLM
	kJMPR
	kJMPM
	kRET
	kGuard    // no opcode: a trace's direct boundary, a final JMP/Jcc or a link record
	kCallEdge // no opcode: a trace constituent's final CALL and its kGuard
	kLink     // no opcode: a trace's indirect boundary
	kRetEdge  // no opcode: a trace constituent's final RET and its kLink
	kNative   // no opcode: a trace boundary that runs a native
	kLoop     // no opcode: a loop's back edge, a final JMP/Jcc or a link record
)

// kinds maps every AK64 opcode byte to its executor kind; bytes that are
// not opcodes map to kBad.
var kinds = [256]kind{
	isa.OpNOP: kNOP, isa.OpHLT: kHLT,
	isa.OpMOVI: kMOVI, isa.OpMOVABS: kMOVI, isa.OpMOV: kMOV, isa.OpLEARIP: kLEARIP,
	isa.OpADD: kADD, isa.OpSUB: kSUB, isa.OpXOR: kXOR, isa.OpAND: kAND,
	isa.OpOR: kOR, isa.OpIMUL: kIMUL, isa.OpUDIV: kUDIV,
	isa.OpADDI: kADDI, isa.OpSUBI: kSUBI, isa.OpXORI: kXORI, isa.OpANDI: kANDI,
	isa.OpSHLI: kSHLI, isa.OpSHRI: kSHRI,
	isa.OpCMP: kCMP, isa.OpCMPI: kCMPI, isa.OpTEST: kTEST,
	isa.OpLOAD: kLOAD, isa.OpSTORE: kSTORE, isa.OpLDRIP: kLDRIP, isa.OpSTRIP: kSTRIP,
	isa.OpXORM: kXORM, isa.OpPUSH: kPUSH, isa.OpPOP: kPOP,
	isa.OpJMP: kJMP, isa.OpJE: kJE, isa.OpJNE: kJNE, isa.OpJL: kJL, isa.OpJGE: kJGE,
	isa.OpJLE: kJLE, isa.OpJG: kJG, isa.OpJB: kJB, isa.OpJAE: kJAE,
	isa.OpCALL: kCALL, isa.OpCALLR: kCALLR, isa.OpCALLM: kCALLM,
	isa.OpJMPR: kJMPR, isa.OpJMPM: kJMPM, isa.OpRET: kRET,
}

// inst is one decoded instruction in executor form: 16 bytes against
// isa.Inst's 32. Its registers come from isa.Decode, which rejects any
// outside the register file, so indexing Regs with them is in range.
type inst struct {
	imm    int64
	disp   int32
	k      kind
	r1, r2 isa.Reg
	len    uint8
}

// decoded converts a decoded AK64 instruction to executor form.
func decoded(in isa.Inst) inst {
	return inst{imm: in.Imm, disp: in.Disp, k: kinds[in.Op], r1: in.R1, r2: in.R2, len: uint8(in.Len)}
}

// execBlock executes b from c.RIP: a basic block whose only control
// transfer is its last instruction, or the one instruction Step fetched.
// It is the only place AK64 instructions execute. It returns how many
// instructions it retired — a faulting one included, as the caller
// charges it — and (halted, err) as Step does. c.RIP is left at the
// faulting instruction on a fault and at the next instruction (or branch
// target) otherwise.
//
// With c.memFast armed (inside a block) loads and stores first take the
// TLB's resident word probes (mm.TLB.LoadPage/StorePage, inlined: no call
// on a hit). A declined probe counts nothing and falls back to
// load64/store64/Push/Pop, whose full path re-probes and accounts exactly
// as an unarmed access does.
//
// b may be the records of c.run's trace, whose boundary records end one
// constituent block each and go on to the next (see runTrace). The
// count returned then indexes those records — from the loop's first
// record once a back edge was taken —, c.run.part names the constituent
// a boundary left at, and c.run.nat the native a run ended after.
func (c *CPU) execBlock(b []inst) (int, bool, error) {
	rip := c.RIP
lap:
	for i := range b {
		in := &b[i]
		next := rip + uint64(in.len)
		switch in.k {
		case kBad:
			return i + 1, false, c.faultAt(rip, "unimplemented opcode", nil)
		case kNOP:
		case kHLT:
			c.RIP = next
			return i + 1, true, nil
		case kMOVI:
			c.Regs[in.r1] = uint64(in.imm)
		case kMOV:
			c.Regs[in.r1] = c.Regs[in.r2]
		case kLEARIP:
			c.Regs[in.r1] = next + uint64(int64(in.disp))
		case kADD:
			c.Regs[in.r1] += c.Regs[in.r2]
		case kSUB:
			c.Regs[in.r1] -= c.Regs[in.r2]
		case kXOR:
			c.Regs[in.r1] ^= c.Regs[in.r2]
		case kAND:
			c.Regs[in.r1] &= c.Regs[in.r2]
		case kOR:
			c.Regs[in.r1] |= c.Regs[in.r2]
		case kIMUL:
			c.Regs[in.r1] *= c.Regs[in.r2]
		case kUDIV:
			if c.Regs[in.r2] == 0 {
				return i + 1, false, c.faultAt(rip, "divide by zero", nil)
			}
			c.Regs[in.r1] /= c.Regs[in.r2]
		case kADDI:
			c.Regs[in.r1] += uint64(in.imm)
		case kSUBI:
			c.Regs[in.r1] -= uint64(in.imm)
		case kXORI:
			c.Regs[in.r1] ^= uint64(in.imm)
		case kANDI:
			c.Regs[in.r1] &= uint64(in.imm)
		case kSHLI:
			c.Regs[in.r1] <<= uint64(in.imm) & 63
		case kSHRI:
			c.Regs[in.r1] >>= uint64(in.imm) & 63
		case kCMP:
			c.setFlags(c.Regs[in.r1], c.Regs[in.r2])
		case kCMPI:
			c.setFlags(c.Regs[in.r1], uint64(in.imm))
		case kTEST:
			v := c.Regs[in.r1] & c.Regs[in.r2]
			c.flags = b2u(v == 0) | b2u(int64(v) < 0)<<1

		case kLOAD:
			addr := c.Regs[in.r2] + uint64(int64(in.disp))
			if c.memFast {
				if p, ok := c.TLB.LoadPage(addr); ok {
					c.Regs[in.r1] = binary.LittleEndian.Uint64(p[addr&mm.PageMask:])
					break
				}
			}
			v, err := c.load64(addr)
			if err != nil {
				return i + 1, false, c.faultAt(rip, "load", err)
			}
			c.Regs[in.r1] = v
		case kSTORE:
			addr := c.Regs[in.r2] + uint64(int64(in.disp))
			if c.memFast {
				if p, ok := c.TLB.StorePage(addr); ok {
					binary.LittleEndian.PutUint64(p[addr&mm.PageMask:], c.Regs[in.r1])
					break
				}
			}
			if err := c.store64(addr, c.Regs[in.r1]); err != nil {
				return i + 1, false, c.faultAt(rip, "store", err)
			}
		case kLDRIP:
			addr := next + uint64(int64(in.disp))
			if c.memFast {
				if p, ok := c.TLB.LoadPage(addr); ok {
					c.Regs[in.r1] = binary.LittleEndian.Uint64(p[addr&mm.PageMask:])
					break
				}
			}
			v, err := c.load64(addr)
			if err != nil {
				return i + 1, false, c.faultAt(rip, "rip-relative load", err)
			}
			c.Regs[in.r1] = v
		case kSTRIP:
			addr := next + uint64(int64(in.disp))
			if c.memFast {
				if p, ok := c.TLB.StorePage(addr); ok {
					binary.LittleEndian.PutUint64(p[addr&mm.PageMask:], c.Regs[in.r1])
					break
				}
			}
			if err := c.store64(addr, c.Regs[in.r1]); err != nil {
				return i + 1, false, c.faultAt(rip, "rip-relative store", err)
			}
		case kXORM:
			addr := c.Regs[in.r2] + uint64(int64(in.disp))
			v, err := c.load64(addr)
			if err != nil {
				return i + 1, false, c.faultAt(rip, "xor-mem load", err)
			}
			if err := c.store64(addr, v^c.Regs[in.r1]); err != nil {
				return i + 1, false, c.faultAt(rip, "xor-mem store", err)
			}
		case kPUSH:
			// As Push: the value is read before RSP moves (PUSH RSP
			// pushes the old value) and RSP stays moved on a fault.
			v := c.Regs[in.r1]
			c.Regs[isa.RSP] -= 8
			sp := c.Regs[isa.RSP]
			if c.memFast {
				if p, ok := c.TLB.StorePage(sp); ok {
					binary.LittleEndian.PutUint64(p[sp&mm.PageMask:], v)
					break
				}
			}
			if err := c.store64(sp, v); err != nil {
				return i + 1, false, c.faultAt(rip, "push", err)
			}
		case kPOP:
			// As Pop: RSP moves before the value lands in R1, so POP RSP
			// ends with the popped value.
			sp := c.Regs[isa.RSP]
			if c.memFast {
				if p, ok := c.TLB.LoadPage(sp); ok {
					c.Regs[isa.RSP] = sp + 8
					c.Regs[in.r1] = binary.LittleEndian.Uint64(p[sp&mm.PageMask:])
					break
				}
			}
			v, err := c.Pop()
			if err != nil {
				return i + 1, false, c.faultAt(rip, "pop", err)
			}
			c.Regs[in.r1] = v

		// Control transfers end their block; each leaves the target in
		// next.
		case kJMP, kJE, kJNE, kJL, kJGE, kJLE, kJG, kJB, kJAE:
			if condTaken[in.k]>>(c.flags&7)&1 != 0 {
				next += uint64(int64(in.disp))
			}
		case kCALL:
			ret := next
			next += uint64(int64(in.disp))
			sp := c.Regs[isa.RSP] - 8
			if c.memFast {
				if p, ok := c.TLB.StorePage(sp); ok {
					binary.LittleEndian.PutUint64(p[sp&mm.PageMask:], ret)
					c.Regs[isa.RSP] = sp
					break
				}
			}
			if err := c.Push(ret); err != nil {
				return i + 1, false, c.faultAt(rip, "call", err)
			}
		case kCALLR:
			// The target register is read after the push, as CALLR RSP
			// needs.
			sp := c.Regs[isa.RSP] - 8
			if c.memFast {
				if p, ok := c.TLB.StorePage(sp); ok {
					binary.LittleEndian.PutUint64(p[sp&mm.PageMask:], next)
					c.Regs[isa.RSP] = sp
					next = c.Regs[in.r1]
					break
				}
			}
			if err := c.Push(next); err != nil {
				return i + 1, false, c.faultAt(rip, "call", err)
			}
			next = c.Regs[in.r1]
		case kCALLM:
			// The GOT load is charged once, by the probe or by load64;
			// the push then takes its own probe.
			got, target, hit := next+uint64(int64(in.disp)), uint64(0), false
			if c.memFast {
				var p []byte
				if p, hit = c.TLB.LoadPage(got); hit {
					target = binary.LittleEndian.Uint64(p[got&mm.PageMask:])
				}
			}
			if !hit {
				v, err := c.load64(got)
				if err != nil {
					return i + 1, false, c.faultAt(rip, "got-indirect call", err)
				}
				target = v
			}
			sp := c.Regs[isa.RSP] - 8
			hit = false
			if c.memFast {
				var p []byte
				if p, hit = c.TLB.StorePage(sp); hit {
					binary.LittleEndian.PutUint64(p[sp&mm.PageMask:], next)
					c.Regs[isa.RSP] = sp
				}
			}
			if !hit {
				if err := c.Push(next); err != nil {
					return i + 1, false, c.faultAt(rip, "call", err)
				}
			}
			next = target

		// An indirect jump or return to HostReturn ends the Call.
		case kJMPR:
			if next = c.Regs[in.r1]; next == HostReturn {
				c.RIP = next
				return i + 1, true, nil
			}
		case kJMPM:
			got, hit := next+uint64(int64(in.disp)), false
			if c.memFast {
				var p []byte
				if p, hit = c.TLB.LoadPage(got); hit {
					next = binary.LittleEndian.Uint64(p[got&mm.PageMask:])
				}
			}
			if !hit {
				v, err := c.load64(got)
				if err != nil {
					return i + 1, false, c.faultAt(rip, "got-indirect jmp", err)
				}
				next = v
			}
			if next == HostReturn {
				c.RIP = next
				return i + 1, true, nil
			}
		case kRET:
			sp, hit := c.Regs[isa.RSP], false
			if c.memFast {
				var p []byte
				if p, hit = c.TLB.LoadPage(sp); hit {
					c.Regs[isa.RSP] = sp + 8
					next = binary.LittleEndian.Uint64(p[sp&mm.PageMask:])
				}
			}
			if !hit {
				v, err := c.Pop()
				if err != nil {
					return i + 1, false, c.faultAt(rip, "ret", err)
				}
				next = v
			}
			if next == HostReturn {
				c.RIP = next
				return i + 1, true, nil
			}

		// Trace boundaries (see superblock.go's "Traces"). A kGuard is
		// a constituent's final JMP/Jcc or, with length and mask 0, a
		// link record after its exit; a kCallEdge is a final CALL and
		// then its kGuard. The run goes on at the next constituent while
		// the target is the recorded one, the chain bound allows another
		// block and, once a slow store or an MMIO access disarmed the
		// probes, every constituent is current; otherwise it leaves at
		// the target, and runTrace charges the constituent in r1 and
		// hands its exit back to runChain.
		case kCallEdge:
			ret := next
			next += uint64(int64(in.disp))
			sp, hit := c.Regs[isa.RSP]-8, false
			if c.memFast {
				var p []byte
				if p, hit = c.TLB.StorePage(sp); hit {
					binary.LittleEndian.PutUint64(p[sp&mm.PageMask:], ret)
					c.Regs[isa.RSP] = sp
				}
			}
			if !hit {
				if err := c.Push(ret); err != nil {
					return i + 1, false, c.faultAt(rip, "call", err)
				}
			}
			fallthrough // its mask is 0: the guard takes no branch
		case kGuard:
			if uint8(in.r2)>>(c.flags&7)&1 != 0 {
				next += uint64(int64(in.disp))
			}
			r := &c.run
			if next != uint64(in.imm) || r.left == 0 || !c.memFast && !r.t.current() {
				c.RIP, r.part = next, int(in.r1)
				return i, false, nil
			}
			r.left--
			c.memFast = true
		// A loop's back edge, from the exit of its last constituent: as a
		// kGuard whose recorded VA is the loop's first constituent's. The
		// exit's other direction goes on to the next record, the tail's
		// link record, or ends the trace.
		case kLoop:
			if uint8(in.r2)>>(c.flags&7)&1 != 0 {
				next += uint64(int64(in.disp))
			}
			if next != uint64(in.imm) {
				break
			}
			r := &c.run
			if r.left == 0 || !c.memFast && !r.t.current() {
				c.RIP, r.part = next, int(in.r1)
				return i, false, nil
			}
			r.left--
			r.laps++
			c.memFast = true
			rip, b = next, r.t.loop
			goto lap
		// An indirect exit's boundary: as a link record, and the edge is
		// crossed as runChain crosses it (traceLink). A kRetEdge is a
		// final RET and then its kLink.
		case kRetEdge:
			sp, hit := c.Regs[isa.RSP], false
			if c.memFast {
				var p []byte
				if p, hit = c.TLB.LoadPage(sp); hit {
					c.Regs[isa.RSP] = sp + 8
					next = binary.LittleEndian.Uint64(p[sp&mm.PageMask:])
				}
			}
			if !hit {
				v, err := c.Pop()
				if err != nil {
					return i + 1, false, c.faultAt(rip, "ret", err)
				}
				next = v
			}
			if next == HostReturn {
				c.RIP = next
				return i + 1, true, nil
			}
			fallthrough
		case kLink:
			r := &c.run
			if next != uint64(in.imm) || r.left == 0 || !c.memFast && !r.t.current() {
				c.RIP, r.part = next, int(in.r1)
				return i, false, nil
			}
			// The hit path of traceLink: disp holds the next constituent.
			if t := r.t; !linked(&t.parts[in.r1].sb.links[0], next, t.parts[in.disp].sb, t.gen) {
				c.traceLink(int(in.r1), next)
			} else {
				c.ChainedBlocks++
				c.IndirectChained++
			}
			r.left--
			c.memFast = true
		// A native's boundary: as a link record, then the native runs
		// (traceNative) and the run goes on at its return address.
		case kNative:
			r := &c.run
			if next != uint64(in.imm) || r.left == 0 {
				c.RIP, r.part = next, int(in.r1)
				return i, false, nil
			}
			c.RIP = next
			if ok, halted, err := c.traceNative(int(in.r1), int(in.disp)); !ok {
				return i, halted, err
			}
			next = c.RIP
		}
		rip = next
	}
	c.RIP = rip
	return len(b), false, nil
}

// faultAt syncs c.RIP to the faulting instruction at rip and returns its
// fault.
func (c *CPU) faultAt(rip uint64, reason string, err error) error {
	c.RIP = rip
	return c.fault(reason, err)
}

// condTaken holds, for each JMP/Jcc kind, one bit per flags state (see
// CPU.flags) that takes the branch: one table for branches and guards.
// Readers mask the flags with 7, which spares the shift a range check.
var condTaken = [256]uint8{
	kJMP: 0xff, kJE: 0xaa, kJNE: 0x55, kJL: 0xcc, kJGE: 0x33,
	kJLE: 0xee, kJG: 0x11, kJB: 0xf0, kJAE: 0x0f,
}

func b2u(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

func (c *CPU) setFlags(a, b uint64) {
	c.flags = b2u(a == b) | b2u(int64(a) < int64(b))<<1 | b2u(a < b)<<2
}
