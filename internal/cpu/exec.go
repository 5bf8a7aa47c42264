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
	kCross    // no record: execSlow's step that crosses a kLink's edge (traceLink)
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
// Its loop makes no call: every load64, store64, Push, Pop, fault, trace
// re-check, traceLink and native is in execSlow, which the loop reaches
// from one place. With nothing live across a call in the loop, the
// compiler keeps rip, next and the record index in registers instead of
// storing them to the stack before every dispatch, and the dispatch
// (load the record, compute next, jump through the table) fits in two
// cache lines wherever the linker places it. TestExecBlockLoopMakesNoCall
// holds the loop to this.
//
// Loads and stores first take the TLB's resident word probes
// (mm.TLB.LoadPage/StorePage, inlined), whenever load64 and store64
// would: with c.memFast armed (inside a block) or the TLB current. A
// declined probe counts nothing, and execSlow goes on from the step that
// declined through load64/store64/Push/Pop, whose full path re-probes and
// accounts exactly as an unarmed access does: a composite record whose
// first probe hit (a CALLM's GOT load, a kCallEdge's push, a kRetEdge's
// pop) is not probed again.
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
		var from kind // the step execSlow starts at, if not in's first
		switch in.k {
		case kBad, kXORM, kNative:
			goto slow
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
				goto slow // divide by zero
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
			if c.memFast || c.TLB.Current() {
				if p, ok := c.TLB.LoadPage(addr); ok {
					c.Regs[in.r1] = binary.LittleEndian.Uint64(p[addr&mm.PageMask:])
					break
				}
			}
			goto slow
		case kSTORE:
			addr := c.Regs[in.r2] + uint64(int64(in.disp))
			if c.memFast || c.TLB.Current() {
				if p, ok := c.TLB.StorePage(addr); ok {
					binary.LittleEndian.PutUint64(p[addr&mm.PageMask:], c.Regs[in.r1])
					break
				}
			}
			goto slow
		case kLDRIP:
			addr := next + uint64(int64(in.disp))
			if c.memFast || c.TLB.Current() {
				if p, ok := c.TLB.LoadPage(addr); ok {
					c.Regs[in.r1] = binary.LittleEndian.Uint64(p[addr&mm.PageMask:])
					break
				}
			}
			goto slow
		case kSTRIP:
			addr := next + uint64(int64(in.disp))
			if c.memFast || c.TLB.Current() {
				if p, ok := c.TLB.StorePage(addr); ok {
					binary.LittleEndian.PutUint64(p[addr&mm.PageMask:], c.Regs[in.r1])
					break
				}
			}
			goto slow
		case kPUSH:
			// As Push: the value is read before RSP moves (PUSH RSP
			// pushes the old value).
			sp := c.Regs[isa.RSP] - 8
			if c.memFast || c.TLB.Current() {
				if p, ok := c.TLB.StorePage(sp); ok {
					binary.LittleEndian.PutUint64(p[sp&mm.PageMask:], c.Regs[in.r1])
					c.Regs[isa.RSP] = sp
					break
				}
			}
			goto slow
		case kPOP:
			// As Pop: RSP moves before the value lands in R1, so POP RSP
			// ends with the popped value.
			sp := c.Regs[isa.RSP]
			if c.memFast || c.TLB.Current() {
				if p, ok := c.TLB.LoadPage(sp); ok {
					c.Regs[isa.RSP] = sp + 8
					c.Regs[in.r1] = binary.LittleEndian.Uint64(p[sp&mm.PageMask:])
					break
				}
			}
			goto slow

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
			if c.memFast || c.TLB.Current() {
				if p, ok := c.TLB.StorePage(sp); ok {
					binary.LittleEndian.PutUint64(p[sp&mm.PageMask:], ret)
					c.Regs[isa.RSP] = sp
					break
				}
			}
			goto slow
		case kCALLR:
			// The target register is read after the push, as CALLR RSP
			// needs.
			sp := c.Regs[isa.RSP] - 8
			if c.memFast || c.TLB.Current() {
				if p, ok := c.TLB.StorePage(sp); ok {
					binary.LittleEndian.PutUint64(p[sp&mm.PageMask:], next)
					c.Regs[isa.RSP] = sp
					next = c.Regs[in.r1]
					break
				}
			}
			goto slow
		case kCALLM:
			// The GOT load is charged once: a push that declines after
			// the GOT probe hit goes on as a CALL to the loaded target.
			if !c.memFast && !c.TLB.Current() {
				goto slow
			}
			got := next + uint64(int64(in.disp))
			p, ok := c.TLB.LoadPage(got)
			if !ok {
				goto slow
			}
			ret, sp := next, c.Regs[isa.RSP]-8
			next = binary.LittleEndian.Uint64(p[got&mm.PageMask:])
			if p, ok = c.TLB.StorePage(sp); !ok {
				from = kCALL
				goto slow
			}
			binary.LittleEndian.PutUint64(p[sp&mm.PageMask:], ret)
			c.Regs[isa.RSP] = sp

		// An indirect jump or return to HostReturn ends the Call.
		case kJMPR:
			if next = c.Regs[in.r1]; next == HostReturn {
				c.RIP = next
				return i + 1, true, nil
			}
		case kJMPM:
			got := next + uint64(int64(in.disp))
			if c.memFast || c.TLB.Current() {
				if p, ok := c.TLB.LoadPage(got); ok {
					if next = binary.LittleEndian.Uint64(p[got&mm.PageMask:]); next == HostReturn {
						c.RIP = next
						return i + 1, true, nil
					}
					break
				}
			}
			goto slow
		case kRET:
			sp := c.Regs[isa.RSP]
			if c.memFast || c.TLB.Current() {
				if p, ok := c.TLB.LoadPage(sp); ok {
					c.Regs[isa.RSP] = sp + 8
					if next = binary.LittleEndian.Uint64(p[sp&mm.PageMask:]); next == HostReturn {
						c.RIP = next
						return i + 1, true, nil
					}
					break
				}
			}
			goto slow

		// Trace boundaries (see superblock.go's "Traces"). A kGuard is
		// a constituent's final JMP/Jcc or, with length and mask 0, a
		// link record after its exit; a kCallEdge is a final CALL and
		// then its kGuard. The run goes on at the next constituent while
		// the target is the recorded one, the chain bound allows another
		// block and, once a slow store or an MMIO access disarmed the
		// probes, every constituent is current; otherwise it leaves at
		// the target, and runTrace charges the constituent in r1 and
		// hands its exit back to runChain. A disarmed run whose frames
		// some code write may have changed since the trace last found
		// them current re-checks them in execSlow.
		case kCallEdge:
			ret := next
			next += uint64(int64(in.disp))
			if !c.memFast && !c.TLB.Current() {
				goto slow
			}
			sp := c.Regs[isa.RSP] - 8
			p, ok := c.TLB.StorePage(sp)
			if !ok {
				goto slow
			}
			binary.LittleEndian.PutUint64(p[sp&mm.PageMask:], ret)
			c.Regs[isa.RSP] = sp
			fallthrough // its mask is 0: the guard takes no branch
		case kGuard:
			if uint8(in.r2)>>(c.flags&7)&1 != 0 {
				next += uint64(int64(in.disp))
			}
			r := &c.run
			if next != uint64(in.imm) || r.left == 0 {
				c.RIP, r.part = next, int(in.r1)
				return i, false, nil
			}
			if !c.memFast && mm.CodeWrites() != r.t.writes {
				from = kGuard
				goto slow
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
			if r.left == 0 {
				c.RIP, r.part = next, int(in.r1)
				return i, false, nil
			}
			if !c.memFast && mm.CodeWrites() != r.t.writes {
				goto slow
			}
			r.left--
			r.laps++
			c.memFast = true
			rip, b = next, r.t.loop
			goto lap
		// An indirect exit's boundary: as a link record, and the edge is
		// crossed as runChain crosses it: counted here on the hit path
		// of traceLink, replayed by traceLink otherwise. A kRetEdge is a
		// final RET and then its kLink. A kNative is a native's
		// boundary: as a link record, then the native runs (execSlow)
		// and the run goes on at its return address.
		case kRetEdge:
			if !c.memFast && !c.TLB.Current() {
				goto slow
			}
			sp := c.Regs[isa.RSP]
			p, ok := c.TLB.LoadPage(sp)
			if !ok {
				goto slow
			}
			c.Regs[isa.RSP] = sp + 8
			if next = binary.LittleEndian.Uint64(p[sp&mm.PageMask:]); next == HostReturn {
				c.RIP = next
				return i + 1, true, nil
			}
			fallthrough
		case kLink:
			r := &c.run
			if next != uint64(in.imm) || r.left == 0 {
				c.RIP, r.part = next, int(in.r1)
				return i, false, nil
			}
			t := r.t
			if !c.memFast && mm.CodeWrites() != t.writes {
				from = kLink
				goto slow
			}
			if !linked(&t.parts[in.r1].sb.links[0], next, t.parts[in.disp].sb, t.gen) {
				from = kCross
				goto slow
			}
			c.ChainedBlocks++
			c.IndirectChained++
			r.left--
			c.memFast = true
		}
		rip = next
		continue
	slow:
		n, to, halted, err := c.execSlow(in, from, i, rip, next)
		if n >= 0 {
			return n, halted, err
		}
		if rip = to; n == slowLap {
			b = c.run.t.loop
			goto lap
		}
	}
	c.RIP = rip
	return len(b), false, nil
}

// execSlow's outcomes besides execBlock's return values.
const (
	slowOn  = -1 // the record retired: the run goes on at the VA returned
	slowLap = -2 // a back edge was taken: the run goes on at the VA returned, the loop's first record
)

// execSlow runs record i of execBlock's records, in, at rip, from the
// step execBlock's loop could not take without a call: from its start
// (from == kBad), or from the step after a probe that hit — kCALL for a
// CALLM whose GOT probe hit, kGuard for a kCallEdge whose push hit, kLink
// for a kRetEdge whose pop hit —, or, with kCross, from a kLink's edge
// crossing once the loop has checked everything else. next holds in's fall-through VA or,
// once the loop resolved it, its target: a direct branch's, a CALL's, a
// guard's or the loaded GOT entry. It returns slowOn or slowLap and the
// VA the run goes on at, or execBlock's return values.
func (c *CPU) execSlow(in *inst, from kind, i int, rip, next uint64) (int, uint64, bool, error) {
	k := in.k
	if from != kBad {
		k = from
	}
	switch k {
	case kBad:
		return i + 1, 0, false, c.faultAt(rip, "unimplemented opcode", nil)
	case kUDIV:
		return i + 1, 0, false, c.faultAt(rip, "divide by zero", nil)
	case kLOAD:
		v, err := c.load64(c.Regs[in.r2] + uint64(int64(in.disp)))
		if err != nil {
			return i + 1, 0, false, c.faultAt(rip, "load", err)
		}
		c.Regs[in.r1] = v
	case kSTORE:
		if err := c.store64(c.Regs[in.r2]+uint64(int64(in.disp)), c.Regs[in.r1]); err != nil {
			return i + 1, 0, false, c.faultAt(rip, "store", err)
		}
	case kLDRIP:
		v, err := c.load64(next + uint64(int64(in.disp)))
		if err != nil {
			return i + 1, 0, false, c.faultAt(rip, "rip-relative load", err)
		}
		c.Regs[in.r1] = v
	case kSTRIP:
		if err := c.store64(next+uint64(int64(in.disp)), c.Regs[in.r1]); err != nil {
			return i + 1, 0, false, c.faultAt(rip, "rip-relative store", err)
		}
	case kXORM:
		addr := c.Regs[in.r2] + uint64(int64(in.disp))
		v, err := c.load64(addr)
		if err != nil {
			return i + 1, 0, false, c.faultAt(rip, "xor-mem load", err)
		}
		if err := c.store64(addr, v^c.Regs[in.r1]); err != nil {
			return i + 1, 0, false, c.faultAt(rip, "xor-mem store", err)
		}
	case kPUSH:
		// RSP stays moved on a fault.
		v := c.Regs[in.r1]
		c.Regs[isa.RSP] -= 8
		if err := c.store64(c.Regs[isa.RSP], v); err != nil {
			return i + 1, 0, false, c.faultAt(rip, "push", err)
		}
	case kPOP:
		v, err := c.Pop()
		if err != nil {
			return i + 1, 0, false, c.faultAt(rip, "pop", err)
		}
		c.Regs[in.r1] = v
	case kCALL:
		if err := c.Push(rip + uint64(in.len)); err != nil {
			return i + 1, 0, false, c.faultAt(rip, "call", err)
		}
	case kCALLR:
		if err := c.Push(next); err != nil {
			return i + 1, 0, false, c.faultAt(rip, "call", err)
		}
		next = c.Regs[in.r1]
	case kCALLM:
		v, err := c.load64(next + uint64(int64(in.disp)))
		if err != nil {
			return i + 1, 0, false, c.faultAt(rip, "got-indirect call", err)
		}
		if err := c.Push(next); err != nil {
			return i + 1, 0, false, c.faultAt(rip, "call", err)
		}
		next = v
	case kJMPM:
		v, err := c.load64(next + uint64(int64(in.disp)))
		if err != nil {
			return i + 1, 0, false, c.faultAt(rip, "got-indirect jmp", err)
		}
		if next = v; next == HostReturn {
			c.RIP = next
			return i + 1, 0, true, nil
		}
	case kRET:
		v, err := c.Pop()
		if err != nil {
			return i + 1, 0, false, c.faultAt(rip, "ret", err)
		}
		if next = v; next == HostReturn {
			c.RIP = next
			return i + 1, 0, true, nil
		}

	case kCallEdge:
		if err := c.Push(rip + uint64(in.len)); err != nil {
			return i + 1, 0, false, c.faultAt(rip, "call", err)
		}
		fallthrough
	case kGuard:
		r := &c.run
		if next != uint64(in.imm) || r.left == 0 || !c.memFast && !r.t.current() {
			c.RIP, r.part = next, int(in.r1)
			return i, 0, false, nil
		}
		r.left--
		c.memFast = true
	case kLoop: // the loop has checked the target and the chain bound
		r := &c.run
		if !r.t.current() {
			c.RIP, r.part = next, int(in.r1)
			return i, 0, false, nil
		}
		r.left--
		r.laps++
		c.memFast = true
		return slowLap, next, false, nil
	case kRetEdge:
		v, err := c.Pop()
		if err != nil {
			return i + 1, 0, false, c.faultAt(rip, "ret", err)
		}
		if next = v; next == HostReturn {
			c.RIP = next
			return i + 1, 0, true, nil
		}
		fallthrough
	case kLink:
		r := &c.run
		if next != uint64(in.imm) || r.left == 0 || !c.memFast && !r.t.current() {
			c.RIP, r.part = next, int(in.r1)
			return i, 0, false, nil
		}
		if t := r.t; !linked(&t.parts[in.r1].sb.links[0], next, t.parts[in.disp].sb, t.gen) {
			c.traceLink(int(in.r1), next)
		} else {
			c.ChainedBlocks++
			c.IndirectChained++
		}
		r.left--
		c.memFast = true
	case kCross: // the loop has checked the edge, whose link runChain would miss
		c.traceLink(int(in.r1), next)
		c.run.left--
		c.memFast = true
	// A native's boundary runs the native as chainNative runs it, with
	// c.RIP at the native. The run ends at the boundary, as at a link
	// record, if the native's call-site link is not the one recorded
	// (another path rewrote it, so runChain would miss it), and after
	// the native, with c.run.nat set, if its return does not chain.
	case kNative:
		r, e, n := &c.run, int(in.r1), int(in.disp)
		t := r.t
		tn := &t.natives[n]
		if l := tn.link; next != uint64(in.imm) || r.left == 0 || l.va != next || l.nat != tn.nat || l.gen != t.bgen {
			c.RIP, r.part = next, e
			return i, 0, false, nil
		}
		left, laps := r.left-1, r.laps
		c.RIP, c.memFast = next, false // as between blocks: the native may remap
		halted, err := c.runNative(tn.nat)
		// A nested Call may have run traces: restore this run's state,
		// field by field (a whole-struct store is a typedmemmove).
		r.left, r.laps, r.part, r.nat = left, laps, e, n
		if r.t != t {
			r.t = t
		}
		// The return chains as nativeReturn would chain it: to the
		// recorded block, through a link under the trace's generation.
		if rl := tn.link.ret; halted || err != nil || c.RIP != tn.ret || rl == nil || rl.va != tn.ret ||
			rl.gen != t.gen || rl.sb != t.parts[e+1].sb || c.AS.Generation() != t.gen ||
			c.blockGen != t.bgen || c.sampler != nil || !t.current() {
			return i, 0, halted, err
		}
		r.part, r.nat = -1, -1
		c.ChainedBlocks++
		if tn.ind {
			c.IndirectChained++
		}
		c.memFast = true
		next = c.RIP
	}
	return slowOn, next, false, nil
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
