// DOp executor: the committed-path engine of every production core. It
// dispatches over the pre-decoded basic-block stream built by
// internal/bbcache. Every op case below mirrors the corresponding case of
// the reference interpreter (reference.go) float-operation-for-float-
// operation — same max() chains, same policy consults, same cache accesses
// in the same order — so the two produce bit-identical simulated state; the
// lockstep oracle (LockstepRun) and FuzzBlockDecode enforce that.
//
// A PC no program block covers — user code, a non-leader, a block that
// would cross the instruction budget, the word after a text gap or an
// undecodable word — is fetched and decoded on the spot and run as a
// one-op block through the same per-op body. Squash windows run
// runTransient (through squashWindow), which walks the same blocks.
package cpu

import (
	"repro/internal/bbcache"
	"repro/internal/isa"
	"repro/internal/memsim"
)

// SetThreadedSource installs the decoded-program source consulted at each
// Run entry (kimage.Image.Decoded: rebuilds if the text version moved, else
// returns the cached program). A nil source — the default — selects the
// reference interpreter; tests use that for differential runs.
func (c *Core) SetThreadedSource(src func() *bbcache.Program) { c.progSrc = src }

// fetchDecode fetches the word at pc through the code source and decodes it
// into *op. It reports false on a fetch fault: an unmapped PC, or a
// user-mode fetch of kernel text (SMEP). The executor's decode-one path and
// runTransient's block misses share it.
func (c *Core) fetchDecode(pc uint64, op *isa.DOp) bool {
	inst := c.Code.FetchInst(pc)
	if inst == nil || (!c.kernelMode && memsim.IsKernel(pc)) {
		return false
	}
	*op = isa.DecodeInst(inst, pc)
	return true
}

// decodeOne fetches and decodes the word at pc into the one-op scratch
// block, or ends the run: at the instruction budget (the same instruction
// the reference truncates at) or on a fetch fault. It returns nil when the
// run ended.
func (c *Core) decodeOne(pc uint64, maxInsts int, res *RunResult) *bbcache.Block {
	if res.Insts >= uint64(maxInsts) {
		res.Truncated = true
		return nil
	}
	if !c.fetchDecode(pc, &c.one.Ops[0]) {
		res.Fault = true
		res.FaultPC = pc
		c.Stats.Faults++
		return nil
	}
	c.one.FallPC = pc + isa.InstBytes
	return &c.one
}

// Scoreboard-invariant exploited throughout the dispatch loop: readyAt[R0]
// and taintUntil[R0] are never written (every writeback site guards
// Rd != R0), so they are identically zero. Reading them through the plain
// array instead of the R0-checking ready()/tainted() helpers is therefore
// value-identical — max(x, 0) == x for the non-negative times the
// scoreboard holds — and it lets every ALU form share one general
// writeback tail: the *Z decode specializations compute the same floats
// through the same operations, just with provably-zero Rs2 terms.

// runThreaded executes committed instructions from pc until the run ends.
// Program blocks come from the PC index (kernel mode only: user code is
// never in the program) or from chained successor pointers; anything else
// is decoded one op at a time. ThreadedInsts counts only instructions
// retired from program blocks, and BBLookups/BBHits only PC-index probes.
func (c *Core) runThreaded(pc uint64, maxInsts int, fetchSlot float64, res *RunResult, baseDepth int) {
	prog := c.prog
	execDelay := float64(c.Cfg.ExecDelay)
	// polUnsafe short-circuits the speculative-transmitter consult when the
	// policy is the UNSAFE baseline: AllowAll.OnTransmit is stateless and
	// Cache.Lookup is read-only, so skipping the Access fill + interface
	// call + L1 probe is invisible to simulated state. Concrete-type check
	// so any real policy (including one wrapping AllowAll) keeps the full
	// consult — Perspective fills view caches inside OnTransmit.
	_, polUnsafe := c.Policy.(AllowAll)

	// blk is the block to run at pc, or nil to find one; probe says whether
	// finding one may consult the PC index.
	one := &c.one
	var blk *bbcache.Block
	probe := c.kernelMode
	for {
		if blk == nil && probe {
			c.Stats.BBLookups++
			if blk = prog.BlockAt(pc); blk != nil {
				c.Stats.BBHits++
			}
		}
		if blk == nil || res.Insts+uint64(len(blk.Ops)) > uint64(maxInsts) {
			if blk = c.decodeOne(pc, maxInsts, res); blk == nil {
				return
			}
		}
		ops := blk.Ops
		// Counter batching: the whole block retires or the exit path
		// reconciles, so the per-op loop touches no Stats fields for the
		// common kinds.
		res.Insts += uint64(len(ops))
		c.Stats.Insts += uint64(len(ops))
		if blk != one {
			c.Stats.ThreadedInsts += uint64(len(ops))
		}
		// Block entry: the previous fetch line is dynamic state, so the
		// first op always takes the full line check; interior ops use the
		// decode-time crossing flag.
		c.fetchTiming(ops[0].PC)

		var (
			nb       *bbcache.Block
			npc      uint64
			haveNext bool
			stop     bool
		)
		for i := range ops {
			op := &ops[i]
			if i > 0 && op.LineCross {
				c.fetchTimingLine(op.PC, op.PC>>6)
			}
			c.now += fetchSlot

			// alu routes the simple ALU forms through the shared writeback
			// tail below the switch; v is their result.
			alu := false
			var v uint64

			switch op.Kind {
			case isa.DNop:
				c.commit(c.now)

			case isa.DMov, isa.DMovZ:
				v, alu = c.Regs[op.Rs1], true

			case isa.DAddImm, isa.DAddImmZ:
				v, alu = c.Regs[op.Rs1]+uint64(op.Imm), true

			case isa.DAndImm, isa.DAndImmZ:
				v, alu = c.Regs[op.Rs1]&uint64(op.Imm), true

			case isa.DShlImm, isa.DShlImmZ:
				v, alu = c.Regs[op.Rs1]<<(uint64(op.Imm)&63), true

			case isa.DShrImm, isa.DShrImmZ:
				v, alu = c.Regs[op.Rs1]>>(uint64(op.Imm)&63), true

			case isa.DMovImm:
				startT := c.now
				if r := c.readyAt[op.Rs1]; r > startT {
					startT = r
				}
				if r := c.readyAt[op.Rs2]; r > startT {
					startT = r
				}
				done := startT + 1
				if op.Rd != isa.R0 {
					c.Regs[op.Rd] = uint64(op.Imm)
					c.readyAt[op.Rd] = done
					c.taintUntil[op.Rd] = 0 // immediates clear taint
				}
				c.commit(done)

			case isa.DAdd:
				v, alu = c.Regs[op.Rs1]+c.Regs[op.Rs2], true

			case isa.DSub:
				v, alu = c.Regs[op.Rs1]-c.Regs[op.Rs2], true

			case isa.DAnd:
				v, alu = c.Regs[op.Rs1]&c.Regs[op.Rs2], true

			case isa.DOr:
				v, alu = c.Regs[op.Rs1]|c.Regs[op.Rs2], true

			case isa.DXor:
				v, alu = c.Regs[op.Rs1]^c.Regs[op.Rs2], true

			case isa.DALUGen:
				v, alu = isa.EvalALU(op.AK, c.Regs[op.Rs1], c.Regs[op.Rs2], op.Imm), true

			case isa.DMul:
				startT := c.now
				if r := c.readyAt[op.Rs1]; r > startT {
					startT = r
				}
				if r := c.readyAt[op.Rs2]; r > startT {
					startT = r
				}
				if startT < c.specUntil && !polUnsafe {
					c.acc = Access{
						PC: op.PC, IsLoad: false, Ctx: c.ctx, Kernel: c.kernelMode,
						AddrTainted: c.tainted(op.Rs1, startT) || c.tainted(op.Rs2, startT),
					}
					switch c.Policy.OnTransmit(&c.acc) {
					case Block:
						c.Stats.Fences++
						c.Stats.FenceDelay += c.specUntil - startT
						startT = c.specUntil
						c.now += c.Cfg.FencePenalty
					case BlockUntaint:
						c.Stats.Fences++
						if u := max(c.taintUntil[op.Rs1], c.taintUntil[op.Rs2]); u > startT {
							c.Stats.FenceDelay += u - startT
							startT = u
						}
					}
				}
				mv := c.Regs[op.Rs1] * c.Regs[op.Rs2]
				done := startT + float64(c.Cfg.MulLatency)
				if op.Rd != isa.R0 {
					c.Regs[op.Rd] = mv
					c.readyAt[op.Rd] = done
					t := c.taintUntil[op.Rs1]
					if t2 := c.taintUntil[op.Rs2]; t2 > t {
						t = t2
					}
					c.taintUntil[op.Rd] = t
				}
				c.commit(done)

			case isa.DLoad:
				c.Stats.Loads++
				startT := c.now
				if r := c.readyAt[op.Rs1]; r > startT {
					startT = r
				}
				va := c.Regs[op.Rs1] + uint64(op.Imm)
				pa := c.Mem.ResolveFast(va, op.Size)
				okA := pa != memsim.ResolveMiss
				if !okA {
					pa, okA = c.Mem.Resolve(va, op.Size)
				}
				if !okA {
					res.Fault = true
					res.FaultPC, res.FaultVA = op.PC, va
					c.Stats.Faults++
					unretired := uint64(len(ops) - i - 1)
					res.Insts -= unretired
					c.Stats.Insts -= unretired
					c.Stats.ThreadedInsts -= unretired
					stop = true
					break
				}
				if startT < c.specUntil && !polUnsafe {
					c.acc = Access{
						PC: op.PC, VA: va, IsLoad: true, Ctx: c.ctx, Kernel: c.kernelMode,
						L1Hit:       c.H.L1D.Lookup(pa),
						AddrTainted: c.tainted(op.Rs1, startT),
					}
					switch c.Policy.OnTransmit(&c.acc) {
					case Block:
						c.Stats.Fences++
						c.Stats.FenceDelay += c.specUntil - startT
						startT = c.specUntil // wait for the visibility point
						c.now += c.Cfg.FencePenalty
					case BlockUntaint:
						c.Stats.Fences++
						if u := c.taintUntil[op.Rs1]; u > startT {
							c.Stats.FenceDelay += u - startT
							startT = u
						}
					}
				}
				lat := c.l0DataFast(pa)
				if lat < 0 {
					lat = c.l0DataSlow(pa)
				}
				v := c.Mem.LoadPA(pa, op.Size)
				done := startT + float64(lat)
				if op.Rd != isa.R0 {
					c.Regs[op.Rd] = v
					c.readyAt[op.Rd] = done
					if startT < c.specUntil {
						c.taintUntil[op.Rd] = c.specUntil
					} else {
						c.taintUntil[op.Rd] = 0
					}
				}
				c.commit(done)

			case isa.DStore:
				c.Stats.Stores++
				startT := c.now
				if r := c.readyAt[op.Rs1]; r > startT {
					startT = r
				}
				if r := c.readyAt[op.Rs2]; r > startT {
					startT = r
				}
				va := c.Regs[op.Rs1] + uint64(op.Imm)
				pa := c.Mem.ResolveFast(va, op.Size)
				okA := pa != memsim.ResolveMiss
				if !okA {
					pa, okA = c.Mem.Resolve(va, op.Size)
				}
				if !okA {
					res.Fault = true
					res.FaultPC, res.FaultVA = op.PC, va
					c.Stats.Faults++
					unretired := uint64(len(ops) - i - 1)
					res.Insts -= unretired
					c.Stats.Insts -= unretired
					c.Stats.ThreadedInsts -= unretired
					stop = true
					break
				}
				c.Mem.StorePA(pa, op.Size, c.Regs[op.Rs2])
				if c.l0DataFast(pa) < 0 {
					c.l0DataSlow(pa)
				}
				c.commit(startT + 1)

			case isa.DBranch:
				c.Stats.Branches++
				startT := c.now + execDelay
				if r := c.readyAt[op.Rs1]; r > startT {
					startT = r
				}
				if r := c.readyAt[op.Rs2]; r > startT {
					startT = r
				}
				resolve := startT + 1
				taken := isa.EvalCond(op.CK, c.Regs[op.Rs1], c.Regs[op.Rs2])
				predicted := c.BP.Cond.Predict(op.PC)
				c.BP.Cond.Update(op.PC, taken)
				if c.specUntil < resolve {
					c.specUntil = resolve
				}
				if predicted != taken {
					c.Stats.Mispredicts++
					wrong := blk.FallPC
					if predicted {
						wrong = op.Target
					}
					c.squashWindow(op.PC, wrong, resolve)
				} else if c.Fault != nil && c.Fault.SpuriousSquash(op.PC) {
					wrong := op.Target
					if taken {
						wrong = blk.FallPC
					}
					c.squashWindow(op.PC, wrong, resolve)
				}
				c.commit(resolve)
				if taken {
					nb, npc = blk.SuccTaken, op.Target
				} else {
					nb, npc = blk.SuccFall, blk.FallPC
				}
				haveNext = true

			case isa.DJmp:
				c.commit(c.now)
				nb, npc, haveNext = blk.Succ, op.Target, true

			case isa.DCall:
				c.callStack = append(c.callStack, blk.FallPC)
				c.BP.RAS.Push(blk.FallPC)
				c.commit(c.now)
				c.traceEnter(op.Target)
				nb, npc, haveNext = blk.Succ, op.Target, true

			case isa.DICall, isa.DIJmp:
				c.Stats.Branches++
				startT := c.now + execDelay
				if r := c.readyAt[op.Rs1]; r > startT {
					startT = r
				}
				resolve := startT + 1
				actual := c.Regs[op.Rs1]
				if c.specUntil < resolve {
					c.specUntil = resolve
				}
				if p := c.Policy.IndirectPenalty(); p > 0 && c.kernelMode {
					c.now = resolve + float64(p)
				} else {
					predicted, okP := c.BP.BTB.Predict(op.PC)
					if okP && predicted != actual {
						c.Stats.Mispredicts++
						c.squashWindow(op.PC, predicted, resolve)
					} else if !okP {
						c.now = resolve
					}
				}
				c.BP.BTB.Update(op.PC, actual)
				if op.Kind == isa.DICall {
					c.callStack = append(c.callStack, blk.FallPC)
					c.BP.RAS.Push(blk.FallPC)
					c.traceEnter(actual)
				}
				c.commit(resolve)
				npc, haveNext = actual, true

			case isa.DRet:
				c.Stats.Branches++
				resolve := c.now + float64(c.Cfg.ExecDelay+c.H.L1Lat)
				if c.specUntil < resolve {
					c.specUntil = resolve
				}
				predicted, okP := c.BP.RAS.Pop()
				if len(c.callStack) == baseDepth {
					// Entry-frame return: ends the run (see the reference
					// case for the Retbleed window this opens).
					if okP && predicted != 0 {
						c.Stats.Mispredicts++
						c.squashWindow(op.PC, predicted, resolve)
					}
					c.commit(resolve)
					res.Ret = c.Regs[isa.R1]
					stop = true
					break
				}
				actual := c.callStack[len(c.callStack)-1]
				c.callStack = c.callStack[:len(c.callStack)-1]
				if okP && predicted != actual {
					c.Stats.Mispredicts++
					c.squashWindow(op.PC, predicted, resolve)
				} else if !okP {
					c.now = resolve
				}
				c.commit(resolve)
				npc, haveNext = actual, true

			case isa.DFence:
				c.now = max(c.now, c.specUntil, c.lastCommit)
				c.commit(c.now)

			case isa.DHalt:
				c.commit(c.now)
				res.Ret = c.Regs[isa.R1]
				stop = true

			case isa.DBad:
				// An undecodable word (decode-one only: program blocks never
				// hold one) faults where it stands.
				res.Fault = true
				res.FaultPC = op.PC
				c.Stats.Faults++
				stop = true
			}

			if alu {
				// Shared single-cycle ALU tail: writeback, readiness, taint
				// propagation, commit — the reference's OpALU epilogue with
				// the R0 reads folded away by the scoreboard invariant above.
				startT := c.now
				if r := c.readyAt[op.Rs1]; r > startT {
					startT = r
				}
				if r := c.readyAt[op.Rs2]; r > startT {
					startT = r
				}
				done := startT + 1
				if op.Rd != isa.R0 {
					c.Regs[op.Rd] = v
					c.readyAt[op.Rd] = done
					t := c.taintUntil[op.Rs1]
					if t2 := c.taintUntil[op.Rs2]; t2 > t {
						t = t2
					}
					c.taintUntil[op.Rd] = t
				}
				c.commit(done)
			}
			if c.stepHook != nil {
				c.stepHook(op.PC)
			}
			if stop {
				return
			}
		}

		switch {
		case !haveNext:
			// Straight-line code ran on. After a program block that means a
			// text gap or an undecodable word: decode it directly, without
			// a PC-index probe.
			pc, probe = ops[len(ops)-1].PC+isa.InstBytes, blk == one && c.kernelMode
			blk = nil
		case nb == nil:
			pc, blk, probe = npc, nil, c.kernelMode
		default:
			c.Stats.BBChains++
			pc, blk = npc, nb
		}
	}
}
