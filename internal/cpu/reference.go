// Reference interpreter: the committed-path semantics the DOp executor
// (threaded.go) is checked against. Run selects it only when no decoded
// program is attached — tests do that with SetThreadedSource(nil) to get
// the lockstep oracle's second machine. It shares none of the executor's
// host-side memos: it fetches through Code.FetchInst, interprets isa.Inst
// rather than a decoded DOp, and charges every access through the
// hierarchy rather than the L0 (l0.go), so a decoder or memo bug shows up
// as a lockstep divergence. Squash windows run runTransient in both.
package cpu

import (
	"repro/internal/isa"
	"repro/internal/memsim"
)

// stepRef executes exactly one instruction the slow way: fetch through the
// code source, then dispatch on the isa.Inst fields themselves. It returns
// the next PC and whether the run ended.
func (c *Core) stepRef(pc uint64, maxInsts int, fetchSlot float64, res *RunResult, baseDepth int) (uint64, bool) {
	if res.Insts >= uint64(maxInsts) {
		res.Truncated = true
		return pc, true
	}
	inst := c.Code.FetchInst(pc)
	if inst == nil || (!c.kernelMode && memsim.IsKernel(pc)) {
		// Unmapped, or user-mode fetch of kernel text (SMEP).
		res.Fault = true
		res.FaultPC = pc
		c.Stats.Faults++
		return pc, true
	}
	if line := pc >> 6; line != c.lastFetchLine {
		c.lastFetchLine = line
		if lat, _ := c.H.AccessInst(pc &^ 63); lat > c.H.L1Lat {
			c.now += float64(lat - c.H.L1Lat)
		}
	}
	c.now += fetchSlot
	res.Insts++
	c.Stats.Insts++

	next := pc + isa.InstBytes
	stop := false
	switch inst.Op {
	case isa.OpNop:
		c.commit(c.now)

	case isa.OpALU:
		startT := max(c.now, c.ready(inst.Rs1), c.ready(inst.Rs2))
		lat := 1.0
		if inst.AK == isa.AMul {
			lat = float64(c.Cfg.MulLatency)
			// A multiply is a Port-channel transmitter: under STT-like
			// policies a tainted speculative multiply must wait.
			if startT < c.specUntil {
				c.acc = Access{
					PC: pc, IsLoad: false, Ctx: c.ctx, Kernel: c.kernelMode,
					AddrTainted: c.tainted(inst.Rs1, startT) || c.tainted(inst.Rs2, startT),
				}
				switch c.Policy.OnTransmit(&c.acc) {
				case Block:
					c.Stats.Fences++
					c.Stats.FenceDelay += c.specUntil - startT
					startT = c.specUntil
					c.now += c.Cfg.FencePenalty
				case BlockUntaint:
					c.Stats.Fences++
					if u := max(c.taintUntil[inst.Rs1], c.taintUntil[inst.Rs2]); u > startT {
						c.Stats.FenceDelay += u - startT
						startT = u
					}
				}
			}
		}
		v := isa.EvalALU(inst.AK, c.reg(inst.Rs1), c.reg(inst.Rs2), inst.Imm)
		done := startT + lat
		c.setReg(inst.Rd, v)
		if inst.Rd != isa.R0 {
			c.readyAt[inst.Rd] = done
			// Taint propagates through arithmetic; immediates clear it.
			switch inst.AK {
			case isa.AMovImm:
				c.taintUntil[inst.Rd] = 0
			default:
				t1, t2 := c.taintUntil[inst.Rs1], c.taintUntil[inst.Rs2]
				if inst.Rs1 == isa.R0 {
					t1 = 0
				}
				if inst.Rs2 == isa.R0 {
					t2 = 0
				}
				c.taintUntil[inst.Rd] = max(t1, t2)
			}
		}
		c.commit(done)

	case isa.OpLoad:
		c.Stats.Loads++
		startT := max(c.now, c.ready(inst.Rs1))
		va := c.reg(inst.Rs1) + uint64(inst.Imm)
		pa, okA := c.Mem.Resolve(va, inst.Size)
		if !okA {
			res.Fault = true
			res.FaultPC, res.FaultVA = pc, va
			c.Stats.Faults++
			stop = true
			break
		}
		if startT < c.specUntil {
			c.acc = Access{
				PC: pc, VA: va, IsLoad: true, Ctx: c.ctx, Kernel: c.kernelMode,
				L1Hit:       c.H.L1D.Lookup(pa),
				AddrTainted: c.tainted(inst.Rs1, startT),
			}
			switch c.Policy.OnTransmit(&c.acc) {
			case Block:
				c.Stats.Fences++
				c.Stats.FenceDelay += c.specUntil - startT
				startT = c.specUntil // wait for the visibility point
				c.now += c.Cfg.FencePenalty
			case BlockUntaint:
				// STT integrates the delay into wakeup: no re-issue
				// cost, only the taint-expiry wait.
				c.Stats.Fences++
				if u := c.taintUntil[inst.Rs1]; u > startT {
					c.Stats.FenceDelay += u - startT
					startT = u
				}
			}
		}
		lat, _ := c.H.AccessData(pa, true)
		v := c.Mem.LoadPA(pa, inst.Size)
		done := startT + float64(lat)
		c.setReg(inst.Rd, v)
		if inst.Rd != isa.R0 {
			c.readyAt[inst.Rd] = done
			if startT < c.specUntil {
				// Value obtained speculatively: tainted until the
				// shadow resolves.
				c.taintUntil[inst.Rd] = c.specUntil
			} else {
				c.taintUntil[inst.Rd] = 0
			}
		}
		c.commit(done)

	case isa.OpStore:
		c.Stats.Stores++
		startT := max(c.now, c.ready(inst.Rs1), c.ready(inst.Rs2))
		va := c.reg(inst.Rs1) + uint64(inst.Imm)
		pa, okA := c.Mem.Resolve(va, inst.Size)
		if !okA {
			res.Fault = true
			res.FaultPC, res.FaultVA = pc, va
			c.Stats.Faults++
			stop = true
			break
		}
		c.Mem.StorePA(pa, inst.Size, c.reg(inst.Rs2))
		c.H.AccessData(pa, true)
		c.commit(startT + 1)

	case isa.OpBranch:
		c.Stats.Branches++
		startT := max(c.now+float64(c.Cfg.ExecDelay), c.ready(inst.Rs1), c.ready(inst.Rs2))
		resolve := startT + 1
		taken := isa.EvalCond(inst.CK, c.reg(inst.Rs1), c.reg(inst.Rs2))
		predicted := c.BP.Cond.Predict(pc)
		c.BP.Cond.Update(pc, taken)
		if c.specUntil < resolve {
			c.specUntil = resolve
		}
		if predicted != taken {
			c.Stats.Mispredicts++
			wrong := next
			if predicted {
				wrong = inst.Target
			}
			c.squashWindow(pc, wrong, resolve)
		} else if c.Fault != nil && c.Fault.SpuriousSquash(pc) {
			// Injected fault: a correctly predicted branch is squashed
			// anyway. The frontend transiently runs the untaken
			// direction before the redirect — wrong-path execution
			// where a healthy pipeline has none — and pays the full
			// redirect penalty. Architectural state must survive (the
			// checker asserts it).
			wrong := inst.Target
			if taken {
				wrong = next
			}
			c.squashWindow(pc, wrong, resolve)
		}
		if taken {
			next = inst.Target
		}
		c.commit(resolve)

	case isa.OpJmp:
		c.commit(c.now)
		next = inst.Target

	case isa.OpCall:
		c.callStack = append(c.callStack, next)
		c.BP.RAS.Push(next)
		c.commit(c.now)
		c.traceEnter(inst.Target)
		next = inst.Target

	case isa.OpICall, isa.OpIJmp:
		c.Stats.Branches++
		startT := max(c.now+float64(c.Cfg.ExecDelay), c.ready(inst.Rs1))
		resolve := startT + 1
		actual := c.reg(inst.Rs1)
		if c.specUntil < resolve {
			c.specUntil = resolve
		}
		if p := c.Policy.IndirectPenalty(); p > 0 && c.kernelMode {
			// Retpoline: the indirect branch is converted into a
			// serialized construct — extra cycles, no target
			// speculation.
			c.now = resolve + float64(p)
		} else {
			predicted, okP := c.BP.BTB.Predict(pc)
			if okP && predicted != actual {
				// Speculative control-flow hijack window (Spectre v2).
				c.Stats.Mispredicts++
				c.squashWindow(pc, predicted, resolve)
			} else if !okP {
				// BTB miss: the frontend stalls until resolution.
				c.now = resolve
			}
		}
		c.BP.BTB.Update(pc, actual)
		if inst.Op == isa.OpICall {
			c.callStack = append(c.callStack, next)
			c.BP.RAS.Push(next)
			c.traceEnter(actual)
		}
		c.commit(resolve)
		next = actual

	case isa.OpRet:
		c.Stats.Branches++
		// The architectural target comes from the in-memory stack; give
		// it an L1 load latency past the execute stage.
		resolve := c.now + float64(c.Cfg.ExecDelay+c.H.L1Lat)
		if c.specUntil < resolve {
			c.specUntil = resolve
		}
		predicted, okP := c.BP.RAS.Pop()
		if len(c.callStack) == baseDepth {
			// Returning from the entry frame ends the run. This return
			// has no matching push inside the run, so its prediction
			// comes from whatever the RAS holds — stale entries from an
			// earlier context included. That is the Retbleed / Spectre
			// RSB window of Figure 4.2: the victim "returns from
			// Function 1" and speculatively lands wherever the attacker
			// arranged.
			if okP && predicted != 0 {
				c.Stats.Mispredicts++
				c.squashWindow(pc, predicted, resolve)
			}
			c.commit(resolve)
			res.Ret = c.reg(isa.R1)
			stop = true
			break
		}
		actual := c.callStack[len(c.callStack)-1]
		c.callStack = c.callStack[:len(c.callStack)-1]
		if okP && predicted != actual {
			// Return target hijack window (Spectre RSB / Retbleed).
			c.Stats.Mispredicts++
			c.squashWindow(pc, predicted, resolve)
		} else if !okP {
			c.now = resolve
		}
		c.commit(resolve)
		next = actual

	case isa.OpFence:
		// lfence: nothing younger may issue before all older work
		// resolves.
		c.now = max(c.now, c.specUntil, c.lastCommit)
		c.commit(c.now)

	case isa.OpHalt:
		c.commit(c.now)
		res.Ret = c.reg(isa.R1)
		stop = true

	default:
		// An undecodable word faults where it stands.
		res.Fault = true
		res.FaultPC = pc
		c.Stats.Faults++
		stop = true
	}
	if c.stepHook != nil {
		c.stepHook(pc)
	}
	return next, stop
}
