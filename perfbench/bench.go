package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"syscall"
	"time"

	"repro/internal/harness"
	"repro/internal/isv"
	"repro/internal/kernel"
	"repro/internal/schemes"
)

// workload is one benchmark input set. prepare runs inside the set-up
// measurement: it builds whatever the workload installs (views) on a fresh
// harness and returns a factory for per-window runners over those inputs.
type workload struct {
	// digestRounds is how many leading rounds feed the simulated-statistics
	// digest and every S metric; they always run to completion, so the
	// digest and the S metrics are a function of the seed alone.
	digestRounds int
	prepare      func(h *harness.Harness) (func() runner, error)
}

// runner issues one window's operations.
type runner interface {
	// round issues round r's operations, returning early once b.more()
	// turns false.
	round(b *bench, r int)
	// finish derives the workload's own metrics from its digest rounds.
	finish(b *bench)
}

var workloads = map[string]workload{
	"lebench": {digestRounds: 1, prepare: prepareLEBench},
	"fleet":   {digestRounds: 1, prepare: prepareFleet},
	"spectre": {digestRounds: 4, prepare: prepareSpectre},
}

// maxFailMsgs caps the failure messages a run keeps for its report.
const maxFailMsgs = 5

// bench is one measured window: operation accounting, host timings, the
// machine counters of the digest rounds, and (when traced) spans.
type bench struct {
	h        *harness.Harness
	seed     int64
	window   time.Duration
	deadline time.Time
	rounds   int     // digest rounds still mandatory past the deadline
	r        int     // current round
	tr       *tracer // nil when untraced

	// start and end bound the window on the wall clock (which --seconds
	// measures); cpu is the process CPU time the window used.
	start, end time.Time
	cpu        time.Duration

	attempted, failed int
	failMsgs          []string

	// lat holds host CPU microseconds per timed call, keyed by kind: "op"
	// is every operation; the rest are the layer calls inside them.
	lat map[string][]float64
	// kinds holds the same operation times keyed by operation kind (the
	// scheme and test, app or PoC the operation ran).
	kinds map[string][]float64
	// insts counts committed instructions over the whole window.
	insts float64
	// replayed and replayTime (CPU) account the loadgen replays.
	replayed   float64
	replayTime time.Duration

	// rounds of the window that ran to completion, for per-round rates.
	done []roundRec

	// sim sums the machine counters of the digest rounds.
	sim counters
	dig hash.Hash64

	// Workload-derived metrics, set by runner.finish.
	perspCyclesX, perspP99X float64
	layer                   map[string]metric
}

func newBench(h *harness.Harness, w workload, seed int64, window time.Duration, tr *tracer) *bench {
	return &bench{
		h: h, seed: seed, window: window, rounds: w.digestRounds, tr: tr,
		lat:   map[string][]float64{},
		kinds: map[string][]float64{},
		dig:   fnv.New64a(),
		layer: map[string]metric{},
	}
}

// run drives rounds until the deadline has passed and the digest rounds
// are complete.
func (b *bench) run(d runner) {
	b.start = time.Now()
	b.deadline = b.start.Add(b.window)
	b.tr.setEpoch(b.start)
	c0 := cpuTime()
	for b.r = 0; b.more(); b.r++ {
		t0, i0, o0, r0 := cpuTime(), b.insts, len(b.lat["op"]), b.replayed
		d.round(b, b.r)
		// Runners return early only once more() is false, so a round that
		// ends while more() still holds ran every operation.
		if b.more() {
			b.done = append(b.done, roundRec{
				secs:  (cpuTime() - t0).Seconds(),
				insts: b.insts - i0, ops: float64(len(b.lat["op"]) - o0), replayed: b.replayed - r0,
			})
		}
	}
	b.end = time.Now()
	b.cpu = cpuTime() - c0
	d.finish(b)
}

// roundRec is one complete round's work and host CPU seconds.
type roundRec struct{ secs, insts, ops, replayed float64 }

// sustainedQ is the quantile over complete rounds that host rates report.
// On a shared 2-vCPU VM, rounds ran at a steady contended speed with
// bursts of extra speed whose share varied from run to run; across runs
// the 10th percentile of per-round rates spread about half as much as
// their median did (README.md, "Measured").
const sustainedQ = 0.10

// perRound is the sustainedQ quantile over complete rounds of f(round) per
// host CPU second: the rate 90% of the rounds sustained.
func (b *bench) perRound(f func(roundRec) float64) float64 {
	var xs []float64
	for _, r := range b.done {
		xs = append(xs, ratio(f(r), r.secs))
	}
	return quantile(xs, sustainedQ)
}

// more reports whether another operation should be issued.
func (b *bench) more() bool {
	return b.r < b.rounds || time.Now().Before(b.deadline)
}

// inDigest reports whether the current round feeds the digest.
func (b *bench) inDigest() bool { return b.r < b.rounds }

// elapsed is the measured window in wall seconds.
func (b *bench) elapsed() float64 { return b.end.Sub(b.start).Seconds() }

// cpuTime is the process's CPU time so far (user + system, all threads).
// Host-time metrics use it rather than the wall clock: on a shared VM the
// hypervisor steals a varying share of wall time from a running thread,
// which CPU time leaves out.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// us is a duration in microseconds.
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// op runs one operation of the given kind, timing it under "op", under
// its kind, and (if label is not empty) under label. A returned error
// counts the operation failed.
func (b *bench) op(kind, label string, f func() error) {
	b.attempted++
	sp := b.tr.begin("op")
	t0 := cpuTime()
	err := f()
	t := us(cpuTime() - t0)
	b.tr.end(sp)
	b.lat["op"] = append(b.lat["op"], t)
	b.kinds[kind] = append(b.kinds[kind], t)
	if label != "" {
		b.lat[label] = append(b.lat[label], t)
	}
	if err != nil {
		b.fail(err)
	}
}

// fail counts a failed operation outside op (a cell-level check).
func (b *bench) fail(err error) {
	b.failed++
	if len(b.failMsgs) < maxFailMsgs {
		b.failMsgs = append(b.failMsgs, fmt.Sprintf("round %d: %v", b.r, err))
	}
}

// call wraps one public call into a layer in a span named name.
func (b *bench) call(name string, f func() error) error {
	sp := b.tr.begin(name)
	err := f()
	b.tr.end(sp)
	return err
}

// machine is one booted clone with the counter snapshot its next
// accounting measures from.
type machine struct {
	k    *kernel.Kernel
	last counters
}

// boot clones a machine from the harness's boot snapshot and installs the
// scheme's policy. A non-nil view is installed for every process created
// from now on, as the harness does for its grids' Perspective cells.
func (b *bench) boot(kind schemes.Kind, view *isv.View) (*machine, error) {
	var k *kernel.Kernel
	t0 := cpuTime()
	err := b.call("boot", func() error {
		var err error
		k, err = b.h.BootMachine(kernel.DefaultConfig())
		return err
	})
	b.lat["boot"] = append(b.lat["boot"], us(cpuTime()-t0))
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	k.Core.Policy = schemes.New(kind, k.DSV, k.ISV)
	if view != nil {
		k.OnProcessCreate = func(t *kernel.Task) { k.ISV.Install(t.Ctx(), view) }
	}
	return &machine{k: k, last: readCounters(k)}, nil
}

// viewFor is the ISV a scheme's machines install: the Perspective
// variants' view from v, none for the other schemes.
func viewFor(v *harness.Views, kind schemes.Kind) *isv.View {
	if !kind.IsPerspective() {
		return nil
	}
	return v.Select(kind).View
}

// account charges the machine's counters since the last accounting to the
// window (committed instructions) and, in digest rounds, to the simulated
// counters, and returns them. It fails if any kernel handler faulted (or
// ran out of instruction budget) meanwhile.
func (b *bench) account(m *machine) (counters, error) {
	now := readCounters(m.k)
	d := now.sub(m.last)
	m.last = now
	b.insts += d[cInsts]
	if b.inDigest() {
		b.sim.add(d)
	}
	if d[cHandlerFaults] > 0 {
		return d, fmt.Errorf("%v kernel handler faults", d[cHandlerFaults])
	}
	return d, nil
}

// fold mixes simulated results of a digest round into the digest.
func (b *bench) fold(vals ...float64) {
	if !b.inDigest() {
		return
	}
	var buf [8]byte
	for _, v := range vals {
		bits := math.Float64bits(v)
		for i := range buf {
			buf[i] = byte(bits >> (8 * i))
		}
		b.dig.Write(buf[:])
	}
}

// foldBytes mixes raw simulated output (leaked bytes) into the digest.
func (b *bench) foldBytes(p []byte) {
	if b.inDigest() {
		b.dig.Write(p)
	}
}
