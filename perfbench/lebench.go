package main

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"time"

	"repro/internal/harness"
	"repro/internal/lebench"
	"repro/internal/schemes"
)

// lebenchSchemes are the Fig 9.2 configurations the lebench workload runs.
var lebenchSchemes = []schemes.Kind{
	schemes.Unsafe, schemes.Fence, schemes.DOM, schemes.STT, schemes.Spot, schemes.Perspective,
}

// lebenchRun runs one LEBench test per operation on a fresh clone; a
// round is every (scheme, test) pair once, in a seed-shuffled order.
type lebenchRun struct {
	views *harness.Views
	// cells are the digest rounds' measurements, in execution order.
	cells []harness.LEBenchCell
	// insts and host account each scheme's committed instructions and
	// host CPU time over the window.
	insts map[schemes.Kind]float64
	host  map[schemes.Kind]time.Duration
}

func prepareLEBench(h *harness.Harness) (func() runner, error) {
	views, err := h.ViewsFor(h.Workloads()[0])
	if err != nil {
		return nil, fmt.Errorf("lebench views: %w", err)
	}
	return func() runner {
		return &lebenchRun{views: views, insts: map[schemes.Kind]float64{}, host: map[schemes.Kind]time.Duration{}}
	}, nil
}

type lebenchPair struct {
	kind schemes.Kind
	tst  lebench.Test
}

func (d *lebenchRun) round(b *bench, r int) {
	var pairs []lebenchPair
	for _, kind := range lebenchSchemes {
		for _, tst := range lebench.Tests() {
			pairs = append(pairs, lebenchPair{kind, tst})
		}
	}
	rng := rand.New(rand.NewSource(harness.CellSeed(b.seed, "lebench", strconv.Itoa(r))))
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	for _, p := range pairs {
		if !b.more() {
			return
		}
		b.op(p.kind.String()+"/"+p.tst.Name, "", func() error {
			if err := d.run(b, p); err != nil {
				return fmt.Errorf("lebench %v/%s: %w", p.kind, p.tst.Name, err)
			}
			return nil
		})
	}
}

// run is one operation: boot a clone under the scheme, run the test.
func (d *lebenchRun) run(b *bench, p lebenchPair) error {
	t0 := cpuTime()
	m, err := b.boot(p.kind, viewFor(d.views, p.kind))
	if err != nil {
		return err
	}
	defer m.k.Release()
	var res lebench.Result
	err = b.call("run_test", func() error {
		var err error
		res, err = lebench.RunTest(m.k, p.tst, b.h.Opt.LEBenchIters)
		return err
	})
	delta, aerr := b.account(m)
	d.insts[p.kind] += delta[cInsts]
	d.host[p.kind] += cpuTime() - t0
	if err != nil {
		return err
	}
	if aerr != nil {
		return aerr
	}
	if b.inDigest() {
		d.cells = append(d.cells, harness.LEBenchCell{Test: p.tst.Name, Scheme: p.kind, Cycles: res.CyclesPerIter})
		b.fold(float64(p.kind), res.CyclesPerIter)
	}
	return nil
}

// finish normalizes the digest round against UNSAFE as Fig 9.2 does and
// reduces it with harness.SchemeAverages. Cells are first put in Fig 9.2's
// (scheme, test) order, so the sums do not depend on the shuffle.
func (d *lebenchRun) finish(b *bench) {
	order := map[string]int{}
	for i, tst := range lebench.Tests() {
		order[tst.Name] = i
	}
	slices.SortFunc(d.cells, func(x, y harness.LEBenchCell) int {
		if x.Scheme != y.Scheme {
			return int(x.Scheme) - int(y.Scheme)
		}
		return order[x.Test] - order[y.Test]
	})
	base := map[string]float64{}
	for _, c := range d.cells {
		if c.Scheme == schemes.Unsafe {
			base[c.Test] = c.Cycles
		}
	}
	var perspX []float64
	for i := range d.cells {
		c := &d.cells[i]
		c.Normalized = ratio(c.Cycles, base[c.Test])
		if c.Scheme == schemes.Perspective && c.Normalized > 0 {
			perspX = append(perspX, c.Normalized)
		}
	}
	avg := harness.SchemeAverages(d.cells)
	b.perspCyclesX = avg[schemes.Perspective]
	b.perspP99X = quantile(perspX, 0.99)
	for _, kind := range lebenchSchemes {
		name := schemeLabel(kind)
		b.layer["lebench."+name+".sim_mips"] = metric{ratio(d.insts[kind], d.host[kind].Seconds()) / 1e6, "Minst/s"}
		if kind != schemes.Unsafe && kind != schemes.Perspective {
			b.layer["lebench."+name+".cycles_x"] = metric{avg[kind], "x"}
		}
	}
}

// schemeLabel is a scheme's name as metric names spell it.
func schemeLabel(k schemes.Kind) string {
	switch k {
	case schemes.Unsafe:
		return "unsafe"
	case schemes.Fence:
		return "fence"
	case schemes.DOM:
		return "dom"
	case schemes.STT:
		return "stt"
	case schemes.Spot:
		return "spot"
	case schemes.Perspective:
		return "perspective"
	}
	return "other"
}
