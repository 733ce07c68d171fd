package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"syscall"
	"time"

	"repro/internal/harness"
	"repro/internal/kernel"
)

// setupReps is how many times a run repeats set-up; setup_s is the median.
const setupReps = 5

// paperPerspX is Fig 9.2's PERSPECTIVE/UNSAFE mean LEBench latency.
const paperPerspX = 1.036

// setupTimes are one run's set-up repetitions, in host CPU seconds.
type setupTimes struct{ total, build, views []float64 }

// setup builds a paper-scale harness and the workload's inputs setupReps
// times, timing harness.New, the workload's views, and the first
// BootMachine; it keeps the last harness.
func setup(w workload) (*harness.Harness, func() runner, setupTimes, error) {
	var st setupTimes
	var h *harness.Harness
	var newRun func() runner
	for i := 0; i < setupReps; i++ {
		h, newRun = nil, nil
		runtime.GC()
		t0 := cpuTime()
		h = harness.New(harness.PaperOptions())
		t1 := cpuTime()
		var err error
		if newRun, err = w.prepare(h); err != nil {
			return nil, nil, st, err
		}
		t2 := cpuTime()
		k, err := h.BootMachine(kernel.DefaultConfig())
		if err != nil {
			return nil, nil, st, fmt.Errorf("first boot: %w", err)
		}
		k.Release()
		t3 := cpuTime()
		st.total = append(st.total, (t3 - t0).Seconds())
		st.build = append(st.build, (t1 - t0).Seconds())
		st.views = append(st.views, (t2 - t1).Seconds())
	}
	return h, newRun, st, nil
}

// window runs one measured window on the harness.
func window(h *harness.Harness, w workload, newRun func() runner, seed int64, d time.Duration, tr *tracer) *bench {
	runtime.GC()
	b := newBench(h, w, seed, d, tr)
	b.run(newRun())
	return b
}

// measure sets up, runs the window(s), and assembles the result; the
// human-readable report goes to out ahead of the result line.
func measure(name string, seed int64, d time.Duration, traced bool, outDir string, out io.Writer) (*result, error) {
	w := workloads[name]
	h, newRun, st, err := setup(w)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	if !traced {
		b := window(h, w, newRun, seed, d, nil)
		m := endToEnd(b, st)
		report(out, name, seed, b, m)
		return &result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: m}, nil
	}

	// Per-layer run: an untraced half-window, then a traced half-window of
	// the same seed under the CPU profiler.
	base := window(h, w, newRun, seed, d/2, nil)
	var prof bytes.Buffer
	runtime.GC()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("start profile: %w", err)
	}
	b := newBench(h, w, seed, d/2, &tracer{})
	b.run(newRun())
	pprof.StopCPUProfile()
	shares, err := profShares(prof.Bytes())
	if err != nil {
		return nil, err
	}
	if err := writeTrace(outDir, name, seed, b.tr, prof.Bytes()); err != nil {
		return nil, err
	}
	m := perLayer(b, base, st, shares)
	report(out, name, seed, b, m)
	correct := base.failed == 0 && b.failed == 0
	bd, td := base.dig.Sum64(), b.dig.Sum64()
	fmt.Fprintf(out, "untraced digest %016x, traced digest %016x", bd, td)
	if bd != td {
		correct = false
		fmt.Fprintln(out, ": MISMATCH")
	} else {
		fmt.Fprintln(out, ": identical")
	}
	fmt.Fprintf(out, "tracing overhead: sim_mips untraced %.3f, traced %.3f (%.2f%%)\n",
		simMIPS(base), simMIPS(b), 100*m["trace.overhead"].Value)
	return &result{
		Correct:   correct,
		Attempted: base.attempted + b.attempted,
		Failed:    base.failed + b.failed,
		Metrics:   m,
	}, nil
}

// writeTrace stores the traced window's spans and CPU profile.
func writeTrace(dir, name string, seed int64, tr *tracer, prof []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	stem := filepath.Join(dir, fmt.Sprintf("perfbench-%s-%d", name, seed))
	if err := tr.write(stem + ".spans.jsonl"); err != nil {
		return err
	}
	if err := os.WriteFile(stem+".cpu.pprof", prof, 0o644); err != nil {
		return fmt.Errorf("write profile: %w", err)
	}
	return nil
}

// simMIPS is the sustained rate of committed instructions per host CPU
// second, in millions.
func simMIPS(b *bench) float64 { return b.perRound(func(r roundRec) float64 { return r.insts }) / 1e6 }

// peakRSSMB is the process's peak resident set.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// endToEnd assembles the untraced run's metrics.
func endToEnd(b *bench, st setupTimes) map[string]metric {
	ops := b.lat["op"]
	return map[string]metric{
		"setup_s":          {median(st.total), "s"},
		"sim_mips":         {simMIPS(b), "Minst/s"},
		"ops_per_s":        {b.perRound(func(r roundRec) float64 { return r.ops }), "op/s"},
		"op_p50_us":        {kindMedian(b.kinds), "us"},
		"op_p99_us":        {quantile(ops, tailQ(len(ops))), "us"},
		"replay_req_per_s": {b.perRound(func(r roundRec) float64 { return r.replayed + r.ops }), "req/s"},
		"peak_rss_mb":      {peakRSSMB(), "MB"},
		"persp_cycles_x":   {b.perspCyclesX, "x"},
		"persp_p99_x":      {b.perspP99X, "x"},
	}
}

// spanNames are the span.* metrics: each name's self time as a share of
// the traced window.
var spanNames = []string{"op", "cell", "boot", "run_test", "dial", "serve_one", "serve_churn", "replay", "poc"}

// perLayer assembles the traced run's metrics; base is the untraced
// half-window of the same seed.
func perLayer(b, base *bench, st setupTimes, shares map[string]float64) map[string]metric {
	s := &b.sim
	m := map[string]metric{
		"harness.build_s":     {median(st.build), "s"},
		"harness.views_s":     {median(st.views), "s"},
		"harness.boot_us_p50": {median(b.lat["boot"]), "us"},

		"viewcache.dsv_lookups":    {s[cDSVLookups], "count"},
		"viewcache.isv_lookups":    {s[cISVLookups], "count"},
		"viewcache.dsv_hit_rate":   {ratio(s[cDSVHits], s[cDSVLookups]), "ratio"},
		"viewcache.isv_hit_rate":   {ratio(s[cISVHits], s[cISVLookups]), "ratio"},
		"schemes.persp_checked":    {s[cPerspChecked], "count"},
		"schemes.persp_dsv_fences": {s[cPerspDSVFences], "count"},
		"schemes.persp_isv_fences": {s[cPerspISVFences], "count"},

		"cpu.ipc":               {ratio(s[cInsts], s[cCycles]), "inst/cycle"},
		"cpu.threaded_share":    {ratio(s[cThreaded], s[cInsts]), "ratio"},
		"cpu.bb_hit_rate":       {ratio(s[cBBHits], s[cBBLookups]), "ratio"},
		"cpu.transient_ratio":   {ratio(s[cTransient], s[cInsts]), "ratio"},
		"cpu.mispredict_rate":   {ratio(s[cMispredicts], s[cBranches]), "ratio"},
		"cpu.fence_delay_share": {ratio(s[cFenceDelay], s[cCycles]), "ratio"},

		"cache.l1d_hit_rate": {ratio(s[cL1DHits], s[cL1DAccesses]), "ratio"},
		"cache.l1i_hit_rate": {ratio(s[cL1IHits], s[cL1IAccesses]), "ratio"},
		"cache.l2_hit_rate":  {ratio(s[cL2Hits], s[cL2Accesses]), "ratio"},
		"cache.l1d_flushes":  {s[cL1DFlushes], "count"},

		"kernel.syscalls":         {s[cSyscalls], "count"},
		"kernel.page_faults":      {s[cPageFaults], "count"},
		"kernel.context_switches": {s[cContextSwitches], "count"},

		"apps.serve_us_p50": {median(b.lat["serve_one"]), "us"},
		"apps.churn_us_p50": {median(b.lat["serve_churn"]), "us"},

		"loadgen.replay_mreq_per_s": {ratio(b.replayed, b.replayTime.Seconds()) / 1e6, "Mreq/s"},
		"loadgen.replay_share":      {ratio(b.replayTime.Seconds(), b.cpu.Seconds()), "ratio"},
		"loadgen.util":              {0, "ratio"},

		"attack.v1_us_p50":           {median(b.lat["v1"]), "us"},
		"attack.retbleed_us_p50":     {median(b.lat["retbleed"]), "us"},
		"attack.v2_us_p50":           {median(b.lat["v2"]), "us"},
		"attack.leaked_bytes_unsafe": {0, "byte"},

		"trace.overhead": {1 - ratio(simMIPS(b), simMIPS(base)), "ratio"},
	}
	for _, kind := range lebenchSchemes {
		name := schemeLabel(kind)
		m["lebench."+name+".sim_mips"] = metric{0, "Minst/s"}
		if !slices.Contains([]string{"unsafe", "perspective"}, name) {
			m["lebench."+name+".cycles_x"] = metric{0, "x"}
		}
	}
	for _, p := range profBuckets {
		m["prof."+p] = metric{shares[p], "share"}
	}
	self := b.tr.selfTimes()
	for _, n := range spanNames {
		m["span."+n] = metric{ratio(self[n].Seconds(), b.elapsed()), "share"}
	}
	for k, v := range b.layer {
		m[k] = v
	}
	return m
}

// report prints the human-readable summary of a window and its metrics.
func report(out io.Writer, name string, seed int64, b *bench, m map[string]metric) {
	ops := b.lat["op"]
	fmt.Fprintf(out, "perfbench %s seed=%d window=%.2fs rounds=%d ops=%d attempted=%d failed=%d traced=%v\n",
		name, seed, b.elapsed(), b.r, len(ops), b.attempted, b.failed, b.tr != nil)
	var mips []float64
	for _, r := range b.done {
		mips = append(mips, ratio(r.insts, r.secs)/1e6)
	}
	fmt.Fprintf(out, "%d complete rounds; per-round sim_mips min %.2f p10 %.2f q1 %.2f median %.2f q3 %.2f max %.2f\n",
		len(mips), quantile(mips, 0), quantile(mips, sustainedQ), quantile(mips, 0.25), median(mips), quantile(mips, 0.75), quantile(mips, 1))
	for _, msg := range b.failMsgs {
		fmt.Fprintf(out, "FAILED %s\n", msg)
	}
	fmt.Fprintf(out, "digest %s seed=%d %016x (simulated statistics of the first %d round(s))\n", name, seed, b.dig.Sum64(), b.rounds)
	q := tailQ(len(ops))
	fmt.Fprintf(out, "op samples %d; op_p99_us is the p%g (%d samples beyond it)\n", len(ops), 100*q, beyond(len(ops), q))
	if name == "lebench" {
		fmt.Fprintf(out, "persp_cycles_x %.4f (paper Fig 9.2 PERSPECTIVE/UNSAFE: %.3f)\n", b.perspCyclesX, paperPerspX)
	}
	if b.tr != nil {
		self := b.tr.selfTimes()
		fmt.Fprintf(out, "span self times (%d spans):\n", len(b.tr.spans))
		for _, n := range spanNames {
			if self[n] > 0 {
				fmt.Fprintf(out, "  %-12s %10.3f s\n", n, self[n].Seconds())
			}
		}
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "  %-30s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}
