package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/schemes"
)

// spec is the part of BENCHMARK.json the tests check output against.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runBench runs the command in-process and returns its stdout and result.
func runBench(t *testing.T, args ...string) (string, result) {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run(append(args, "-out", t.TempDir()), &out, &errOut); code != 0 {
		t.Fatalf("%v: exit %d: %s", args, code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line is not a result: %v", args, err)
	}
	return out.String(), res
}

var digestRE = regexp.MustCompile(`(?m)^digest \S+ seed=\d+ ([0-9a-f]{16})`)

func digestOf(t *testing.T, out string) string {
	t.Helper()
	m := digestRE.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no digest line in:\n%s", out)
	}
	return m[1]
}

// checkRun fails unless the run passed every check and printed exactly the
// named metrics with their units.
func checkRun(t *testing.T, label string, res result, want []struct{ Name, Unit string }) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", label, res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, want %d", label, len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("%s: metric %s = %+v, want unit %s", label, m.Name, got, m.Unit)
		}
	}
}

func TestShortRunsPrintEveryMetric(t *testing.T) {
	s := loadSpec(t)
	for _, w := range s.Workloads {
		out, res := runBench(t, "-workload", w.Name, "-seed", "1", "-seconds", "0.5", "-trace", "0")
		checkRun(t, w.Name+" untraced", res, s.EndToEnd)
		for _, m := range s.EndToEnd {
			if res.Metrics[m.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v, want > 0", w.Name, m.Name, res.Metrics[m.Name].Value)
			}
		}
		tout, tres := runBench(t, "-workload", w.Name, "-seed", "1", "-seconds", "0.5", "-trace", "1")
		checkRun(t, w.Name+" traced", tres, s.PerLayer)
		if !strings.Contains(tout, ": identical") {
			t.Errorf("%s: traced run did not reproduce the digest:\n%s", w.Name, tout)
		}
		if digestOf(t, out) != digestOf(t, tout) {
			t.Errorf("%s: untraced and traced runs of seed 1 differ in digest", w.Name)
		}
	}
}

func TestSameSeedSameDigest(t *testing.T) {
	for name := range workloads {
		a, _ := runBench(t, "-workload", name, "-seed", "7", "-seconds", "0.1")
		b, _ := runBench(t, "-workload", name, "-seed", "7", "-seconds", "0.1")
		if da, db := digestOf(t, a), digestOf(t, b); da != db {
			t.Errorf("%s seed 7: digests %s and %s", name, da, db)
		}
	}
}

func TestSecondSeedPasses(t *testing.T) {
	s := loadSpec(t)
	for name := range workloads {
		_, res := runBench(t, "-workload", name, "-seed", "2", "-seconds", "0.1")
		checkRun(t, name+" seed 2", res, s.EndToEnd)
	}
}

// TestLEBenchMatchesFig92 pins the lebench workload to -exp fig9.2: its
// per-test cycles under UNSAFE and PERSPECTIVE equal Fig92Scheme's.
func TestLEBenchMatchesFig92(t *testing.T) {
	h := harness.New(harness.PaperOptions())
	newRun, err := prepareLEBench(h)
	if err != nil {
		t.Fatal(err)
	}
	d := newRun().(*lebenchRun)
	b := newBench(h, workloads["lebench"], 3, 0, nil)
	b.run(d)
	if b.failed != 0 {
		t.Fatalf("lebench round failed: %v", b.failMsgs)
	}
	got := map[schemes.Kind]map[string]float64{}
	for _, c := range d.cells {
		if got[c.Scheme] == nil {
			got[c.Scheme] = map[string]float64{}
		}
		got[c.Scheme][c.Test] = c.Cycles
	}
	for _, kind := range []schemes.Kind{schemes.Unsafe, schemes.Perspective} {
		want, err := h.Fig92Scheme(kind)
		if err != nil {
			t.Fatal(err)
		}
		if len(got[kind]) != len(want) {
			t.Errorf("%v: %d tests, Fig92Scheme has %d", kind, len(got[kind]), len(want))
		}
		for _, c := range want {
			if got[kind][c.Test] != c.Cycles {
				t.Errorf("%v/%s: %v cycles, Fig92Scheme %v", kind, c.Test, got[kind][c.Test], c.Cycles)
			}
		}
	}
}

// TestPassiveBlindByte pins the reason drawSecret skips passiveBlindByte:
// under UNSAFE the passive PoCs miss exactly that value. When this test
// fails, the receiver has been fixed and the exclusion should be removed.
func TestPassiveBlindByte(t *testing.T) {
	h := harness.New(harness.PaperOptions())
	newRun, err := prepareSpectre(h)
	if err != nil {
		t.Fatal(err)
	}
	d := newRun().(*spectreRun)
	b := newBench(h, workloads["spectre"], 1, 0, nil)
	b.rounds = 0
	secret := []byte{'S', passiveBlindByte, 'C', 'R'}
	for pi, poc := range spectrePoCs {
		err := d.run(b, [2]int{pi, slices.Index(spectreSchemes, schemes.Unsafe)}, secret)
		if poc.label == "v1" {
			if err != nil {
				t.Errorf("v1 under UNSAFE: %v", err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "leaked 3 of 4") {
			t.Errorf("%s under UNSAFE on secret %x: got %v, want exactly the blind byte missed", poc.label, secret, err)
		}
	}
}
