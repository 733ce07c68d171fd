package harness

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"repro/internal/loadgen"
	"repro/internal/schemes"
)

// tailTestOptions trims the fleet grid so a full probe+replay run stays fast
// under -race while still sharding every cell across multiple machines.
func tailTestOptions(jobs int) Options {
	o := determinismOptions(jobs)
	o.TailRequests = 20_000
	o.TailFleet = 2
	o.TailProbes = 24
	return o
}

func runTailLats(h *Harness, buf *bytes.Buffer) error {
	rep, err := h.TailLats()
	if err != nil {
		return err
	}
	PrintTailLats(buf, rep, h.Opt.Schemes)
	return nil
}

// The fleet runner's merged report must be byte-identical at any worker
// count: shard seeds derive from cell identity and per-shard digests fold in
// canonical order, never completion order.
func TestDeterminismTailLatsAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-jobs determinism sweep")
	}
	base := ""
	for _, jobs := range []int{1, 4, 8} {
		h := New(tailTestOptions(jobs))
		var buf bytes.Buffer
		if err := runTailLats(h, &buf); err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if jobs == 1 {
			base = buf.String()
			if base == "" {
				t.Fatal("empty taillats report at jobs=1")
			}
			continue
		}
		if got := buf.String(); got != base {
			t.Errorf("taillats: jobs=%d report differs from jobs=1\n--- jobs=1 ---\n%s\n--- jobs=%d ---\n%s",
				jobs, base, jobs, got)
		}
	}
}

// A small live run must produce sane physics: positive quantiles ordered
// p50 ≤ p99 ≤ p999, UNSAFE overheads exactly 1.0 (it is its own baseline),
// no handler faults, and the full request budget replayed.
func TestTailLatsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet probe run")
	}
	o := tailTestOptions(1)
	h := New(o)
	rep, err := h.TailLats()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fleet != 2 || rep.Requests != 20_000 {
		t.Fatalf("report header = fleet %d, requests %d", rep.Fleet, rep.Requests)
	}
	if want := 4 * len(o.Schemes); len(rep.Cells) != want { // four apps
		t.Fatalf("got %d cells, want %d", len(rep.Cells), want)
	}
	for _, c := range rep.Cells {
		if c.Err != "" {
			t.Fatalf("%v/%s failed: %s", c.Scheme, c.App, c.Err)
		}
		if c.HandlerFaults != 0 {
			t.Errorf("%v/%s: %d handler faults", c.Scheme, c.App, c.HandlerFaults)
		}
		if c.Requests != rep.Requests {
			t.Errorf("%v/%s replayed %d requests, want %d", c.Scheme, c.App, c.Requests, rep.Requests)
		}
		if !(c.P50 > 0 && c.P50 <= c.P99 && c.P99 <= c.P999) {
			t.Errorf("%v/%s: quantiles out of order: p50=%f p99=%f p999=%f",
				c.Scheme, c.App, c.P50, c.P99, c.P999)
		}
		if c.MeanService <= 0 {
			t.Errorf("%v/%s: mean service %f", c.Scheme, c.App, c.MeanService)
		}
		// Sojourn can't beat service: the mean must sit at or above the
		// probe-measured expected service time.
		if c.Mean < c.MeanService {
			t.Errorf("%v/%s: mean sojourn %f below mean service %f",
				c.Scheme, c.App, c.Mean, c.MeanService)
		}
		if c.Scheme == schemes.Unsafe {
			if c.P50X != 1 || c.P99X != 1 || c.P999X != 1 {
				t.Errorf("UNSAFE/%s: overheads %f/%f/%f, want exactly 1",
					c.App, c.P50X, c.P99X, c.P999X)
			}
		} else if c.P50X <= 0 || c.P99X <= 0 || c.P999X <= 0 {
			t.Errorf("%v/%s: missing overheads %f/%f/%f", c.Scheme, c.App, c.P50X, c.P99X, c.P999X)
		}
	}
}

// The TailLats grid is memoized on the harness: two calls return the same
// report without re-running the fleet.
func TestTailLatsMemoized(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet probe run")
	}
	o := tailTestOptions(1)
	o.Schemes = []schemes.Kind{schemes.Unsafe, schemes.Perspective}
	h := New(o)
	a, err := h.TailLats()
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.TailLats()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("second TailLats call re-ran the grid")
	}
}

// Without an UNSAFE baseline there is nothing to calibrate arrival rates
// against; the grid must refuse up front.
func TestTailLatsRequiresBaseline(t *testing.T) {
	o := tailTestOptions(1)
	o.Schemes = []schemes.Kind{schemes.Fence, schemes.Perspective}
	h := New(o)
	if _, err := h.TailLats(); err == nil || !strings.Contains(err.Error(), "UNSAFE baseline") {
		t.Fatalf("err = %v, want missing-baseline", err)
	}
}

func TestShardRequestsSplitsExactly(t *testing.T) {
	for _, tc := range []struct {
		n, fleet int
	}{
		{1_000_000, 4}, {1_000_001, 4}, {7, 3}, {1, 8}, {20_000, 2},
	} {
		o := Options{TailRequests: tc.n, TailFleet: tc.fleet}
		var sum uint64
		first := o.shardRequests(0)
		for s := 0; s < tc.fleet; s++ {
			per := o.shardRequests(s)
			if s > 0 && per > first {
				t.Errorf("n=%d fleet=%d: shard %d got %d > shard 0's %d", tc.n, tc.fleet, s, per, first)
			}
			sum += per
		}
		if sum != uint64(tc.n) {
			t.Errorf("n=%d fleet=%d: shards sum to %d", tc.n, tc.fleet, sum)
		}
	}
}

func TestTailMeanServiceMix(t *testing.T) {
	res := loadgen.NewReservoir(1)
	res.AddKeep(1000)
	res.AddKeep(3000) // keep mean 2000
	res.AddChurn(12000)
	got := tailMeanService(res)
	want := tailKeepAliveP*2000 + (1-tailKeepAliveP)*12000
	if got != want {
		t.Fatalf("mean service = %f, want %f", got, want)
	}
	// A churn-free reservoir falls back to the keep stratum for the mix.
	keepOnly := loadgen.NewReservoir(1)
	keepOnly.AddKeep(2000)
	if got := tailMeanService(keepOnly); got != 2000 {
		t.Fatalf("keep-only mean service = %f, want 2000", got)
	}
}

func TestNormalizeTails(t *testing.T) {
	cells := []TailCell{
		{App: "httpd", Scheme: schemes.Unsafe, P50: 100, P99: 200, P999: 400},
		{App: "httpd", Scheme: schemes.Fence, P50: 150, P99: 500, P999: 1600},
		{App: "redis", Scheme: schemes.Unsafe, Err: "boom"}, // no clean baseline
		{App: "redis", Scheme: schemes.Fence, P50: 300, P99: 600, P999: 900},
	}
	normalizeTails(cells)
	if cells[0].P50X != 1 || cells[0].P99X != 1 || cells[0].P999X != 1 {
		t.Errorf("UNSAFE overheads = %f/%f/%f, want 1", cells[0].P50X, cells[0].P99X, cells[0].P999X)
	}
	if cells[1].P50X != 1.5 || cells[1].P99X != 2.5 || cells[1].P999X != 4 {
		t.Errorf("FENCE overheads = %f/%f/%f", cells[1].P50X, cells[1].P99X, cells[1].P999X)
	}
	// Apps with no clean UNSAFE measurement keep zero overheads.
	if cells[3].P50X != 0 || cells[3].P99X != 0 || cells[3].P999X != 0 {
		t.Errorf("redis overheads = %f/%f/%f, want 0", cells[3].P50X, cells[3].P99X, cells[3].P999X)
	}
}

// TestStreamGolden pins the replay request streams of a keyed (memcached,
// Zipf keys) and a keyless (httpd) taillats shard: an FNV-64a over the
// first 10⁵ requests' arrival bits, connection, key and churn flag. The
// constants predate the table-driven Zipf sampler, so they hold it to the
// stdlib's key stream and draw order (DESIGN.md §11).
func TestStreamGolden(t *testing.T) {
	o := QuickOptions()
	for _, c := range []struct {
		app  string
		want uint64
	}{{"memcached", 0x54d208704b7a8bc0}, {"httpd", 0xd57fc867467b311a}} {
		s := loadgen.NewStream(o.tailReplayConfig(c.app, 1, 2500))
		h := fnv.New64a()
		var r loadgen.Req
		var b [25]byte
		for i := 0; i < 100_000; i++ {
			s.Next(&r)
			binary.LittleEndian.PutUint64(b[0:], math.Float64bits(r.Arrival))
			binary.LittleEndian.PutUint64(b[8:], uint64(r.Conn))
			binary.LittleEndian.PutUint64(b[16:], r.Key)
			b[24] = 0
			if r.Churn {
				b[24] = 1
			}
			h.Write(b[:])
		}
		if got := h.Sum64(); got != c.want {
			t.Errorf("%s stream hash %#016x, want %#016x", c.app, got, c.want)
		}
	}
}
