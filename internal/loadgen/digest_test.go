package loadgen

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestBucketMonotone(t *testing.T) {
	prev := -1
	for v := uint64(0); v < 1<<20; v += 7 {
		b := bucketOf(v)
		if b < prev {
			t.Fatalf("bucketOf(%d) = %d < previous %d", v, b, prev)
		}
		prev = b
	}
}

func TestBucketBoundsContainValue(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		v := uint64(rng.Int63n(1 << 40))
		up := bucketUpper(bucketOf(v))
		if float64(v) > up {
			t.Fatalf("value %d above its bucket upper bound %g", v, up)
		}
		// Upper bound overshoots by at most one sub-bucket width ≈ v/32.
		if up > float64(v)*(1+1.0/(1<<subBits))+1 {
			t.Fatalf("bucket upper %g too far above value %d", up, v)
		}
	}
}

func TestDigestExactSmallValues(t *testing.T) {
	var d Digest
	for v := 0; v < 1<<subBits; v++ {
		d.Record(float64(v))
	}
	// Values below 2^subBits get one bucket each: quantiles are exact.
	if got := d.Quantile(0.5); got != 15 {
		t.Fatalf("median of 0..31 = %g, want 15", got)
	}
	if got := d.Quantile(1); got != 31 {
		t.Fatalf("max of 0..31 = %g, want 31", got)
	}
}

func TestDigestEmptyAndClamp(t *testing.T) {
	var d Digest
	if d.Quantile(0.99) != 0 || d.Mean() != 0 || d.Count() != 0 {
		t.Fatal("empty digest must report zeros")
	}
	d.Record(-5) // negative clamps to bucket 0
	d.Record(100)
	if got := d.Quantile(-1); got != 0 {
		t.Fatalf("q<0 clamped quantile = %g, want 0", got)
	}
	if got := d.Quantile(2); got < 100 {
		t.Fatalf("q>1 clamped quantile = %g, want ≥100", got)
	}
}

// Values at or beyond 2^64 saturate into the top bucket on every GOARCH;
// a bare uint64 conversion sent +Inf to bucket 1888 on amd64.
func TestDigestRecordSaturates(t *testing.T) {
	top := bucketUpper(nBuckets - 1)
	for _, v := range []float64{0x1p64, 1e30, math.MaxFloat64, math.Inf(1)} {
		var d Digest
		d.Record(v)
		if d.buckets[nBuckets-1] != 1 {
			t.Errorf("Record(%g) missed the top bucket", v)
		}
		if got := d.Quantile(1); got != top {
			t.Errorf("Record(%g): max = %g, want %g", v, got, top)
		}
	}
	// Just below 2^64 already falls in the top bucket by index arithmetic.
	if bucketOf(math.MaxUint64) != nBuckets-1 {
		t.Errorf("bucketOf(MaxUint64) = %d, want %d", bucketOf(math.MaxUint64), nBuckets-1)
	}
}

// Quantile takes the nearest rank ⌊q·count + 0.5⌋: of ten exact values
// q = 0.91 is the 9th (⌈q·count⌉ would be the 10th).
func TestDigestQuantileNearestRank(t *testing.T) {
	var d Digest
	for v := 1; v <= 10; v++ {
		d.Record(float64(v))
	}
	for _, c := range []struct{ q, want float64 }{{0.91, 9}, {0.94, 9}, {0.96, 10}, {0.05, 1}, {0.14, 1}, {0.16, 2}} {
		if got := d.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
}

// Quantile estimates must stay within the advertised 2^-subBits relative
// error (plus one bucket of upper-bound bias) of the true order statistic.
func TestDigestQuantileErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n = 100000
	vals := make([]float64, n)
	var d Digest
	for i := range vals {
		// Log-uniform over [1, 2^30] to exercise many octaves.
		v := math.Exp(rng.Float64() * math.Log(1<<30))
		vals[i] = math.Trunc(v)
		d.Record(vals[i])
	}
	sort.Float64s(vals)
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		rank := int(q*n+0.5) - 1
		if rank < 0 {
			rank = 0
		}
		truth := vals[rank]
		got := d.Quantile(q)
		relErr := math.Abs(got-truth) / truth
		if relErr > 2.0/(1<<subBits) {
			t.Fatalf("q=%g: digest %g vs true %g (rel err %.4f > bound)", q, got, truth, relErr)
		}
	}
}

// Merge must be commutative and associative: any fold order over shard
// digests yields the identical digest. This is the property the fleet
// runner's canonical-order reassembly relies on.
func TestDigestMergeCommutativeAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mk := func() *Digest {
		d := &Digest{}
		n := 100 + rng.Intn(1000)
		for i := 0; i < n; i++ {
			d.Record(float64(rng.Int63n(1 << 32)))
		}
		return d
	}
	for trial := 0; trial < 50; trial++ {
		a, b, c := mk(), mk(), mk()

		ab := *a
		ab.Merge(b)
		ba := *b
		ba.Merge(a)
		if ab != ba {
			t.Fatal("merge not commutative")
		}

		abc := ab // (a+b)+c
		abc.Merge(c)
		bc := *b // a+(b+c)
		bc.Merge(c)
		abc2 := *a
		abc2.Merge(&bc)
		if abc != abc2 {
			t.Fatal("merge not associative")
		}
		if abc.Count() != a.Count()+b.Count()+c.Count() {
			t.Fatal("merged count mismatch")
		}
	}
}

// Merging shard digests must equal one digest fed the concatenated stream.
func TestDigestMergeEquivalentToUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var whole Digest
	shards := make([]Digest, 8)
	for i := 0; i < 80000; i++ {
		v := float64(rng.Int63n(1 << 36))
		whole.Record(v)
		shards[i%8].Record(v)
	}
	var merged Digest
	for i := range shards {
		merged.Merge(&shards[i])
	}
	if merged != whole {
		t.Fatal("merged shard digests differ from whole-stream digest")
	}
}

func TestDigestMean(t *testing.T) {
	var d Digest
	for _, v := range []float64{10, 20, 30} {
		d.Record(v)
	}
	if d.Mean() != 20 {
		t.Fatalf("mean = %g, want 20", d.Mean())
	}
}

// The record path must be allocation-free — it runs 10⁶+ times per cell.
func TestDigestRecordNoAlloc(t *testing.T) {
	d := &Digest{}
	v := 12345.0
	allocs := testing.AllocsPerRun(1000, func() {
		d.Record(v)
		v += 17
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %.1f allocs/op, want 0", allocs)
	}
}

func BenchmarkDigestRecord(b *testing.B) {
	var d Digest
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Record(float64(i&0xfffff + 100))
	}
}

func BenchmarkReplay(b *testing.B) {
	res := NewReservoir(7)
	for i := 0; i < 64; i++ {
		res.AddKeep(float64(300 + i*11))
		res.AddChurn(float64(1200 + i*29))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := NewStream(streamCfg(int64(i)))
		var d Digest
		b.StartTimer()
		Replay(s, res, 100000, &d)
	}
}

// replayShape is one taillats shard replay: a 128-sample reservoir (keep-
// alive and churn strata at the 0.9 mix) and 250k Poisson arrivals at
// rho ≈ 0.35 over 16 connections.
func benchReplayShape(b *testing.B, keys uint64) {
	const n = 250_000
	res := NewReservoir(7)
	for i := 0; i < 128; i++ {
		if i%10 == 9 {
			res.AddChurn(float64(9000 + i*37))
		} else {
			res.AddKeep(float64(2500 + i*13))
		}
	}
	cfg := StreamConfig{Kind: Poisson, MeanGap: 10000, Conns: 16, KeepAliveP: 0.9, Keys: keys, ZipfS: 1.1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg.Seed = int64(i)
		s := NewStream(cfg)
		var d Digest
		b.StartTimer()
		Replay(s, res, n, &d)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/req")
}

// BenchmarkReplayKeyed is the memcached/redis replay path: every request
// also draws a Zipf key over 16384 keys.
func BenchmarkReplayKeyed(b *testing.B) { benchReplayShape(b, 16384) }

// BenchmarkReplayKeyless is the httpd/nginx replay path: no key draw.
func BenchmarkReplayKeyless(b *testing.B) { benchReplayShape(b, 0) }
