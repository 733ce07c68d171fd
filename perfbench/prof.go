package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profBuckets are the prof.* metrics: self time by the package of the
// innermost repro frame of each CPU-profile sample, plus gc (collector and
// allocator work) and other (everything without a repro frame, and repro
// packages outside the simulator's layers).
var profBuckets = []string{
	"cpu", "cache", "memsim", "vmm", "schemes", "views", "kernel",
	"bbcache", "predict", "loadgen", "apps", "gc", "other",
}

// profBucketOf maps a repro/internal package to its bucket.
var profBucketOf = map[string]string{
	"cpu": "cpu", "cache": "cache", "memsim": "memsim", "vmm": "vmm",
	"schemes": "schemes", "dsv": "views", "isv": "views", "viewcache": "views",
	"kernel": "kernel", "slab": "kernel", "buddy": "kernel", "cgroup": "kernel",
	"bbcache": "bbcache", "predict": "predict", "loadgen": "loadgen", "apps": "apps",
}

// gcFrames mark a sample as memory-management work wherever they appear
// in its stack.
var gcFrames = []string{
	"runtime.gc", "runtime.mallocgc", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.markroot", "runtime.scanobject", "runtime.sweepone",
}

// profShares decodes a gzipped pprof CPU profile and returns each bucket's
// share of the sampled CPU time.
func profShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	byBucket := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1])
		total += v
		byBucket[p.bucket(s.locs)] += v
	}
	out := map[string]float64{}
	for _, b := range profBuckets {
		out[b] = ratio(byBucket[b], total)
	}
	return out, nil
}

// bucket classifies one sample's stack (leaf first).
func (p *profile) bucket(locs []uint64) string {
	var frames []string
	for _, id := range locs {
		for _, fn := range p.locs[id] {
			frames = append(frames, p.strings[p.funcs[fn]])
		}
	}
	for _, f := range frames {
		for _, g := range gcFrames {
			if strings.HasPrefix(f, g) {
				return "gc"
			}
		}
	}
	for _, f := range frames {
		pkg := funcPackage(f)
		if rest, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
			if b, ok := profBucketOf[rest]; ok {
				return b
			}
			return "other"
		}
		if strings.HasPrefix(pkg, "repro/") || pkg == "main" {
			return "other"
		}
	}
	return "other"
}

// funcPackage is the import path of a symbol such as
// "repro/internal/cpu.(*Core).runThreaded".
func funcPackage(sym string) string {
	slash := strings.LastIndexByte(sym, '/')
	if dot := strings.IndexByte(sym[slash+1:], '.'); dot >= 0 {
		return sym[:slash+1+dot]
	}
	return sym
}

// profile is the part of a pprof profile.proto the attribution reads.
type profile struct {
	samples []sample
	locs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcs   map[uint64]int64    // function id -> name string index
	strings []string
}

type sample struct {
	locs   []uint64
	values []int64
}

var errProto = errors.New("malformed protobuf")

// protoField is one decoded field of a protobuf message.
type protoField struct {
	num  int
	wire int
	v    uint64 // varint / fixed value
	b    []byte // length-delimited payload
}

// protoFields splits a protobuf message into its fields.
func protoFields(buf []byte) ([]protoField, error) {
	var out []protoField
	for len(buf) > 0 {
		key, n := uvarint(buf)
		if n <= 0 {
			return nil, errProto
		}
		buf = buf[n:]
		f := protoField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n = uvarint(buf)
			if n <= 0 {
				return nil, errProto
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return nil, errProto
			}
			buf = buf[8:]
		case 2:
			l, n := uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return nil, errProto
			}
			f.b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return nil, errProto
			}
			buf = buf[4:]
		default:
			return nil, errProto
		}
		out = append(out, f)
	}
	return out, nil
}

func uvarint(buf []byte) (uint64, int) {
	var x uint64
	for i, c := range buf {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// varints reads a repeated integer field, packed or not.
func varints(f protoField) ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.v}, nil
	}
	var out []uint64
	for b := f.b; len(b) > 0; {
		v, n := uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

func decodeProfile(raw []byte) (*profile, error) {
	fields, err := protoFields(raw)
	if err != nil {
		return nil, err
	}
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	for _, f := range fields {
		switch f.num {
		case 2: // Sample
			sub, err := protoFields(f.b)
			if err != nil {
				return nil, err
			}
			var s sample
			for _, g := range sub {
				vs, err := varints(g)
				if err != nil {
					return nil, err
				}
				switch g.num {
				case 1:
					s.locs = append(s.locs, vs...)
				case 2:
					for _, v := range vs {
						s.values = append(s.values, int64(v))
					}
				}
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			sub, err := protoFields(f.b)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, g := range sub {
				switch g.num {
				case 1:
					id = g.v
				case 4: // Line
					line, err := protoFields(g.b)
					if err != nil {
						return nil, err
					}
					for _, l := range line {
						if l.num == 1 {
							fns = append(fns, l.v)
						}
					}
				}
			}
			p.locs[id] = fns
		case 5: // Function
			sub, err := protoFields(f.b)
			if err != nil {
				return nil, err
			}
			var id uint64
			var name int64
			for _, g := range sub {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = int64(g.v)
				}
			}
			p.funcs[id] = name
		case 6:
			p.strings = append(p.strings, string(f.b))
		}
	}
	for _, fn := range p.funcs {
		if fn < 0 || fn >= int64(len(p.strings)) {
			return nil, errProto
		}
	}
	return p, nil
}
