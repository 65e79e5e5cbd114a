package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"path"
	"sort"
	"strings"
)

// The per-layer CPU fold. go.mod has no dependencies, so the profile is read
// with a minimal decoder of the pprof protobuf format instead of
// github.com/google/pprof: only the fields the fold needs are decoded.

// frame is one (possibly inlined) function on a sampled stack.
type frame struct {
	fn, file string
}

// cpuProfile is a decoded CPU profile: each sample's stack, leaf first, and
// its CPU nanoseconds.
type cpuProfile struct {
	stacks [][]frame
	weight []int64
}

// pbuf walks protobuf wire-format fields.
type pbuf struct {
	b   []byte
	err error
}

func (p *pbuf) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			p.err = io.ErrUnexpectedEOF
			return 0
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	p.err = errors.New("pprof: varint overflow")
	return 0
}

// next reads one field. For length-delimited fields it returns the payload;
// for varints the value; fixed-width fields are skipped.
func (p *pbuf) next() (field int, wire int, v uint64, data []byte) {
	key := p.varint()
	field, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v = p.varint()
	case 1, 5:
		n := 8
		if wire == 5 {
			n = 4
		}
		if len(p.b) < n {
			p.err = io.ErrUnexpectedEOF
			return
		}
		p.b = p.b[n:]
	case 2:
		n := p.varint()
		if n > uint64(len(p.b)) {
			p.err = io.ErrUnexpectedEOF
			return
		}
		data, p.b = p.b[:n], p.b[n:]
	default:
		p.err = fmt.Errorf("pprof: unsupported wire type %d", wire)
	}
	return
}

// uints appends a repeated integer field, packed or not.
func uints(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	q := pbuf{b: data}
	for len(q.b) > 0 && q.err == nil {
		dst = append(dst, q.varint())
	}
	return dst, q.err
}

// parseProfile decodes a gzipped pprof CPU profile as runtime/pprof writes
// it (profile.proto: sample=2, location=4, function=5, string_table=6).
func parseProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	type sampleRec struct{ locs, vals []uint64 }
	type line struct{ fn uint64 }
	type function struct{ name, file int64 }
	var (
		samples []sampleRec
		locs    = map[uint64][]line{}
		funcs   = map[uint64]function{}
		strs    []string
	)
	p := pbuf{b: raw}
	for len(p.b) > 0 && p.err == nil {
		field, wire, _, data := p.next()
		if p.err != nil || wire != 2 {
			continue
		}
		q := pbuf{b: data}
		switch field {
		case 2:
			var s sampleRec
			for len(q.b) > 0 && q.err == nil {
				f, w, v, d := q.next()
				switch f {
				case 1:
					s.locs, err = uints(s.locs, w, v, d)
				case 2:
					s.vals, err = uints(s.vals, w, v, d)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case 4:
			var id uint64
			var lines []line
			for len(q.b) > 0 && q.err == nil {
				f, _, v, d := q.next()
				switch f {
				case 1:
					id = v
				case 4:
					lq := pbuf{b: d}
					var ln line
					for len(lq.b) > 0 && lq.err == nil {
						if lf, _, lv, _ := lq.next(); lf == 1 {
							ln.fn = lv
						}
					}
					lines = append(lines, ln)
				}
			}
			locs[id] = lines
		case 5:
			var id uint64
			var fn function
			for len(q.b) > 0 && q.err == nil {
				f, _, v, _ := q.next()
				switch f {
				case 1:
					id = v
				case 2:
					fn.name = int64(v)
				case 4:
					fn.file = int64(v)
				}
			}
			funcs[id] = fn
		case 6:
			strs = append(strs, string(data))
		}
		if q.err != nil {
			return nil, q.err
		}
	}
	if p.err != nil {
		return nil, p.err
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	prof := &cpuProfile{}
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		var st []frame
		for _, id := range s.locs {
			// A location's lines run from the innermost inlined function
			// out to the caller it was inlined into.
			for _, ln := range locs[id] {
				fn := funcs[ln.fn]
				st = append(st, frame{fn: str(fn.name), file: str(fn.file)})
			}
		}
		prof.stacks = append(prof.stacks, st)
		prof.weight = append(prof.weight, int64(s.vals[len(s.vals)-1]))
	}
	return prof, nil
}

// cpuLayers are the buckets every sample is charged to exactly once. They
// sum to the whole profile.
var cpuLayers = []string{
	"simrt", "transport", "wire", "node", "core.exec", "core.commit", "core.cache",
	"core.client", "baseline", "wal", "disk", "kvstore", "namespace", "other",
	"driver", "runtime.gc", "runtime.sched",
}

// layerOfFrame maps one frame to its layer, or "" for a frame outside the
// repository.
func layerOfFrame(f frame) string {
	if strings.HasPrefix(f.fn, "main.") {
		return "driver" // the benchmark's own code
	}
	pkg, ok := strings.CutPrefix(f.fn, "cxfs/internal/")
	if !ok {
		return ""
	}
	if i := strings.IndexByte(pkg, '.'); i >= 0 {
		pkg = pkg[:i]
	}
	switch pkg {
	case "core":
		switch path.Base(f.file) {
		case "commit.go", "recovery.go":
			return "core.commit"
		case "cache.go", "lease.go":
			return "core.cache"
		case "client.go", "pipeline.go":
			return "core.client"
		}
		return "core.exec" // exec.go plus the server's dispatch, rename and crash-point code
	case "trace", "metarates", "cluster":
		return "driver"
	case "simrt", "transport", "wire", "node", "baseline", "wal", "disk", "kvstore", "namespace":
		return pkg
	}
	return "other" // obs, types, stats
}

// layerOf charges one stack: GC mark workers to runtime.gc, otherwise the
// repository frame nearest the leaf, otherwise runtime.sched.
func layerOf(st []frame) string {
	for _, f := range st {
		if strings.HasPrefix(f.fn, "runtime.gcBgMarkWorker") {
			return "runtime.gc"
		}
	}
	for _, f := range st {
		if l := layerOfFrame(f); l != "" {
			return l
		}
	}
	return "runtime.sched"
}

// cpuFold is the profile charged to layers.
type cpuFold struct {
	total  int64
	layer  map[string]int64
	malloc int64 // samples with mallocgc on the stack; overlaps the layers
}

func fold(prof *cpuProfile) cpuFold {
	cf := cpuFold{layer: map[string]int64{}}
	for i, st := range prof.stacks {
		w := prof.weight[i]
		cf.total += w
		cf.layer[layerOf(st)] += w
		for _, f := range st {
			if f.fn == "runtime.mallocgc" {
				cf.malloc += w
				break
			}
		}
	}
	return cf
}

func (cf cpuFold) share(layer string) float64 {
	if cf.total == 0 {
		return 0
	}
	return float64(cf.layer[layer]) / float64(cf.total)
}

// writeFolded renders the per-layer table followed by the folded stacks
// (root first, ';'-separated, CPU ms), heaviest first.
func writeFolded(w io.Writer, prof *cpuProfile, cf cpuFold) {
	fmt.Fprintf(w, "# layer\tcpu_ms\tshare\n")
	for _, l := range cpuLayers {
		fmt.Fprintf(w, "%s\t%.1f\t%.4f\n", l, float64(cf.layer[l])/1e6, cf.share(l))
	}
	fmt.Fprintf(w, "runtime.malloc (overlapping)\t%.1f\t%.4f\n\n# folded stacks\n",
		float64(cf.malloc)/1e6, float64(cf.malloc)/float64(max(cf.total, 1)))
	folded := map[string]int64{}
	for i, st := range prof.stacks {
		names := make([]string, len(st))
		for j, f := range st {
			names[len(st)-1-j] = f.fn
		}
		folded[strings.Join(names, ";")] += prof.weight[i]
	}
	keys := make([]string, 0, len(folded))
	for k := range folded {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if folded[keys[i]] != folded[keys[j]] {
			return folded[keys[i]] > folded[keys[j]]
		}
		return keys[i] < keys[j]
	})
	for _, k := range keys {
		fmt.Fprintf(w, "%s %d\n", k, folded[k]/1e6)
	}
}
