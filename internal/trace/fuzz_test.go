package trace

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// fuzzSeed is the small generated trace both fuzz targets start from.
func fuzzSeed() *Trace {
	p, _ := ProfileByName("CTH")
	return Generate(p, scaleFor(p, 200), 1)
}

// sameTrace reports whether two traces load the same workload: profile,
// metadata and every record.
func sameTrace(a, b *Trace) bool {
	if a.Profile.Name != b.Profile.Name || math.Float64bits(a.Scale) != math.Float64bits(b.Scale) ||
		a.Total != b.Total || a.Dirs != b.Dirs || len(a.PerProc) != len(b.PerProc) {
		return false
	}
	for pi := range a.PerProc {
		if len(a.PerProc[pi]) != len(b.PerProc[pi]) {
			return false
		}
		for i := range a.PerProc[pi] {
			if a.PerProc[pi][i] != b.PerProc[pi][i] {
				return false
			}
		}
	}
	return true
}

// FuzzLoad feeds arbitrary file bodies, framed with the magic and a valid
// checksum so they reach the parser. Nothing may panic, and any accepted
// trace must survive a Save/Load round trip unchanged.
func FuzzLoad(f *testing.F) {
	path := filepath.Join(f.TempDir(), "seed.cxtr")
	if err := fuzzSeed().Save(path); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw[len(fileMagic) : len(raw)-4])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		h := fnv.New32a()
		h.Write(body)
		raw := append(append([]byte(nil), fileMagic...), body...)
		raw = binary.LittleEndian.AppendUint32(raw, h.Sum32())
		tr, err := parseFile(raw)
		if err != nil {
			return
		}
		path := filepath.Join(t.TempDir(), "t.cxtr")
		if err := tr.Save(path); err != nil {
			t.Fatalf("save of a loaded trace: %v", err)
		}
		back, err := Load(path)
		if err != nil {
			t.Fatalf("reload of a saved trace: %v", err)
		}
		if !sameTrace(tr, back) {
			t.Fatal("trace changed across a save/load round trip")
		}
	})
}

// FuzzParseText feeds arbitrary text traces. Nothing may panic, and any
// accepted trace must survive a WriteText/ParseText round trip unchanged.
func FuzzParseText(f *testing.F) {
	var seed bytes.Buffer
	if err := fuzzSeed().WriteText(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte("#cxtrace v1 workload=CTH procs=64 dirs=2\n# comment\n0 create 0 0\n1 stat 0 1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ParseText(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := tr.WriteText(&out); err != nil {
			t.Fatalf("write of a parsed trace: %v", err)
		}
		back, err := ParseText(&out)
		if err != nil {
			t.Fatalf("reparse of a written trace: %v\n%s", err, out.Bytes())
		}
		if !sameTrace(tr, back) {
			t.Fatal("trace changed across a text round trip")
		}
	})
}
