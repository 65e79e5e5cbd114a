package trace

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	p, _ := ProfileByName("s3d")
	tr := Generate(p, scaleFor(p, 2000), 9)
	path := filepath.Join(t.TempDir(), "s3d.cxtr")
	if err := tr.Save(path); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if got.Total != tr.Total || got.Dirs != tr.Dirs || got.Scale != tr.Scale {
		t.Errorf("metadata mismatch: %+v vs %+v", got.Total, tr.Total)
	}
	if got.Profile.Name != "s3d" {
		t.Errorf("profile=%s", got.Profile.Name)
	}
	if len(got.PerProc) != len(tr.PerProc) {
		t.Fatalf("procs %d vs %d", len(got.PerProc), len(tr.PerProc))
	}
	for pi := range tr.PerProc {
		if len(got.PerProc[pi]) != len(tr.PerProc[pi]) {
			t.Fatalf("proc %d: %d vs %d records", pi, len(got.PerProc[pi]), len(tr.PerProc[pi]))
		}
		for i := range tr.PerProc[pi] {
			if got.PerProc[pi][i] != tr.PerProc[pi][i] {
				t.Fatalf("proc %d rec %d: %+v vs %+v", pi, i, got.PerProc[pi][i], tr.PerProc[pi][i])
			}
		}
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	p, _ := ProfileByName("CTH")
	tr := Generate(p, scaleFor(p, 500), 1)
	dir := t.TempDir()
	path := filepath.Join(dir, "t.cxtr")
	if err := tr.Save(path); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(path)

	// Flip a byte in the middle: checksum must catch it.
	bad := append([]byte(nil), raw...)
	bad[len(bad)/2] ^= 0xFF
	badPath := filepath.Join(dir, "bad.cxtr")
	os.WriteFile(badPath, bad, 0o644)
	if _, err := Load(badPath); err == nil {
		t.Error("corrupted file loaded")
	}

	// Truncate: must fail cleanly.
	os.WriteFile(badPath, raw[:len(raw)/3], 0o644)
	if _, err := Load(badPath); err == nil {
		t.Error("truncated file loaded")
	}

	// Wrong magic.
	os.WriteFile(badPath, append([]byte("NOPE!"), raw[5:]...), 0o644)
	if _, err := Load(badPath); err == nil {
		t.Error("bad magic accepted")
	}

	// Missing file.
	if _, err := Load(filepath.Join(dir, "absent.cxtr")); err == nil {
		t.Error("absent file loaded")
	}
}

func TestLoadedTraceReplaysIdentically(t *testing.T) {
	p, _ := ProfileByName("CTH")
	tr := Generate(p, scaleFor(p, 800), 3)
	path := filepath.Join(t.TempDir(), "r.cxtr")
	if err := tr.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}

	run := func(tt *Trace) (int, uint64) {
		c := testCluster("cx")
		defer c.Shutdown()
		res := (&Replayer{Trace: tt, C: c}).Run()
		return res.Ops, res.Messages
	}
	ops1, msgs1 := run(tr)
	ops2, msgs2 := run(loaded)
	if ops1 != ops2 || msgs1 != msgs2 {
		t.Errorf("replay diverged: (%d,%d) vs (%d,%d)", ops1, msgs1, ops2, msgs2)
	}
}

func TestTextRoundTrip(t *testing.T) {
	p, _ := ProfileByName("CTH")
	tr := Generate(p, scaleFor(p, 1200), 4)
	var buf bytes.Buffer
	if err := tr.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Total != tr.Total || got.Dirs != tr.Dirs {
		t.Errorf("meta: %d/%d vs %d/%d", got.Total, got.Dirs, tr.Total, tr.Dirs)
	}
	for pi := range tr.PerProc {
		if len(got.PerProc[pi]) != len(tr.PerProc[pi]) {
			t.Fatalf("proc %d length", pi)
		}
		for i := range tr.PerProc[pi] {
			if got.PerProc[pi][i] != tr.PerProc[pi][i] {
				t.Fatalf("proc %d rec %d: %+v vs %+v", pi, i, got.PerProc[pi][i], tr.PerProc[pi][i])
			}
		}
	}
}

func TestParseTextHandWritten(t *testing.T) {
	src := `#cxtrace v1 workload=CTH procs=64 dirs=2
# a tiny hand-written workload
0 create 0 0
0 stat 0 0
1 create 1 1
# trailing comment
0 remove 0 0
`
	tr, err := ParseText(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Total != 4 {
		t.Errorf("total=%d", tr.Total)
	}
	if len(tr.PerProc[0]) != 3 || len(tr.PerProc[1]) != 1 {
		t.Errorf("per-proc: %d/%d", len(tr.PerProc[0]), len(tr.PerProc[1]))
	}
	if tr.PerProc[0][2].Kind != RemoveOwn {
		t.Errorf("kind=%v", tr.PerProc[0][2].Kind)
	}
	// And it replays.
	c := testCluster("cx")
	defer c.Shutdown()
	res := (&Replayer{Trace: tr, C: c}).Run()
	if res.HardErrors != 0 {
		t.Errorf("hand-written trace replay: %d hard errors", res.HardErrors)
	}
}

func TestParseTextRejectsGarbage(t *testing.T) {
	bad := []string{
		"",
		"not a header\n0 create 0 0\n",
		"#cxtrace v1 workload=NOPE procs=4 dirs=1\n",
		"#cxtrace v1 workload=CTH procs=0 dirs=1\n",
		"#cxtrace v1 workload=CTH procs=99 dirs=1\n", // profile mismatch
		"#cxtrace v1 workload=CTH procs=64 dirs=1\n0 teleport 0 0\n",
		"#cxtrace v1 workload=CTH procs=64 dirs=1\n99 create 0 0\n",
		"#cxtrace v1 workload=CTH procs=64 dirs=1\nnot numbers here\n",
	}
	for i, src := range bad {
		if _, err := ParseText(strings.NewReader(src)); err == nil {
			t.Errorf("case %d parsed", i)
		}
	}
}

// craftedFile saves a one-record CTH trace and returns its bytes with the
// first process's record count at countAt. rewrite edits the body (the
// bytes between magic and checksum), recomputes the checksum so the edit
// reaches the parser, and writes the result to a file.
func craftedFile(t *testing.T) (raw []byte, countAt int) {
	t.Helper()
	p, _ := ProfileByName("CTH")
	tr := &Trace{Profile: p, PerProc: make([][]Rec, p.Procs), Total: 1, Dirs: 1}
	tr.PerProc[0] = []Rec{{Proc: 0, Kind: CreateOwn, File: 0, Dir: 0}}
	path := filepath.Join(t.TempDir(), "one.cxtr")
	if err := tr.Save(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// magic, name length and name, scale, total, dirs, procs.
	return raw, len(fileMagic) + 2 + len(p.Name) + 8 + 4 + 4 + 4
}

func rewrite(t *testing.T, raw []byte, edit func(body []byte)) string {
	t.Helper()
	out := append([]byte(nil), raw...)
	body := out[len(fileMagic) : len(out)-4]
	edit(body)
	h := fnv.New32a()
	h.Write(body)
	binary.LittleEndian.PutUint32(out[len(out)-4:], h.Sum32())
	path := filepath.Join(t.TempDir(), "crafted.cxtr")
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadRejectsImpossibleRecordCount pins that a record count larger
// than the file could hold is rejected before it is allocated: 1<<20
// records are 32 MiB for a file of a few hundred bytes, and 0xFFFFFFFF
// about 128 GiB.
func TestLoadRejectsImpossibleRecordCount(t *testing.T) {
	raw, countAt := craftedFile(t)
	path := rewrite(t, raw, func(body []byte) {
		binary.LittleEndian.PutUint32(body[countAt-len(fileMagic):], 1<<20)
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Load(path)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("record count of 1<<20 accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("rejecting the count allocated %d bytes; want under 1 MiB", got)
	}
}

// TestLoadRejectsUnknownKinds pins that record kinds outside
// CreateOwn..LookupShared are rejected rather than loaded and then
// silently skipped by the replayer.
func TestLoadRejectsUnknownKinds(t *testing.T) {
	raw, countAt := craftedFile(t)
	kindAt := countAt + 4 - len(fileMagic)
	for _, k := range []Kind{0, LookupShared + 1} {
		path := rewrite(t, raw, func(body []byte) { body[kindAt] = byte(k) })
		if _, err := Load(path); err == nil {
			t.Errorf("kind %d accepted", k)
		}
	}
	path := rewrite(t, raw, func(body []byte) { body[kindAt] = byte(LookupShared) })
	if _, err := Load(path); err != nil {
		t.Errorf("kind %d rejected: %v", LookupShared, err)
	}
}
