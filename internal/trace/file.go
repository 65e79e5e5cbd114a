package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
)

// Binary trace file format, so generated workloads can be saved, diffed,
// and replayed exactly (the synthetic stand-ins for the Sandia/Harvard
// traces are deterministic, but a file pins a workload across versions of
// the generator):
//
//	magic   "CXTR\x01"
//	u16     profile-name length, name bytes
//	f64     scale
//	u32     total ops
//	u32     dirs
//	u32     procs
//	per proc: u32 record count, then records of
//	          u8 kind, varint file, varint dir
//	u32     FNV-1a checksum of everything after the magic
//
// Numbers are little endian; file/dir use unsigned varints since symbolic
// ids are small and dense.

var fileMagic = []byte("CXTR\x01")

// Save writes the trace to path.
func (t *Trace) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: save: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	h := fnv.New32a()
	out := io.MultiWriter(w, h)

	if _, err := w.Write(fileMagic); err != nil {
		return err
	}
	var scratch [binary.MaxVarintLen64]byte
	writeU16 := func(v uint16) error {
		binary.LittleEndian.PutUint16(scratch[:2], v)
		_, err := out.Write(scratch[:2])
		return err
	}
	writeU32 := func(v uint32) error {
		binary.LittleEndian.PutUint32(scratch[:4], v)
		_, err := out.Write(scratch[:4])
		return err
	}
	writeVarint := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := out.Write(scratch[:n])
		return err
	}

	if err := writeU16(uint16(len(t.Profile.Name))); err != nil {
		return err
	}
	if _, err := io.WriteString(out, t.Profile.Name); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(scratch[:8], math.Float64bits(t.Scale))
	if _, err := out.Write(scratch[:8]); err != nil {
		return err
	}
	if err := writeU32(uint32(t.Total)); err != nil {
		return err
	}
	if err := writeU32(uint32(t.Dirs)); err != nil {
		return err
	}
	if err := writeU32(uint32(len(t.PerProc))); err != nil {
		return err
	}
	for _, recs := range t.PerProc {
		if err := writeU32(uint32(len(recs))); err != nil {
			return err
		}
		for _, r := range recs {
			if _, err := out.Write([]byte{byte(r.Kind)}); err != nil {
				return err
			}
			if err := writeVarint(uint64(r.File)); err != nil {
				return err
			}
			if err := writeVarint(uint64(r.Dir)); err != nil {
				return err
			}
		}
	}
	binary.LittleEndian.PutUint32(scratch[:4], h.Sum32())
	if _, err := w.Write(scratch[:4]); err != nil {
		return err
	}
	return w.Flush()
}

// Load reads a trace written by Save. The profile is re-resolved by name so
// replay parameters (process count, directories) match the generator's.
func Load(path string) (*Trace, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("trace: load: %w", err)
	}
	t, err := parseFile(raw)
	if err != nil {
		return nil, fmt.Errorf("trace: %s: %w", path, err)
	}
	return t, nil
}

// minRecBytes is the smallest encoded record: a kind byte and two one-byte
// varints. A record count that cannot fit in the bytes left is rejected
// before anything is allocated for it.
const minRecBytes = 3

// parseFile decodes the bytes of a trace file. It trusts nothing it reads:
// the checksum only detects accidents, so every count and kind is checked
// against the bytes actually present.
func parseFile(raw []byte) (*Trace, error) {
	if len(raw) < len(fileMagic)+4 {
		return nil, errors.New("truncated")
	}
	if string(raw[:len(fileMagic)]) != string(fileMagic) {
		return nil, errors.New("bad magic")
	}
	body := raw[len(fileMagic) : len(raw)-4]
	want := binary.LittleEndian.Uint32(raw[len(raw)-4:])
	h := fnv.New32a()
	h.Write(body)
	if h.Sum32() != want {
		return nil, errors.New("checksum mismatch")
	}

	pos := 0
	fail := func(what string) error { return fmt.Errorf("truncated %s", what) }
	readU16 := func() (uint16, error) {
		if pos+2 > len(body) {
			return 0, fail("u16")
		}
		v := binary.LittleEndian.Uint16(body[pos:])
		pos += 2
		return v, nil
	}
	readU32 := func() (uint32, error) {
		if pos+4 > len(body) {
			return 0, fail("u32")
		}
		v := binary.LittleEndian.Uint32(body[pos:])
		pos += 4
		return v, nil
	}
	readVarint := func() (uint64, error) {
		v, n := binary.Uvarint(body[pos:])
		if n <= 0 {
			return 0, fail("varint")
		}
		pos += n
		return v, nil
	}

	nameLen, err := readU16()
	if err != nil {
		return nil, err
	}
	if pos+int(nameLen) > len(body) {
		return nil, fail("name")
	}
	name := string(body[pos : pos+int(nameLen)])
	pos += int(nameLen)
	profile, err := ProfileByName(name)
	if err != nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if pos+8 > len(body) {
		return nil, fail("scale")
	}
	scale := math.Float64frombits(binary.LittleEndian.Uint64(body[pos:]))
	pos += 8
	total, err := readU32()
	if err != nil {
		return nil, err
	}
	dirs, err := readU32()
	if err != nil {
		return nil, err
	}
	procs, err := readU32()
	if err != nil {
		return nil, err
	}
	if int(procs) != profile.Procs {
		return nil, fmt.Errorf("%d processes but profile %s has %d", procs, name, profile.Procs)
	}
	perProc := make([][]Rec, procs)
	for pi := range perProc {
		n, err := readU32()
		if err != nil {
			return nil, err
		}
		if left := len(body) - pos; int64(n) > int64(left/minRecBytes) {
			return nil, fmt.Errorf("process %d: %d records cannot fit in %d bytes", pi, n, left)
		}
		recs := make([]Rec, n)
		for i := range recs {
			if pos >= len(body) {
				return nil, fail("record kind")
			}
			kind := Kind(body[pos])
			if kind < CreateOwn || kind > LookupShared {
				return nil, fmt.Errorf("process %d record %d: unknown kind %d", pi, i, kind)
			}
			pos++
			file, err := readVarint()
			if err != nil {
				return nil, err
			}
			dir, err := readVarint()
			if err != nil {
				return nil, err
			}
			recs[i] = Rec{Proc: pi, Kind: kind, File: int(file), Dir: int(dir)}
		}
		perProc[pi] = recs
	}
	if pos != len(body) {
		return nil, fmt.Errorf("%d trailing bytes", len(body)-pos)
	}
	return &Trace{Profile: profile, Scale: scale, PerProc: perProc, Total: int(total), Dirs: int(dirs)}, nil
}
