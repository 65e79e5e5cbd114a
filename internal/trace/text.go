package trace

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// Human-editable text trace format, so workloads can be hand-written,
// diffed, or converted from a site's own trace data:
//
//	#cxtrace v1 workload=<profile> procs=<n> dirs=<n>
//	# comment
//	<proc> <op> <file> <dir>
//
// where <op> is one of create remove mkdir rmdir link unlink stat lookup
// setattr statshared lookupshared. Field meanings match Rec; records must
// be grouped per process in issue order (the parser preserves order and
// only requires proc ids in [0, procs)).

var kindNames = map[Kind]string{
	CreateOwn: "create", RemoveOwn: "remove", MkdirOwn: "mkdir", RmdirOwn: "rmdir",
	LinkOwn: "link", UnlinkOwn: "unlink", StatOwn: "stat", LookupOwn: "lookup",
	SetAttrOwn: "setattr", StatShared: "statshared", LookupShared: "lookupshared",
}

var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, len(kindNames))
	for k, n := range kindNames {
		m[n] = k
	}
	return m
}()

// WriteText renders the trace in the text format.
func (t *Trace) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "#cxtrace v1 workload=%s procs=%d dirs=%d\n",
		t.Profile.Name, len(t.PerProc), t.Dirs)
	for pi, recs := range t.PerProc {
		for _, r := range recs {
			fmt.Fprintf(bw, "%d %s %d %d\n", pi, kindNames[r.Kind], r.File, r.Dir)
		}
	}
	return bw.Flush()
}

// ParseText reads a text trace. The workload name must match a known
// profile (its process count and directory layout parameterize replay).
func ParseText(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	lineNo := 0

	if !sc.Scan() {
		return nil, fmt.Errorf("trace: empty input")
	}
	lineNo++
	header := sc.Text()
	if !strings.HasPrefix(header, "#cxtrace v1 ") {
		return nil, fmt.Errorf("trace: missing #cxtrace v1 header")
	}
	fields := map[string]string{}
	for _, tok := range strings.Fields(header)[2:] {
		kv := strings.SplitN(tok, "=", 2)
		if len(kv) == 2 {
			fields[kv[0]] = kv[1]
		}
	}
	profile, err := ProfileByName(fields["workload"])
	if err != nil {
		return nil, err
	}
	var procs, dirs int
	if _, err := fmt.Sscanf(fields["procs"], "%d", &procs); err != nil || procs <= 0 {
		return nil, fmt.Errorf("trace: bad procs %q", fields["procs"])
	}
	if _, err := fmt.Sscanf(fields["dirs"], "%d", &dirs); err != nil || dirs < 0 {
		return nil, fmt.Errorf("trace: bad dirs %q", fields["dirs"])
	}
	if procs != profile.Procs {
		return nil, fmt.Errorf("trace: %d procs but profile %s has %d",
			procs, profile.Name, profile.Procs)
	}

	perProc := make([][]Rec, procs)
	total := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var pi, file, dir int
		var opName string
		if _, err := fmt.Sscanf(line, "%d %s %d %d", &pi, &opName, &file, &dir); err != nil {
			return nil, fmt.Errorf("trace: line %d: %v", lineNo, err)
		}
		kind, ok := kindByName[opName]
		if !ok {
			return nil, fmt.Errorf("trace: line %d: unknown op %q", lineNo, opName)
		}
		if pi < 0 || pi >= procs {
			return nil, fmt.Errorf("trace: line %d: proc %d out of range", lineNo, pi)
		}
		perProc[pi] = append(perProc[pi], Rec{Proc: pi, Kind: kind, File: file, Dir: dir})
		total++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return &Trace{Profile: profile, Scale: 0, PerProc: perProc, Total: total, Dirs: dirs}, nil
}
