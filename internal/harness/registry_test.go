package harness

import (
	"reflect"
	"strings"
	"testing"
)

func TestRegistryIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, id := range IDs() {
		if seen[id] {
			t.Errorf("experiment %q registered twice", id)
		}
		seen[id] = true
	}
}

func TestLookupUnknownNamesValidIDs(t *testing.T) {
	_, err := Lookup("fig10")
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	for _, id := range IDs() {
		if !strings.Contains(err.Error(), id) {
			t.Errorf("error %q does not name %q", err, id)
		}
	}
	if _, err := Select("table2,fig10"); err == nil {
		t.Error("Select accepted an unknown experiment")
	}
}

// TestSelectAll pins the "all" set: the paper's tables and figures, then
// the extensions, without chaos.
func TestSelectAll(t *testing.T) {
	exps, err := Select("all")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range exps {
		got = append(got, e.ID)
	}
	want := []string{"table2", "table4", "table5", "fig4", "fig5", "fig6", "fig7a", "fig7b",
		"fig8", "fig9a", "fig9b", "protocols", "metarates", "statstorm", "latency", "triggers"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("all = %v, want %v", got, want)
	}
}

// TestChaosEntryKeepsItsOwnGeometry runs the chaos entry with the
// trace-driven server count: chaos must ignore it and keep its 4-server
// fingerprint.
func TestChaosEntryKeepsItsOwnGeometry(t *testing.T) {
	e, err := Lookup("chaos")
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Run(Config{Seed: 1, Servers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.Text, "fingerprint=739de1fb379450be\n") {
		t.Errorf("chaos report lacks the seed-1 fingerprint:\n%s", out.Text)
	}
}

// TestProtocolsMatchesGoldenTimeline checks the five-protocol comparison
// against the pinned golden replays of the same trace and seed.
func TestProtocolsMatchesGoldenTimeline(t *testing.T) {
	rows, _ := Protocols(Config{Scale: 0.01, Servers: 8, Seed: 1})
	got := map[string]ProtocolRow{}
	for _, r := range rows {
		got[string(r.Protocol)] = r
	}
	n := 0
	for _, g := range goldenReplays {
		if g.cacheTTL != 0 || g.retry {
			continue
		}
		n++
		r, ok := got[string(g.proto)]
		if !ok {
			t.Errorf("%s: no row", g.name)
			continue
		}
		if r.ReplayTime.Nanoseconds() != g.virtualNS || r.Messages != g.messages {
			t.Errorf("%s: virtual=%dns messages=%d, pinned %dns/%d",
				g.name, r.ReplayTime.Nanoseconds(), r.Messages, g.virtualNS, g.messages)
		}
	}
	if n != len(rows) {
		t.Errorf("%d protocol rows, %d golden replays", len(rows), n)
	}
}

// TestRunOutputs checks the Output shape: a report, rows only where -json
// has something to write, and the statstorm gate.
func TestRunOutputs(t *testing.T) {
	cfg := Config{Scale: 0.0005, Servers: 2, Seed: 1}
	for id, want := range map[string]string{"fig7b": "peak=", "metarates": "Metarates"} {
		e, _ := Lookup(id)
		out, err := e.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !strings.Contains(out.Text, want) {
			t.Errorf("%s: report lacks %q:\n%s", id, want, out.Text)
		}
		if (out.Rows != nil) != (id != "fig7b") || (out.Rows != nil) != (out.RowsLabel != "") {
			t.Errorf("%s: rows %v labelled %q", id, out.Rows != nil, out.RowsLabel)
		}
	}
	e, _ := Lookup("statstorm")
	cfg.MinRatio = 1e9
	if out, err := e.Run(cfg); err == nil || !strings.Contains(out.Text, "worst cache message reduction") {
		t.Errorf("statstorm gate: err=%v text=%q", err, out.Text)
	}
}
