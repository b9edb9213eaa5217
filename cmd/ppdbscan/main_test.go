package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

func TestReadCSV(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "points.csv")
	content := "1,2\n# comment\n3.5, 4.5\n\n5,6\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	pts, err := readCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("got %d points, want 3", len(pts))
	}
	if pts[1][0] != 3.5 || pts[1][1] != 4.5 {
		t.Errorf("pts[1] = %v", pts[1])
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := readCSV(""); err == nil {
		t.Error("empty path accepted")
	}
	if _, err := readCSV("/nonexistent/file.csv"); err == nil {
		t.Error("missing file accepted")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.csv")
	os.WriteFile(path, []byte("1,notanumber\n"), 0o644)
	if _, err := readCSV(path); err == nil {
		t.Error("malformed number accepted")
	}
}

func TestMakeDataset(t *testing.T) {
	for _, kind := range []string{"blobs", "moons", "rings", "bridged"} {
		d, err := makeDataset(kind, 50, 1)
		if err != nil {
			t.Errorf("%s: %v", kind, err)
		}
		if len(d.Points) < 50 {
			t.Errorf("%s: only %d points", kind, len(d.Points))
		}
	}
	if _, err := makeDataset("bogus", 10, 1); err == nil {
		t.Error("bogus kind accepted")
	}
}

func TestProtocolFlagsConfig(t *testing.T) {
	p := &protocolFlags{mode: "horizontal", eps: 4, minPts: 3, grid: 64,
		engine: "masked", selection: "scan", seed: 1}
	cfg, err := p.config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.MaxCoord != 63 || cfg.Eps != 4 || cfg.MinPts != 3 {
		t.Errorf("config = %+v", cfg)
	}
	p.engine = "bogus"
	if _, err := p.config(); err == nil {
		t.Error("bogus engine accepted")
	}
	p.engine = "masked"
	p.selection = "bogus"
	if _, err := p.config(); err == nil {
		t.Error("bogus selection accepted")
	}
}

// TestProtocolFlagsSequentialDefaultsPackingOff: `-batching sequential`
// alone parses into a valid config, with core's default packing for the
// sequential round structure ("off"), not the batched default.
func TestProtocolFlagsSequentialDefaultsPackingOff(t *testing.T) {
	fs := flag.NewFlagSet("demo", flag.ContinueOnError)
	p := addProtocolFlags(fs)
	if err := fs.Parse([]string{"-batching", "sequential"}); err != nil {
		t.Fatal(err)
	}
	cfg, err := p.config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg, err = cfg.Normalize(); err != nil {
		t.Fatalf("-batching sequential: %v", err)
	}
	if cfg.Batching != core.BatchModeSequential || cfg.Packing != core.PackOff {
		t.Errorf("-batching sequential: batching %q packing %q, want %q and %q", cfg.Batching, cfg.Packing, core.BatchModeSequential, core.PackOff)
	}
}

func TestGenWritesCSVRoundTrip(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "gen.csv")
	if err := cmdGen([]string{"-kind", "moons", "-n", "40", "-grid", "32", "-out", out}); err != nil {
		t.Fatal(err)
	}
	pts, err := readCSV(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 40 {
		t.Fatalf("generated %d points, want 40", len(pts))
	}
	for _, p := range pts {
		for _, v := range p {
			if v < 0 || v > 31 {
				t.Fatalf("point %v outside grid", p)
			}
		}
	}
}

func TestCmdExperimentsUnknownID(t *testing.T) {
	if err := cmdExperiments([]string{"-id", "e99", "-quick"}); err == nil {
		t.Error("unknown experiment id accepted")
	}
}
