package experiments

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 12 {
		t.Fatalf("registry has %d experiments, want 12", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Claim == "" || e.Run == nil {
			t.Errorf("experiment %+v incomplete", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
	}
}

// The registry ends at e12: this repository's own extensions are measured
// by bench/, so e13..e22 must not resolve.
func TestRunUnknownID(t *testing.T) {
	for _, id := range []string{"e99", "e13", "e22"} {
		err := Run(id, io.Discard, Options{Quick: true})
		var unknown ErrUnknownExperiment
		if !errors.As(err, &unknown) {
			t.Errorf("%s: err = %v, want ErrUnknownExperiment", id, err)
		}
	}
}

// Each experiment must run in quick mode and produce a table. The crypto-
// heavy ones dominate this test's runtime; quick mode keeps each in the
// seconds range.
func TestAllExperimentsQuick(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := Run(e.ID, &buf, Options{Quick: true, Seed: 2}); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			out := buf.String()
			if !strings.Contains(out, "== "+strings.ToUpper(e.ID)) {
				t.Errorf("%s: missing header in output", e.ID)
			}
			if len(strings.Split(out, "\n")) < 4 {
				t.Errorf("%s: suspiciously short output:\n%s", e.ID, out)
			}
		})
	}
}

func TestE1RatiosIncrease(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("e1", &buf, Options{Quick: true, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	// The last column of successive data rows must be increasing ratios;
	// we just sanity-check the output contains the 'x' suffixed ratios.
	if !strings.Contains(buf.String(), "x") {
		t.Error("e1 output missing ratio column")
	}
}

func TestE6ReportsExactMatchForVertical(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("e6", &buf, Options{Quick: true, Seed: 4}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Every vertical and arbitrary table row (second column is the
	// protocol name) must report spec match = true.
	rows := 0
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) >= 3 && (f[1] == "vertical" || f[1] == "arbitrary") {
			rows++
			if f[2] != "true" {
				t.Errorf("lock-step protocol row not exact: %q", line)
			}
		}
	}
	if rows == 0 {
		t.Error("no vertical/arbitrary rows found in e6 output")
	}
}
