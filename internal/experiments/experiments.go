// Package experiments regenerates the paper's evaluation artifacts,
// E1–E12: the Figure 1 privacy attack, the partition-model checks, the
// communication-complexity measurements of §4.2.2/§4.3.2/§5.1, the
// correctness comparisons against single-party DBSCAN, the paper-level
// ablations (comparison engines, selection strategies, key sizes,
// end-to-end scaling) and the multi-party extension. Each experiment
// writes a self-describing table to an io.Writer. Times and throughputs
// of this repository's own extensions (pruning, packing, scheduling,
// live sessions, serving) are not measured here: bench/ is the one
// harness that records them (README, "Measuring").
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Options tunes experiment scale.
type Options struct {
	// Quick shrinks sweeps to smoke-test size (used by `go test` and CI).
	Quick bool
	// Seed drives all dataset and permutation randomness.
	Seed int64
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// Experiment is one reproducible evaluation artifact.
type Experiment struct {
	ID    string
	Title string
	Claim string // the paper statement this experiment checks
	Run   func(w io.Writer, opt Options) error
}

// All returns the experiment registry in presentation order.
func All() []Experiment {
	return []Experiment{
		{"e1", "Figure 1 intersection attack", "linked disclosure pinpoints Alice's record; this paper's unlinked disclosure does not", runE1},
		{"e2", "Partition models (Figures 2-4)", "horizontal + vertical compose to arbitrary partitioning losslessly", runE2},
		{"e3", "Horizontal communication (§4.2.2)", "O(c1·m·l(n−l) + c2·n0·l(n−l)) bits", runE3},
		{"e4", "Vertical communication (§4.3.2)", "O(c2·n0·n²) bits", runE4},
		{"e5", "Enhanced communication & leakage (§5.1)", "same asymptotic cost as §4.2, strictly less disclosure", runE5},
		{"e6", "Protocol correctness vs single-party DBSCAN", "vertical/arbitrary match exactly; horizontal matches per-party Algorithm 3/4 semantics", runE6},
		{"e7", "DBSCAN vs k-means (introduction)", "DBSCAN finds arbitrary shapes and noise that k-means cannot", runE7},
		{"e8", "Comparison engine ablation", "YMPP costs O(n0) bits per comparison; masked engine O(1) ciphertexts", runE8},
		{"e9", "Selection strategy ablation (§5)", "O(kn) scan wins for small k, quickselect for large k", runE9},
		{"e10", "Key size scaling", "per-operation cost of Paillier and raw RSA vs modulus size", runE10},
		{"e11", "End-to-end scaling", "quadratic pair-protocol growth dominates all three protocols", runE11},
		{"e12", "Multi-party extension (§1)", "the two-party vertical protocol extends to k parties with exact output and one extra hop per party", runE12},
	}
}

// ErrUnknownExperiment reports a bad experiment id.
type ErrUnknownExperiment struct{ ID string }

func (e ErrUnknownExperiment) Error() string {
	return fmt.Sprintf("experiments: unknown experiment %q", e.ID)
}

// Run executes one experiment by id ("e1".."e12") or "all".
func Run(id string, w io.Writer, opt Options) error {
	id = strings.ToLower(strings.TrimSpace(id))
	if id == "all" {
		for _, e := range All() {
			if err := runOne(e, w, opt); err != nil {
				return err
			}
		}
		return nil
	}
	for _, e := range All() {
		if e.ID == id {
			return runOne(e, w, opt)
		}
	}
	return ErrUnknownExperiment{ID: id}
}

func runOne(e Experiment, w io.Writer, opt Options) error {
	fmt.Fprintf(w, "== %s: %s ==\n", strings.ToUpper(e.ID), e.Title)
	fmt.Fprintf(w, "claim: %s\n", e.Claim)
	if err := e.Run(w, opt); err != nil {
		return fmt.Errorf("experiments: %s: %w", e.ID, err)
	}
	fmt.Fprintln(w)
	return nil
}

// table renders aligned rows; the first row is the header.
type table struct {
	rows [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) write(w io.Writer) {
	if len(t.rows) == 0 {
		return
	}
	widths := make([]int, 0)
	for _, r := range t.rows {
		for i, c := range r {
			if i >= len(widths) {
				widths = append(widths, 0)
			}
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for _, r := range t.rows {
		var b strings.Builder
		for i, c := range r {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
}

// sortedKeys returns map keys in sorted order for stable output.
func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
