package core

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/compare"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/paillier"
	"repro/internal/partition"
	"repro/internal/transport"
)

// The nonce stock (Session.stock, paillier.NonceStock) changes when the
// peer's r^n is raised and nothing else. A session with Config.Random set
// gets no stock, so the pair (default, Random = crypto/rand behind a lock)
// is the same protocol over the same randomness source with and without
// it; everything either party can count must agree.

// stockFamilies binds the four two-party families to data on which every
// one of them puts ciphertexts under the peer's key on the wire (the blob
// sample, except that the enhanced family asks nothing remote on it and
// takes the grid fixture). The vertical family takes a larger sample of
// the same blobs: its Run is more than W = 4 chunks of the lockstep
// schedule (cleanRunFrames' callers assert it), so every worker channel
// runs a second chunk after its first — a Run has a middle to vanish in,
// and a nonce stock is consulted after it was first ordered from.
func stockFamilies(t *testing.T) []sessionFamily {
	t.Helper()
	blobs, _ := dataset.Quantize(dataset.Blobs(24, 2, 0.4, 7), 8)
	hsplit, err := partition.HorizontalRandom(blobs.Points, 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	wide, _ := dataset.Quantize(dataset.Blobs(80, 2, 0.4, 7), 8)
	vsplit, err := partition.Vertical(wide.Points, 1)
	if err != nil {
		t.Fatal(err)
	}
	asplit, err := partition.ArbitraryRandom(blobs.Points, 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	return []sessionFamily{
		{"horizontal",
			func(c transport.Conn, cfg Config) (*Session, error) {
				return NewHorizontalSession(c, cfg, RoleAlice, hsplit.Alice)
			},
			func(c transport.Conn, cfg Config) (*Session, error) {
				return NewHorizontalSession(c, cfg, RoleBob, hsplit.Bob)
			}},
		{"enhanced",
			func(c transport.Conn, cfg Config) (*Session, error) {
				return NewEnhancedHorizontalSession(c, cfg, RoleAlice, testAlicePts)
			},
			func(c transport.Conn, cfg Config) (*Session, error) {
				return NewEnhancedHorizontalSession(c, cfg, RoleBob, testBobPts)
			}},
		{"vertical",
			func(c transport.Conn, cfg Config) (*Session, error) {
				return NewVerticalSession(c, cfg, RoleAlice, vsplit.Alice)
			},
			func(c transport.Conn, cfg Config) (*Session, error) {
				return NewVerticalSession(c, cfg, RoleBob, vsplit.Bob)
			}},
		{"arbitrary",
			func(c transport.Conn, cfg Config) (*Session, error) {
				return NewArbitrarySession(c, cfg, RoleAlice, asplit.Alice, asplit.Owners)
			},
			func(c transport.Conn, cfg Config) (*Session, error) {
				return NewArbitrarySession(c, cfg, RoleBob, asplit.Bob, asplit.Owners)
			}},
	}
}

// stockSide is what one party of a finished one-Run session exposes.
type stockSide struct {
	res   *Result
	setup Ledger
	wire  transport.Stats
	stock paillier.NonceStats
	sess  *Session
}

// runOverLatency establishes fam over a 1 ms LatencyPipe, runs it once and
// closes it.
func runOverLatency(t *testing.T, fam sessionFamily, cfg Config) (a, b stockSide) {
	t.Helper()
	ca, cb := transport.LatencyPipe(time.Millisecond)
	ma, mb := transport.NewMeter(ca), transport.NewMeter(cb)
	err := transport.RunPair(ma, mb,
		func(transport.Conn) (err error) {
			if a.sess, err = fam.newA(ma, cfg); err != nil {
				return err
			}
			if a.res, err = a.sess.Run(); err != nil {
				return err
			}
			return a.sess.Close()
		},
		func(transport.Conn) (err error) {
			if b.sess, err = fam.newB(mb, cfg); err != nil {
				return err
			}
			if b.res, err = b.sess.Run(); err != nil {
				return err
			}
			if _, err = b.sess.Run(); !errors.Is(err, ErrSessionClosed) {
				return fmt.Errorf("serving side after the close op: %v", err)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for side, m := range map[*stockSide]*transport.Meter{&a: ma, &b: mb} {
		side.setup, side.wire, side.stock = side.sess.SetupLeakage(), m.Stats(), side.sess.NonceStats()
	}
	return a, b
}

func TestNonceStockChangesTimeOnly(t *testing.T) {
	hits := map[string]uint64{}
	for _, fam := range stockFamilies(t) {
		for _, w := range []int{1, 4} {
			name := fmt.Sprintf("%s/W=%d", fam.name, w)
			t.Run(name, func(t *testing.T) {
				cfg := parallelCfg(compare.EngineMasked, w, PruneGrid)
				var stocked, bare [2]stockSide
				stocked[0], stocked[1] = runOverLatency(t, fam, cfg)
				cfg.Random = transport.LockedReader(rand.Reader)
				bare[0], bare[1] = runOverLatency(t, fam, cfg)
				for p, role := range []Role{RoleAlice, RoleBob} {
					s, b := stocked[p], bare[p]
					if !metrics.ExactMatch(s.res.Labels, b.res.Labels) || s.res.NumClusters != b.res.NumClusters {
						t.Errorf("%v: labels diverge: %v vs %v", role, s.res.Labels, b.res.Labels)
					}
					if s.res.Leakage != b.res.Leakage {
						t.Errorf("%v: run ledgers diverge: %v vs %v", role, s.res.Leakage, b.res.Leakage)
					}
					if s.setup != b.setup {
						t.Errorf("%v: set-up ledgers diverge: %v vs %v", role, s.setup, b.setup)
					}
					if s.res.SecureComparisons != b.res.SecureComparisons ||
						s.res.CiphertextsUplink != b.res.CiphertextsUplink ||
						s.res.CiphertextsDownlink != b.res.CiphertextsDownlink {
						t.Errorf("%v: counters diverge: %d cmps %d up %d down vs %d cmps %d up %d down", role,
							s.res.SecureComparisons, s.res.CiphertextsUplink, s.res.CiphertextsDownlink,
							b.res.SecureComparisons, b.res.CiphertextsUplink, b.res.CiphertextsDownlink)
					}
					if s.wire.MessagesSent != b.wire.MessagesSent || s.wire.MessagesRecv != b.wire.MessagesRecv {
						t.Errorf("%v: frames diverge: %d sent %d received vs %d sent %d received", role,
							s.wire.MessagesSent, s.wire.MessagesRecv, b.wire.MessagesSent, b.wire.MessagesRecv)
					}
					// A ciphertext is a uniform number below n²: one in 256
					// encodes a byte shorter.
					if d := math.Abs(float64(s.wire.Total() - b.wire.Total())); d > 0.001*float64(b.wire.Total()) {
						t.Errorf("%v: bytes diverge: %d vs %d", role, s.wire.Total(), b.wire.Total())
					}
					if b.stock != (paillier.NonceStats{}) {
						t.Errorf("%v: a session with Config.Random set ran a stock: %+v", role, b.stock)
					}
					st := s.stock
					if st.Produced > st.Hits+st.Misses || st.Produced != st.Hits+st.Discarded {
						t.Errorf("%v: stock %+v: produced beyond demand, or the books do not balance", role, st)
					}
					// One nonce per ciphertext under the peer's key, and those
					// are the response leg the party already counts: the
					// stock's counters disclose nothing new.
					if asked := int64(st.Hits + st.Misses); asked != s.res.CiphertextsDownlink {
						t.Errorf("%v: stock was asked for %d nonces, the run counted %d downlink ciphertexts", role, asked, s.res.CiphertextsDownlink)
					}
					hits[name] += st.Hits
				}
			})
		}
	}
	// Vacuity guard: where the wire leaves the processor idle, the stock
	// must actually have served.
	for _, name := range []string{"horizontal/W=4", "vertical/W=4"} {
		if hits[name] == 0 {
			t.Errorf("%s: the stocked run reports no hit — the comparison above compared nothing", name)
		}
	}
}
