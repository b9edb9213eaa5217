package multiparty

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"io"
	"math/rand/v2"
	"sync"
	"testing"

	"repro/internal/compare"
	"repro/internal/transport"
)

// Golden transcript digests of the k-party stacks, the companion of
// core's TestGoldenTranscriptDigests: at W = 1, with every party's
// Config.Random a seeded stream, each party SHA-256-hashes every frame it
// sends after its session constructor returns, one hash per connection,
// and its row reads the first 16 hex digits of the hash of those hashes
// in connection order. A change that claims the wire did not move leaves
// the table as it is.

// digestConn hashes every frame sent through it once armed.
type digestConn struct {
	transport.Conn
	mu  sync.Mutex
	on  bool
	sum hash.Hash
}

func newDigestConn(c transport.Conn) *digestConn {
	return &digestConn{Conn: c, sum: sha256.New()}
}

func (d *digestConn) Send(b []byte) error {
	d.mu.Lock()
	if d.on {
		var n [8]byte
		binary.BigEndian.PutUint64(n[:], uint64(len(b)))
		d.sum.Write(n[:])
		d.sum.Write(b)
	}
	d.mu.Unlock()
	return d.Conn.Send(b)
}

func (d *digestConn) arm() {
	d.mu.Lock()
	d.on = true
	d.mu.Unlock()
}

// partyDigest hashes a party's per-connection hashes in order.
func partyDigest(conns []*digestConn) string {
	all := sha256.New()
	for _, d := range conns {
		d.mu.Lock()
		all.Write(d.sum.Sum(nil))
		d.mu.Unlock()
	}
	return hex.EncodeToString(all.Sum(nil))[:16]
}

// seededStream is one party's deterministic randomness.
func seededStream(party int) io.Reader {
	var seed [32]byte
	seed[0] = byte(party + 1)
	return rand.NewChaCha8(seed)
}

var goldenDigests = map[string][3]string{
	"ring/masked/Run": {"9e17b0f52d25f78a", "40c786efa54eb998", "2e474a5a89d64d76"},
	"mesh/masked/Run": {"c739e0d155c36bcf", "bf1dc1c70b3e3ea6", "a26cbf37baf5c853"},
}

// runParties runs body for each of k parties concurrently and fails on
// the first error.
func runParties(t *testing.T, k int, body func(p int) error) {
	t.Helper()
	errs := make([]error, k)
	var wg sync.WaitGroup
	for p := 0; p < k; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			errs[p] = body(p)
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func checkGolden(t *testing.T, row string, got [3]string) {
	t.Helper()
	if want := goldenDigests[row]; got != want {
		t.Errorf("transcript moved:\n\t%q: {%q, %q, %q}, // was %q", row, got[0], got[1], got[2], want)
	}
}

func TestGoldenTranscriptDigests(t *testing.T) {
	const k = 3
	t.Run("ring/masked/Run", func(t *testing.T) {
		parties := NewLocalRing(k)
		conns := make([][]*digestConn, k)
		for p := range parties {
			prev, next := newDigestConn(parties[p].Prev), newDigestConn(parties[p].Next)
			parties[p].Prev, parties[p].Next = prev, next
			conns[p] = []*digestConn{prev, next}
		}
		runParties(t, k, func(p int) error {
			defer parties[p].Next.Close()
			defer parties[p].Prev.Close()
			cfg := testCfg(compare.EngineMasked)
			cfg.Random = seededStream(p)
			rs, err := NewRingSession(parties[p], cfg, splitColumns(streamRows.init, k)[p])
			if err != nil {
				return err
			}
			for _, d := range conns[p] {
				d.arm()
			}
			_, err = rs.Run()
			return err
		})
		var got [3]string
		for p := range got {
			got[p] = partyDigest(conns[p])
		}
		checkGolden(t, "ring/masked/Run", got)
	})
	t.Run("mesh/masked/Run", func(t *testing.T) {
		mesh := NewLocalMesh(k)
		conns := make([][]*digestConn, k)
		for p := range mesh {
			for q, c := range mesh[p] {
				if q != p {
					d := newDigestConn(c)
					mesh[p][q] = d
					conns[p] = append(conns[p], d)
				}
			}
		}
		runParties(t, k, func(p int) error {
			defer func() {
				for q, c := range mesh[p] {
					if q != p {
						c.Close()
					}
				}
			}()
			cfg := testCfg(compare.EngineMasked)
			cfg.Random = seededStream(p)
			ms, err := NewMeshSession(HorizontalParty{Index: p, K: k, Conns: mesh[p]}, cfg, meshStream.init[p])
			if err != nil {
				return err
			}
			for _, d := range conns[p] {
				d.arm()
			}
			_, err = ms.Run()
			return err
		})
		var got [3]string
		for p := range got {
			got[p] = partyDigest(conns[p])
		}
		checkGolden(t, "mesh/masked/Run", got)
	})
}
