package multiparty

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math/rand/v2"
	"sync"
	"testing"

	"repro/internal/compare"
	"repro/internal/core"
	"repro/internal/transport"
)

// Golden transcript digests of the k-party stacks, the companion of
// core's TestGoldenTranscriptDigests: with every party's Config.Random a
// seeded stream, each party SHA-256-hashes every frame it sends after its
// session constructor returns, one hash per connection (at W > 1, one per
// mux channel of it, hashed together in channel order), and its row reads
// the first 16 hex digits of the hash of those hashes in connection
// order. Each row is one Run after establishment — what a ring or mesh
// session runs — on goldenRingRecords or goldenMeshPoints. A change that
// claims the wire did not move leaves the table as it is.

// digestConn hashes every frame sent through it once armed. Under a
// W > 1 session's Mux it splits each frame by its channel tag
// (transport.DecodeMuxFrame) and hashes every channel apart, so the digest
// does not depend on how the channels interleave; work counts each
// channel's frames that carry more than an op code.
type digestConn struct {
	transport.Conn
	mu    sync.Mutex
	on    bool
	muxed bool
	sums  []hash.Hash
	work  []int
}

// workFrame is the size above which a frame carries more than an op code:
// a 256-bit Paillier ciphertext is 64 bytes.
const workFrame = 32

func newDigestConn(c transport.Conn, w int) *digestConn {
	d := &digestConn{Conn: c, muxed: w > 1, sums: make([]hash.Hash, w), work: make([]int, w)}
	for ch := range d.sums {
		d.sums[ch] = sha256.New()
	}
	return d
}

func (d *digestConn) Send(b []byte) error {
	ch, payload := uint32(0), b
	if d.muxed {
		var err error
		if ch, payload, err = transport.DecodeMuxFrame(b); err != nil {
			return err
		}
		if int(ch) >= len(d.sums) {
			return fmt.Errorf("frame on channel %d of %d", ch, len(d.sums))
		}
	}
	d.mu.Lock()
	if d.on {
		var n [8]byte
		binary.BigEndian.PutUint64(n[:], uint64(len(payload)))
		d.sums[ch].Write(n[:])
		d.sums[ch].Write(payload)
		if len(payload) > workFrame {
			d.work[ch]++
		}
	}
	d.mu.Unlock()
	return d.Conn.Send(b)
}

func (d *digestConn) arm() {
	d.mu.Lock()
	d.on = true
	d.mu.Unlock()
}

// sum is the connection's hash: its one hash, or under a Mux the hash of
// every channel's hash in channel order.
func (d *digestConn) sum() []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.muxed {
		return d.sums[0].Sum(nil)
	}
	all := sha256.New()
	for _, h := range d.sums {
		all.Write(h.Sum(nil))
	}
	return all.Sum(nil)
}

// partyDigest hashes a party's per-connection hashes in order.
func partyDigest(conns []*digestConn) string {
	all := sha256.New()
	for _, d := range conns {
		all.Write(d.sum())
	}
	return hex.EncodeToString(all.Sum(nil))[:16]
}

// checkWork fails unless every worker channel beyond the control channel
// carried a settle frame on some connection of every party: inputs that
// fit fewer chunks than channels would leave those channels unpinned.
func checkWork(t *testing.T, conns [][]*digestConn) {
	t.Helper()
	for p, cs := range conns {
		for ch := 1; ch < len(cs[0].work); ch++ {
			n := 0
			for _, d := range cs {
				n += d.work[ch]
			}
			if n == 0 {
				t.Errorf("party %d: channel %d carried no settle frame", p, ch)
			}
		}
	}
}

// seededStream is one party's deterministic randomness.
func seededStream(party int) io.Reader {
	var seed [32]byte
	seed[0] = byte(party + 1)
	return rand.NewChaCha8(seed)
}

var goldenDigests = map[string][3]string{
	"ring/masked/Run": {"9e17b0f52d25f78a", "40c786efa54eb998", "2e474a5a89d64d76"},
	"ring/ympp/Run":   {"712e26e7fb9c4fa5", "cc2bb292c3340e8f", "f4a1d453c27edcc0"},
	"mesh/masked/Run": {"8ef069083e59fff7", "d762af8764ce23bc", "0814cdd6b6ac1572"},
	"mesh/ympp/Run":   {"3d80daa5862283b7", "15b259f4d38fc0ac", "fc7533ac00dc3a41"},
}

// goldenRingRecords are the ring rows' shared records (3-D, so a 3-party
// ring owns one column each).
var goldenRingRecords = [][]float64{
	{1, 1, 1}, {2, 1, 1}, {1, 2, 1}, {2, 2, 2},
	{9, 9, 9}, {9, 8, 9}, {8, 9, 8}, {5, 5, 5},
}

// goldenMeshPoints are the mesh rows' points, [party][point]: every party
// holds complete records.
var goldenMeshPoints = [][][]float64{
	{{1, 1}, {2, 1}, {9, 9}},
	{{1, 2}, {9, 8}, {5, 5}},
	{{2, 2}, {8, 9}, {12, 2}},
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

func checkGolden(t *testing.T, table map[string][3]string, row string, got [3]string) {
	t.Helper()
	if want := table[row]; got != want {
		t.Errorf("transcript moved:\n\t%q: {%q, %q, %q}, // was %q", row, got[0], got[1], got[2], want)
	}
}

// ringDigests runs one Run on a 3-party ring of the records init under cfg
// and returns each party's digest.
func ringDigests(t *testing.T, cfg Config, init [][]float64) [3]string {
	const k = 3
	parties := NewLocalRing(k)
	conns := make([][]*digestConn, k)
	for p := range parties {
		w := max(cfg.Parallel, 1)
		prev, next := newDigestConn(parties[p].Prev, w), newDigestConn(parties[p].Next, w)
		parties[p].Prev, parties[p].Next = prev, next
		conns[p] = []*digestConn{prev, next}
	}
	runParties(t, k, func(p int) error {
		defer parties[p].Next.Close()
		defer parties[p].Prev.Close()
		cfg := cfg
		cfg.Random = seededStream(p)
		rs, err := NewRingSession(parties[p], cfg, splitColumns(init, k)[p])
		if err != nil {
			return err
		}
		for _, d := range conns[p] {
			d.arm()
		}
		_, err = rs.Run()
		return err
	})
	checkWork(t, conns)
	var got [3]string
	for p := range got {
		got[p] = partyDigest(conns[p])
	}
	return got
}

// meshDigests runs one Run on a 3-party mesh, party p holding the points
// init[p], under cfg and returns each party's digest.
func meshDigests(t *testing.T, cfg Config, init [][][]float64) [3]string {
	const k = 3
	mesh := NewLocalMesh(k)
	conns := make([][]*digestConn, k)
	for p := range mesh {
		for q, c := range mesh[p] {
			if q != p {
				d := newDigestConn(c, max(cfg.Parallel, 1))
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
		cfg := cfg
		cfg.Random = seededStream(p)
		ms, err := NewMeshSession(HorizontalParty{Index: p, K: k, Conns: mesh[p]}, cfg, init[p])
		if err != nil {
			return err
		}
		for _, d := range conns[p] {
			d.arm()
		}
		_, err = ms.Run()
		return err
	})
	checkWork(t, conns)
	var got [3]string
	for p := range got {
		got[p] = partyDigest(conns[p])
	}
	return got
}

// TestGoldenTranscriptDigests pins a ring and a mesh Run under both
// engines.
func TestGoldenTranscriptDigests(t *testing.T) {
	for _, eng := range []compare.EngineKind{compare.EngineMasked, compare.EngineYMPP} {
		t.Run(fmt.Sprintf("ring/%s/Run", eng), func(t *testing.T) {
			checkGolden(t, goldenDigests, fmt.Sprintf("ring/%s/Run", eng), ringDigests(t, testCfg(eng), goldenRingRecords))
		})
		t.Run(fmt.Sprintf("mesh/%s/Run", eng), func(t *testing.T) {
			checkGolden(t, goldenDigests, fmt.Sprintf("mesh/%s/Run", eng), meshDigests(t, testCfg(eng), goldenMeshPoints))
		})
	}
}

// goldenDigestsW4 pins a ring Run and a mesh Run at W = 4 under masked:
// every worker channel of every edge draws from its own stream, so the
// transcripts are a pure function of the inputs at every W. The inputs
// span more chunks than channels (checkWork).
var goldenDigestsW4 = map[string][3]string{
	"ring/masked/Run": {"9bfd3d6dd2209c63", "bec0e4748c7ec149", "d5235b3e67603328"},
	"mesh/masked/Run": {"a3ae93da87a81f63", "53aea461a90d1dd8", "9c818c3d8b3ffb84"},
}

// wideCfg is the W = 4 rows' configuration: the one-cell grid, so every
// candidate and pair is asked.
func wideCfg() Config {
	cfg := testCfg(compare.EngineMasked)
	cfg.Parallel = 4
	cfg.Pruning = core.PruneOff
	return cfg
}

// widePoints returns n points of dim coordinates in [0, 15], a pure
// function of seed.
func widePoints(n, dim int, seed uint64) [][]float64 {
	r := rand.New(rand.NewPCG(seed, 0))
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, dim)
		for k := range pts[i] {
			pts[i][k] = float64(r.IntN(16))
		}
	}
	return pts
}

func TestGoldenTranscriptDigestsW4(t *testing.T) {
	t.Run("ring/masked/Run", func(t *testing.T) {
		// The lockstep planner's waves do not grow with W: at MinPts 14 and
		// Eps 6 the first wave spans five chunks, and the labels hold a
		// cluster and noise.
		cfg := wideCfg()
		cfg.Eps, cfg.MinPts = 6, 14
		checkGolden(t, goldenDigestsW4, "ring/masked/Run", ringDigests(t, cfg, widePoints(60, 3, 1)))
	})
	t.Run("mesh/masked/Run", func(t *testing.T) {
		init := [][][]float64{widePoints(30, 2, 2), widePoints(30, 2, 3), widePoints(30, 2, 4)}
		checkGolden(t, goldenDigestsW4, "mesh/masked/Run", meshDigests(t, wideCfg(), init))
	})
}
