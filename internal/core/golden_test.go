package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"math/rand/v2"
	"sync"
	"testing"

	"repro/internal/compare"
	"repro/internal/transport"
)

// Golden transcript digests. At W = 1 a session whose Config.Random is a
// seeded stream is a pure function of its inputs: every frame either
// party sends is. Each row below scripts one lifecycle on one family ×
// engine, gives each party its own seeded stream, and hashes (SHA-256)
// every frame each party sends after its session constructor returns —
// so the keys and the handshake, whose version field a protocol change
// bumps, stay out of the digest, and a version bump alone moves no row.
//
// A change that claims the wire did not move leaves this table as it is;
// a change that moves the wire updates the rows it moves, in the same
// commit as its version bump. A mismatch prints the row as it now reads.

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
// a done frame is one byte, a 256-bit Paillier ciphertext 64.
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

// digest is the first 16 hex digits of the armed frames' hash; under a
// Mux, of the hash of every channel's hash in channel order.
func (d *digestConn) digest() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	sum := d.sums[0].Sum(nil)
	if d.muxed {
		all := sha256.New()
		for _, h := range d.sums {
			all.Write(h.Sum(nil))
		}
		sum = all.Sum(nil)
	}
	return hex.EncodeToString(sum)[:16]
}

// seededStream is one party's deterministic randomness.
func seededStream(party byte) io.Reader {
	var seed [32]byte
	seed[0] = party
	return rand.NewChaCha8(seed)
}

// goldenScript drives the initiating session after construction; the
// serving session runs until the initiator closes.
type goldenScript func(sess *Session, rc retractCase) error

var goldenScripts = []struct {
	op  string
	run goldenScript
}{
	{"Run", func(sess *Session, _ retractCase) error {
		_, err := sess.Run()
		return err
	}},
	{"Append", func(sess *Session, rc retractCase) error {
		if err := rc.appendGen(sess, 1); err != nil {
			return err
		}
		_, err := sess.Run()
		return err
	}},
	{"Expire", func(sess *Session, rc retractCase) error {
		if err := rc.appendGen(sess, 1); err != nil {
			return err
		}
		if _, err := sess.Run(); err != nil {
			return err
		}
		if err := sess.Expire(1); err != nil {
			return err
		}
		_, err := sess.Run()
		return err
	}},
	{"Retract", func(sess *Session, rc retractCase) error {
		for gen := 1; gen < rc.gens; gen++ {
			if err := rc.appendGen(sess, gen); err != nil {
				return err
			}
		}
		if _, err := sess.Run(); err != nil {
			return err
		}
		if err := sess.Retract(rc.steps[0].initIDs); err != nil {
			return err
		}
		_, err := sess.Run()
		return err
	}},
}

// goldenDigests maps "family/engine/op" to "alice bob" digests.
var goldenDigests = map[string]string{
	"horizontal/ympp/Run":              "342e11f015593d38 87d07e525ffa0368",
	"horizontal/ympp/Append":           "40ce91c0b9debda6 db7ea4905434e100",
	"horizontal/ympp/Expire":           "648702d5e6067f5d 590ea1ea9f25e88d",
	"horizontal/ympp/Retract":          "1cd3ac5ca64dd281 8d2623b608008a9a",
	"horizontal/ympp/sequential-Run":   "523457a061caf7d6 a0fc4e99d18e06f2",
	"horizontal/masked/Run":            "b06e5f3ec25d1035 807e73fa94e851ae",
	"horizontal/masked/Append":         "a6e42f3887fcc137 08afc90014dd298d",
	"horizontal/masked/Expire":         "dd899592610f485a 8cec212ce209daed",
	"horizontal/masked/Retract":        "5e479efe132016aa 87d24b19576baf9d",
	"horizontal/masked/sequential-Run": "9016a1c79939190c 5f41b08a93cf07e1",
	"enhanced/ympp/Run":                "fea85d136d37bbe4 ba6c068a22cfae76",
	"enhanced/ympp/Append":             "68d21aafd337a50f a408925aa5a0d969",
	"enhanced/ympp/Expire":             "5be060cc2400b911 8089b8bdbf2fd3df",
	"enhanced/ympp/Retract":            "76f3a938da32f270 0cc1270e4d1b661a",
	"enhanced/ympp/sequential-Run":     "e35e90206c2e51d3 57260bdd568b8407",
	"enhanced/masked/Run":              "58b28293154dbef1 2c7b72dbe2250021",
	"enhanced/masked/Append":           "3e60a5cf7b68c77c fd4529900a3d1b5d",
	"enhanced/masked/Expire":           "c5dfe58be4e0305e 49beca0a199d74af",
	"enhanced/masked/Retract":          "a2b886c73172e31f 3116dd18cf048ebb",
	"enhanced/masked/sequential-Run":   "be478ddf4c2f50de 91bb9815e033b018",
	"vertical/ympp/Run":                "6be71cab9918302c b93475f2c288851d",
	"vertical/ympp/Append":             "e620d557f4e08757 a3d2b6d3bc696817",
	"vertical/ympp/Expire":             "64a8e4557713bc4f a3d2b6d3bc696817",
	"vertical/ympp/Retract":            "f9df4c9ed94aaaa7 56e965ee1771063f",
	"vertical/ympp/sequential-Run":     "192bf73402156f3c 1939b12b06ee921f",
	"vertical/masked/Run":              "702df893374b15e3 6384e3d20e1180bb",
	"vertical/masked/Append":           "e7a1dc72596c7790 9c89b55930d586c6",
	"vertical/masked/Expire":           "df3db7de7c0d808e 9c89b55930d586c6",
	"vertical/masked/Retract":          "af4418aaf5e4359d 45002058db94e920",
	"vertical/masked/sequential-Run":   "47ba2bb677f078d5 ed0d775ad9399721",
	"arbitrary/ympp/Run":               "95b5831ee68bedac 9bb0922e7ce1a10c",
	"arbitrary/ympp/Append":            "b00b44c7059653af 1551acfe51aac114",
	"arbitrary/ympp/Expire":            "494f0d9b775477ea 1551acfe51aac114",
	"arbitrary/ympp/Retract":           "e39354e74a57a7fd 874d9eb482e4153d",
	"arbitrary/ympp/sequential-Run":    "583eb9d2f8f665d9 83facce46477e496",
	"arbitrary/masked/Run":             "d9f6fafad1f456af 12e3f4b0747187c6",
	"arbitrary/masked/Append":          "5850a888d2516d7c 3e57601f1e72f37a",
	"arbitrary/masked/Expire":          "3c78b02b5260885b 3e57601f1e72f37a",
	"arbitrary/masked/Retract":         "a072b26f9b6ee77c acdbb0f9f806ba39",
	"arbitrary/masked/sequential-Run":  "f907637964809e64 bd579242337c5d33",
}

// runGolden runs one scripted row and returns "alice bob" digests.
func runGolden(t *testing.T, rc retractCase, cfg Config, script goldenScript) string {
	t.Helper()
	if rc.tweak != nil {
		cfg = rc.tweak(cfg)
	}
	ca, cb := transport.Pipe()
	w := max(cfg.Parallel, 1)
	da, db := newDigestConn(ca, w), newDigestConn(cb, w)
	err := transport.RunPair(da, db,
		func(transport.Conn) error {
			c := cfg
			c.Random = seededStream(1)
			sess, err := rc.newSess(da, c, RoleAlice)
			if err != nil {
				return err
			}
			da.arm()
			if err := script(sess, rc); err != nil {
				return err
			}
			return sess.Close()
		},
		func(transport.Conn) error {
			c := cfg
			c.Random = seededStream(2)
			sess, err := rc.newSess(db, c, RoleBob)
			if err != nil {
				return err
			}
			db.arm()
			sess.SetAppendSource(rc.sourceB())
			if rc.srcB != nil {
				sess.SetRetractSource(rc.srcB())
			}
			for {
				if _, err := sess.Run(); errors.Is(err, ErrSessionClosed) {
					return nil
				} else if err != nil {
					return err
				}
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*digestConn{da, db} {
		for ch, n := range d.work[1:] {
			if n == 0 {
				t.Errorf("channel %d of %d carried no settle frame: the inputs fit fewer chunks than channels", ch+1, len(d.work))
			}
		}
	}
	return da.digest() + " " + db.digest()
}

func TestGoldenTranscriptDigests(t *testing.T) {
	engines := []compare.EngineKind{compare.EngineYMPP, compare.EngineMasked}
	for _, rc := range retractCases() {
		for _, eng := range engines {
			for _, sc := range goldenScripts {
				row := fmt.Sprintf("%s/%s/%s", rc.name, eng, sc.op)
				rc, sc := rc, sc
				t.Run(row, func(t *testing.T) {
					checkGolden(t, goldenDigests, row, runGolden(t, rc, testCfg(eng), sc.run))
				})
			}
			row := fmt.Sprintf("%s/%s/sequential-Run", rc.name, eng)
			rc := rc
			t.Run(row, func(t *testing.T) {
				cfg := testCfg(eng)
				cfg.Batching = BatchModeSequential
				cfg.Packing = PackOff
				checkGolden(t, goldenDigests, row, runGolden(t, rc, cfg, goldenScripts[0].run))
			})
		}
	}
}

func checkGolden(t *testing.T, table map[string]string, row, got string) {
	t.Helper()
	if want := table[row]; got != want {
		t.Errorf("transcript moved:\n\t%q: %q, // was %q", row, got, want)
	}
}

// Golden transcript digests at W = 4. Every worker channel draws from its
// own stream (ChannelStreams), so a seeded session is a pure function of
// its inputs at every W: each channel's frames are. These rows script the
// same lifecycles on inputs whose settle step spans more chunks than
// channels — runGolden fails a row in which channels 1–3 carry no settle
// frame — with the permutations drawn from the streams too (Seed 0), and
// hash each channel apart (digestConn).
var goldenDigestsW4 = map[string]string{
	"horizontal/ympp/Run":       "36ec3ec202deb535 1f0c1f296ff15707",
	"horizontal/ympp/Append":    "088c8d82b32dc782 e0c0d53e1ccc8caa",
	"horizontal/ympp/Expire":    "7e4283269411f46f 3f33ed93f486177d",
	"horizontal/ympp/Retract":   "3fdab20483be1aa6 a49db7b41fb952a0",
	"horizontal/masked/Run":     "eee93719d0c83893 ad7eebfaebbb8347",
	"horizontal/masked/Append":  "345766ba2d19b9e7 bcfbf9ceaedd17f3",
	"horizontal/masked/Expire":  "350ba5896b79cbe5 84babec2f608efb2",
	"horizontal/masked/Retract": "8af891c5e9f74869 03fb18049f280300",
	"enhanced/ympp/Run":         "3c272d941dc192d4 1b2836cc36e59797",
	"enhanced/ympp/Append":      "878867c60b06899e bb0316551ba783f4",
	"enhanced/ympp/Expire":      "a20441f7ceb488c1 b9f1819b00c9d4d5",
	"enhanced/ympp/Retract":     "b71194c64408d3b4 1e913b1c8be14a2f",
	"enhanced/masked/Run":       "7f5ad99034209d41 259b5df09a845c5f",
	"enhanced/masked/Append":    "c280a7a410d8467d 98ddbfca7ff6c385",
	"enhanced/masked/Expire":    "4e796f89dae0d0e7 2b023ec2cd3bed98",
	"enhanced/masked/Retract":   "ba5607f3840bcaea 91735db067d711a2",
	"vertical/ympp/Run":         "3472be2b912dd0a0 c3ce7b0f7c91c45e",
	"vertical/ympp/Append":      "e4323612dbb39545 393a50fd6b7b8602",
	"vertical/ympp/Expire":      "9497e90d9d19b08a 393a50fd6b7b8602",
	"vertical/ympp/Retract":     "273de91473fa8aaa 57e64690d2279658",
	"vertical/masked/Run":       "89be1b279af55699 5ada8f6d7c642d26",
	"vertical/masked/Append":    "62ee13a777375b4b 09ecff52a8d21ad3",
	"vertical/masked/Expire":    "f88d01fd9097088e 09ecff52a8d21ad3",
	"vertical/masked/Retract":   "20cd7ead10b1da44 4e74fdcef9330940",
	"arbitrary/ympp/Run":        "33ce79cea7131889 7d95293f6c581ffe",
	"arbitrary/ympp/Append":     "5ee87e43f3f37c23 366730fc24f25f3a",
	"arbitrary/ympp/Expire":     "4d93677997680fbf 366730fc24f25f3a",
	"arbitrary/ympp/Retract":    "bf8a2167fbf176c3 dfa041fb8da72792",
	"arbitrary/masked/Run":      "dade5e1286d2abc5 0039bbf5003fa433",
	"arbitrary/masked/Append":   "2831a5f81a0454bc 0bafa6332a03001f",
	"arbitrary/masked/Expire":   "93ab8f442fbf345c 0bafa6332a03001f",
	"arbitrary/masked/Retract":  "ed0acfe970bffb82 8529c2b139ac16b6",
}

// wideCfg is the W = 4 rows' configuration: the one-cell grid, so every
// candidate is asked, on a 4 × 4 grid with 3-bit share masks, which keeps
// YMPP's comparison domains small.
func wideCfg(eng compare.EngineKind) Config {
	cfg := testCfg(eng)
	cfg.Parallel = 4
	cfg.Pruning = PruneOff
	cfg.Seed = 0
	cfg.MaxCoord = 3
	cfg.Eps = 1
	cfg.ShareMaskBits = 3
	return cfg
}

// widePoints returns n points drawn from cells, a pure function of seed.
func widePoints(n int, seed uint64, cells ...[]float64) [][]float64 {
	r := rand.New(rand.NewPCG(seed, 0))
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = append([]float64(nil), cells[r.IntN(len(cells))]...)
	}
	return pts
}

// wideGrid is every cell of the 4 × 4 grid.
func wideGrid() [][]float64 {
	var cells [][]float64
	for x := range 4 {
		for y := range 4 {
			cells = append(cells, []float64{float64(x), float64(y)})
		}
	}
	return cells
}

// wideCases are the four families on three generations each, the
// retraction confined to the newest. The enhanced family runs on the
// 2 × 2 grid, where YMPP's selections are cheap: Alice's points crowd
// three cells and are all core locally, Bob's first ten sit on the fourth,
// one neighbour short of MinPts, so each of them is one core query — one
// row — over all of Alice's points, and his later ones sit apart.
func wideCases() []retractCase {
	grid := wideGrid()
	gens := func(seed uint64, sizes ...int) [][][]float64 {
		out := make([][][]float64, len(sizes))
		for g, n := range sizes {
			out[g] = widePoints(n, seed+uint64(g), grid...)
		}
		return out
	}
	a, b, c, d := []float64{0, 0}, []float64{0, 1}, []float64{1, 0}, []float64{1, 1}
	enhAlice := [][][]float64{widePoints(80, 10, a, b, c), widePoints(3, 11, a, b, c), widePoints(4, 12, a, b, c)}
	enhBob := [][][]float64{widePoints(10, 13, d), widePoints(3, 14, a), widePoints(3, 15, a)}
	rowSteps := []retractStep{{initIDs: []int{45, 47}}}
	return []retractCase{
		horizontalCase("horizontal", false, gens(1, 30, 3, 4), gens(4, 30, 3, 3), []retractStep{{initIDs: []int{33, 35}, srcIDs: []int{34}}}, nil),
		horizontalCase("enhanced", true, enhAlice, enhBob, []retractStep{{initIDs: []int{83, 85}, srcIDs: []int{14}}}, func(cfg Config) Config {
			cfg.MaxCoord, cfg.MinPts = 1, 11
			return cfg
		}),
		verticalCase(gens(7, 42, 3, 4), rowSteps),
		arbitraryCase(gens(7, 42, 3, 4), rowSteps),
	}
}

func TestGoldenTranscriptDigestsW4(t *testing.T) {
	for _, rc := range wideCases() {
		for _, eng := range []compare.EngineKind{compare.EngineYMPP, compare.EngineMasked} {
			for _, sc := range goldenScripts {
				row := fmt.Sprintf("%s/%s/%s", rc.name, eng, sc.op)
				rc, sc := rc, sc
				t.Run(row, func(t *testing.T) {
					checkGolden(t, goldenDigestsW4, row, runGolden(t, rc, wideCfg(eng), sc.run))
				})
			}
		}
	}
}
