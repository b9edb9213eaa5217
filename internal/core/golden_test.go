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

// digest is the first 16 hex digits of the armed frames' hash.
func (d *digestConn) digest() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return hex.EncodeToString(d.sum.Sum(nil))[:16]
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
	"vertical/ympp/Run":                "4322f2a0dcef3c96 6a4f8c1bce0b7f16",
	"vertical/ympp/Append":             "db535f85a9dda97d 6b2a31b1b8925ad4",
	"vertical/ympp/Expire":             "b3e25656462be0d9 6b2a31b1b8925ad4",
	"vertical/ympp/Retract":            "b46249cd21024f75 9d04b66dab88d371",
	"vertical/ympp/sequential-Run":     "5f58f9738916dc05 91b1408d31369672",
	"vertical/masked/Run":              "602cae2999bdc14d f6bf076313558184",
	"vertical/masked/Append":           "ebedf8a4750f03b2 82ae0b80c7739724",
	"vertical/masked/Expire":           "41c483e0f536274f 82ae0b80c7739724",
	"vertical/masked/Retract":          "55836b65e4c79a49 a5812f571ecb76f1",
	"vertical/masked/sequential-Run":   "47ba2bb677f078d5 343e363d53f0098b",
	"arbitrary/ympp/Run":               "d12ef6a21e889e6e 0faecbd8e44bdfdf",
	"arbitrary/ympp/Append":            "757434747517fc77 3ad8ad8dc7852571",
	"arbitrary/ympp/Expire":            "3d09e7fe2e0cd724 3ad8ad8dc7852571",
	"arbitrary/ympp/Retract":           "5a8d1ee900c943fb 7cea069818b2f447",
	"arbitrary/ympp/sequential-Run":    "87e488e1d10298f9 5597e9bf23dd0274",
	"arbitrary/masked/Run":             "d9f6fafad1f456af 10f11f8baa146ce4",
	"arbitrary/masked/Append":          "761d7e4802d303d2 f439cc62fab37220",
	"arbitrary/masked/Expire":          "022a46bf9b1cea6a f439cc62fab37220",
	"arbitrary/masked/Retract":         "aa8f7ca65852b6a1 0a8df56836e16b79",
	"arbitrary/masked/sequential-Run":  "f907637964809e64 ed49630c06f4870b",
}

// runGolden runs one scripted row and returns "alice bob" digests.
func runGolden(t *testing.T, rc retractCase, cfg Config, script goldenScript) string {
	t.Helper()
	if rc.tweak != nil {
		cfg = rc.tweak(cfg)
	}
	ca, cb := transport.Pipe()
	da, db := newDigestConn(ca), newDigestConn(cb)
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
					checkGolden(t, row, runGolden(t, rc, testCfg(eng), sc.run))
				})
			}
			row := fmt.Sprintf("%s/%s/sequential-Run", rc.name, eng)
			rc := rc
			t.Run(row, func(t *testing.T) {
				cfg := testCfg(eng)
				cfg.Batching = BatchModeSequential
				cfg.Packing = PackOff
				checkGolden(t, row, runGolden(t, rc, cfg, goldenScripts[0].run))
			})
		}
	}
}

func checkGolden(t *testing.T, row, got string) {
	t.Helper()
	if want := goldenDigests[row]; got != want {
		t.Errorf("transcript moved:\n\t%q: %q, // was %q", row, got, want)
	}
}
