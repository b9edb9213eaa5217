package core

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"strings"
	"testing"

	"repro/internal/compare"
	"repro/internal/paillier"
	"repro/internal/transport"
	"repro/internal/yao"
)

// sentTap records the frames its party sends.
type sentTap struct {
	transport.Conn
	sent [][]byte
}

func (c *sentTap) Send(b []byte) error {
	c.sent = append(c.sent, append([]byte{}, b...))
	return c.Conn.Send(b)
}

// both runs the two parties of an exchange concurrently and leaves their
// connections open.
func both(alice, bob func() error) error {
	errc := make(chan error, 1)
	go func() { errc <- alice() }()
	errB := bob()
	if errA := <-errc; errA != nil {
		return errA
	}
	return errB
}

// TestHandshakeRSAFollowsEngine, agreeing parties: an RSA key pair is
// generated and exchanged exactly under the YMPP engine — under masked
// both RSA fields of the frame each party really sends are empty and
// rsaKey/peerRSA stay nil; under YMPP the peer's half arrives and a
// comparison runs on it.
func TestHandshakeRSAFollowsEngine(t *testing.T) {
	for _, engine := range []compare.EngineKind{compare.EngineMasked, compare.EngineYMPP} {
		cfg, err := testCfg(engine).Normalize()
		if err != nil {
			t.Fatal(err)
		}
		ca, cb := transport.Pipe()
		taps := [2]*sentTap{{Conn: ca}, {Conn: cb}}
		var pairs [2]*Pair
		if err := both(
			func() (err error) { pairs[0], _, err = establish(taps[0], cfg, RoleAlice, "unit", 2, 5); return },
			func() (err error) { pairs[1], _, err = establish(taps[1], cfg, RoleBob, "unit", 2, 5); return },
		); err != nil {
			t.Fatalf("%s: establish: %v", engine, err)
		}
		for i, s := range pairs {
			peer := pairs[1-i]
			r := transport.NewReader(taps[i].sent[0])
			version, _, _ := r.Uint(), r.String(), r.Uint()
			DecodeParams(r)
			r.Uint()
			r.Uint()
			_, rsaN, rsaE := r.Bytes(), r.Bytes(), r.Bytes()
			if r.Err() != nil || version != handshakeVersion {
				t.Fatalf("%s %v: sent frame: version %d, %v", engine, s.role, version, r.Err())
			}
			if engine == compare.EngineMasked {
				if len(rsaN) != 0 || len(rsaE) != 0 || s.rsaKey != nil || s.peerRSA != nil {
					t.Errorf("masked %v: RSA fields of %d and %d bytes, rsaKey %v, peerRSA %v — want none",
						s.role, len(rsaN), len(rsaE), s.rsaKey, s.peerRSA)
				}
				continue
			}
			if s.rsaKey == nil || s.peerRSA == nil || peer.rsaKey == nil || s.peerRSA.N.Cmp(peer.rsaKey.N) != 0 {
				t.Fatalf("ympp %v: rsaKey %v, peerRSA %v — want own pair and the peer's public half", s.role, s.rsaKey, s.peerRSA)
			}
			if n := new(big.Int).SetBytes(rsaN); n.Cmp(s.rsaKey.N) != 0 || len(rsaE) == 0 {
				t.Errorf("ympp %v: sent frame does not carry the party's RSA key", s.role)
			}
		}
		if engine != compare.EngineYMPP {
			continue
		}
		// Used: Alice's 3 ≤ Bob's 5 decided on the exchanged RSA key.
		engA, _, err := pairs[0].engines(10)
		if err != nil {
			t.Fatal(err)
		}
		_, engB, err := pairs[1].engines(10)
		if err != nil {
			t.Fatal(err)
		}
		var le bool
		if err := both(
			func() (err error) { le, err = engA.LessEq(ca, 3); return },
			func() (err error) { _, err = engB.LessEq(cb, 5); return },
		); err != nil || !le || engA.Name() != string(compare.EngineYMPP) {
			t.Errorf("ympp comparison on the exchanged key: %s says 3 ≤ 5 is %v (%v)", engA.Name(), le, err)
		}
	}
}

// TestHandshakeEngineDisagreement: one party on masked, the other on YMPP
// — so one frame carries an RSA key and the other does not — is
// ErrHandshake on both, neither waiting on the other.
func TestHandshakeEngineDisagreement(t *testing.T) {
	ca, cb := transport.Pipe()
	var errs [2]error
	done := make(chan struct{})
	go func() {
		defer close(done)
		both(
			func() error {
				_, _, errs[0] = establish(ca, testCfg(compare.EngineMasked).withDefaults(), RoleAlice, "unit", 2, 5)
				return nil
			},
			func() error {
				_, _, errs[1] = establish(cb, testCfg(compare.EngineYMPP).withDefaults(), RoleBob, "unit", 2, 5)
				return nil
			},
		)
	}()
	select {
	case <-done:
	case <-timeoutAfterProtocol(t):
		t.Fatal("establish hung")
	}
	for i, err := range errs {
		if !errors.Is(err, ErrHandshake) {
			t.Errorf("party %d: error = %v, want ErrHandshake", i, err)
		}
	}
}

// TestHandshakeRejectsPeerKeys: whatever a peer puts into the key fields
// of an otherwise agreeing handshake frame — an RSA key the agreed engine
// does not use, none where it does, or bytes that cannot be a key — costs
// the party one ErrHandshake (wrapping the key package's error where there
// is one) without waiting for anything further. The test plays the peer;
// the pipe buffers, so its frame is queued before establish runs.
func TestHandshakeRejectsPeerKeys(t *testing.T) {
	pai, err := paillier.GenerateKey(rand.Reader, 256)
	if err != nil {
		t.Fatal(err)
	}
	rsa, err := yao.GenerateRSAKey(rand.Reader, 256)
	if err != nil {
		t.Fatal(err)
	}
	paiPub := paillier.MarshalPublicKey(&pai.PublicKey)
	rsaN, rsaE := yao.MarshalRSAPublicKey(&rsa.RSAPublicKey)
	for _, tc := range []struct {
		name               string
		engine             compare.EngineKind
		paiPub, rsaN, rsaE []byte
		cause              error // the key package's error, when one is wrapped
	}{
		{name: "masked, RSA key present", engine: compare.EngineMasked, paiPub: paiPub, rsaN: rsaN, rsaE: rsaE},
		{name: "masked, RSA exponent alone", engine: compare.EngineMasked, paiPub: paiPub, rsaE: rsaE},
		{name: "ympp, RSA key absent", engine: compare.EngineYMPP, paiPub: paiPub},
		{name: "ympp, RSA exponent absent", engine: compare.EngineYMPP, paiPub: paiPub, rsaN: rsaN},
		{name: "ympp, even RSA exponent", engine: compare.EngineYMPP, paiPub: paiPub, rsaN: rsaN, rsaE: []byte{2}, cause: yao.ErrPublicKey},
		{name: "ympp, oversized RSA modulus", engine: compare.EngineYMPP, paiPub: paiPub, rsaN: make([]byte, 1<<20), rsaE: rsaE, cause: yao.ErrPublicKey},
		{name: "masked, even Paillier modulus", engine: compare.EngineMasked, paiPub: new(big.Int).Lsh(pai.N, 1).Bytes(), cause: paillier.ErrPublicKey},
		{name: "ympp, no Paillier key", engine: compare.EngineYMPP, rsaN: rsaN, rsaE: rsaE, cause: paillier.ErrPublicKey},
	} {
		for _, role := range []Role{RoleAlice, RoleBob} {
			cfg, err := testCfg(tc.engine).Normalize()
			if err != nil {
				t.Fatal(err)
			}
			params, err := cfg.Params()
			if err != nil {
				t.Fatal(err)
			}
			conn, peer := transport.Pipe()
			if err := transport.SendMsg(peer, handshakeMsg("unit", role.peer(), params, 2, 5, tc.paiPub, tc.rsaN, tc.rsaE)); err != nil {
				t.Fatal(err)
			}
			errc := make(chan error, 1)
			go func() {
				_, _, err := establish(conn, cfg, role, "unit", 2, 5)
				errc <- err
			}()
			select {
			case err = <-errc:
			case <-timeoutAfterProtocol(t):
				t.Fatalf("%s, %v: establish hung", tc.name, role)
			}
			if !errors.Is(err, ErrHandshake) || (tc.cause != nil && !errors.Is(err, tc.cause)) {
				t.Errorf("%s, %v: error = %v, want ErrHandshake wrapping %v", tc.name, role, err, tc.cause)
			}
		}
	}
}

// TestHandshakeRefusesOldSchedule: a peer still on an older schedule — v10,
// the per-neighbourhood lockstep batches, against a vertical session; v11,
// the per-query horizontal sweeps, and v13, the per-sub-query masked round
// of an "off" or "slots" settle chunk, against a horizontal one; same frame
// layout and parameters every time — is refused with ErrHandshake naming
// both versions, on
// either role, having been sent this party's handshake frame and nothing
// after it: no index, no run op, no chunk that it would pair with a batch
// of another length or take for an op it does not know.
func TestHandshakeRefusesOldSchedule(t *testing.T) {
	cfg, err := testCfg(compare.EngineMasked).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	params, err := cfg.Params()
	if err != nil {
		t.Fatal(err)
	}
	pai, err := paillier.GenerateKey(rand.Reader, 256)
	if err != nil {
		t.Fatal(err)
	}
	for _, old := range []struct {
		version byte
		proto   string
		points  [][]float64
		open    func(transport.Conn, Config, Role, [][]float64) (*Session, error)
	}{
		{10, "vertical", [][]float64{{1}, {2}, {3}, {4}}, NewVerticalSession},
		{11, "horizontal", [][]float64{{1, 1}, {2, 2}, {3, 3}, {4, 4}}, NewHorizontalSession},
		{13, "horizontal", [][]float64{{1, 1}, {2, 2}, {3, 3}, {4, 4}}, NewHorizontalSession},
	} {
		for _, role := range []Role{RoleAlice, RoleBob} {
			frame := handshakeMsg(old.proto, role.peer(), params, len(old.points[0]), len(old.points), paillier.MarshalPublicKey(&pai.PublicKey), nil, nil).Bytes()
			if frame[0] != handshakeVersion {
				t.Fatalf("the frame opens with %d, not the version byte", frame[0])
			}
			frame[0] = old.version
			conn, peer := transport.Pipe()
			if err := peer.Send(frame); err != nil {
				t.Fatal(err)
			}
			tap := &sentTap{Conn: conn}
			errc := make(chan error, 1)
			go func() {
				_, err := old.open(tap, cfg, role, old.points)
				errc <- err
			}()
			select {
			case err = <-errc:
			case <-timeoutAfterProtocol(t):
				t.Fatalf("%v: establishment against a v%d peer hung", role, old.version)
			}
			if want := fmt.Sprintf("version %d vs %d", handshakeVersion, old.version); !errors.Is(err, ErrHandshake) || !strings.Contains(fmt.Sprint(err), want) {
				t.Errorf("%v: a v%d peer got %v, want ErrHandshake on %q", role, old.version, err, want)
			}
			if len(tap.sent) != 1 {
				t.Errorf("%v: %d frames sent to a v%d peer, want the handshake alone", role, len(tap.sent), old.version)
			}
		}
	}
}
