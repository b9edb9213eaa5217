package core

import (
	"crypto/rand"
	"io"

	"repro/internal/compare"
	"repro/internal/paillier"
	"repro/internal/transport"
	"repro/internal/yao"
)

// KeySet is one party's keys: the Paillier pair every engine needs and,
// under YMPP only, the RSA pair of Algorithm 1. establish is handed one
// instead of drawing it, so a party on several edges — a mesh party —
// serves all of them from one set. In the semi-honest model that
// discloses nothing new: each peer sees only ciphertexts under the set's
// public keys, semantically secure however many edges share them, and
// nothing it cannot compute from a public key (the doc's "Pairs and the
// handshake").
type KeySet struct {
	Paillier *paillier.PrivateKey
	RSA      *yao.RSAKey // nil unless the engine is YMPP
}

// Reader returns the randomness a party draws from: Config.Random, or
// crypto/rand when it is nil, behind a lock when W = Parallel > 1, since
// the workers sample masks and nonces concurrently and the configured
// reader is not assumed goroutine-safe.
func (c Config) Reader() io.Reader {
	random := c.Random
	if random == nil {
		random = rand.Reader
	}
	if c.Parallel > 1 {
		random = transport.LockedReader(random)
	}
	return random
}

// DrawKeySet draws a party's key set from cfg.Reader(): the Paillier pair
// first, then the RSA pair under YMPP only. It is the one place a
// protocol key is generated; cfg must be normalised.
func DrawKeySet(cfg Config) (KeySet, error) {
	random := cfg.Reader()
	var keys KeySet
	var err error
	if keys.Paillier, err = paillier.GenerateKey(random, cfg.PaillierBits); err != nil {
		return KeySet{}, err
	}
	if cfg.Engine == compare.EngineYMPP {
		if keys.RSA, err = yao.GenerateRSAKey(random, cfg.RSABits); err != nil {
			return KeySet{}, err
		}
	}
	return keys, nil
}
