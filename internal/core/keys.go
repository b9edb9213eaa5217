package core

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"fmt"
	"io"
	"slices"

	"repro/internal/compare"
	"repro/internal/paillier"
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

// DrawKeySet draws a party's key set from cfg.Random (crypto/rand when it
// is nil): the Paillier pair first, then the RSA pair under YMPP only. It
// is the one place a protocol key is generated; cfg must be normalised.
func DrawKeySet(cfg Config) (KeySet, error) {
	random := cfg.Random
	if random == nil {
		random = rand.Reader
	}
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

// ChannelStreams returns the randomness of each of an edge's w worker
// channels: the one stream every draw a worker makes on its channel
// reads. With random nil each channel reads crypto/rand, which is safe
// for concurrent use. Otherwise channel 0 reads random and channel c ≥ 1
// the stream under the c-th key read from random (DeriveStream): what a
// seeded channel draws depends on its own work alone, never on how the
// workers are scheduled. At w = 1 nothing is read.
func ChannelStreams(random io.Reader, w int) ([]io.Reader, error) {
	if random == nil {
		return slices.Repeat([]io.Reader{rand.Reader}, w), nil
	}
	streams := []io.Reader{random}
	for len(streams) < w {
		next, err := DeriveStream(random)
		if err != nil {
			return nil, err
		}
		streams = append(streams, next)
	}
	return streams, nil
}

// DeriveStream reads a 32-byte key from random and returns the AES-256
// keystream under it in counter mode, from a zero counter: a stream no
// other holder of random's later bytes can predict, and a pure function
// of the key.
func DeriveStream(random io.Reader) (io.Reader, error) {
	key := make([]byte, 32)
	if _, err := io.ReadFull(random, key); err != nil {
		return nil, fmt.Errorf("core: drawing a stream key: %w", err)
	}
	block, _ := aes.NewCipher(key) // a 32-byte key is always a valid AES key
	return keystream{cipher.NewCTR(block, make([]byte, aes.BlockSize))}, nil
}

// keystream reads a cipher's keystream: the encryption of zeros.
type keystream struct{ cipher.Stream }

func (k keystream) Read(p []byte) (int, error) {
	clear(p)
	k.XORKeyStream(p, p)
	return len(p), nil
}
