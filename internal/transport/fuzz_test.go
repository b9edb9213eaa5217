package transport

import (
	"bytes"
	"math/big"
	"testing"
)

// FuzzReaderNeverPanics feeds arbitrary bytes to every Reader accessor;
// malformed wire data must produce errors, never panics. Run with
// `go test -fuzz FuzzReaderNeverPanics ./internal/transport` to explore;
// the seed corpus runs on every `go test`.
func FuzzReaderNeverPanics(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(NewBuilder().PutUint(7).PutInt(-3).PutBool(true).Bytes())
	f.Add(NewBuilder().PutBig(big.NewInt(-12345)).Bytes())
	f.Add(NewBuilder().PutBigs([]*big.Int{big.NewInt(1), big.NewInt(-2)}).Bytes())
	f.Add(NewBuilder().PutBytes(bytes.Repeat([]byte{9}, 100)).Bytes())
	f.Add(NewBuilder().PutString("hello").PutInts([]int64{1, -1}).Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(data)
		// Exercise every accessor in a fixed order; the sticky error
		// design must make all of this safe on any input.
		_ = r.Uint()
		_ = r.Int()
		_ = r.Bool()
		_ = r.Bytes()
		_ = r.Big()
		_ = r.Bigs()
		_ = r.Ints(r.Remaining())
		_ = r.String()
		_ = r.Remaining()
		_ = r.Err()
	})
}

// FuzzBatchFrameCodec exercises the batch-comparison frame shapes: a
// predicate byte plus a count-prefixed ciphertext list on the way out and
// a count-prefixed bool list on the way back. Round trips must be exact,
// and decoding arbitrary bytes through the same accessor sequence must
// never panic.
func FuzzBatchFrameCodec(f *testing.F) {
	f.Add(uint64(1), []byte{}, []byte{})
	f.Add(uint64(2), []byte{0x01, 0xfe, 0x00}, []byte{1, 0, 1})
	f.Add(uint64(255), bytes.Repeat([]byte{0xab}, 64), bytes.Repeat([]byte{1}, 16))

	f.Fuzz(func(t *testing.T, pred uint64, magBytes []byte, boolBytes []byte) {
		// Build a batch frame from the fuzzed material: each magnitude byte
		// becomes one ciphertext-sized big.Int, each bool byte one result bit.
		bigs := make([]*big.Int, 0, len(magBytes))
		for i, b := range magBytes {
			x := new(big.Int).SetBytes(magBytes[:i])
			x.Add(x, big.NewInt(int64(b)))
			if b%2 == 1 {
				x.Neg(x)
			}
			bigs = append(bigs, x)
		}
		bools := make([]bool, len(boolBytes))
		for i, b := range boolBytes {
			bools[i] = b&1 == 1
		}

		frame := NewBuilder().PutUint(pred).PutBigs(bigs).PutBools(bools).Bytes()
		r := NewReader(frame)
		if got := r.Uint(); got != pred {
			t.Fatalf("pred: %d != %d", got, pred)
		}
		gotBigs := r.Bigs()
		if len(gotBigs) != len(bigs) {
			t.Fatalf("bigs: %d != %d", len(gotBigs), len(bigs))
		}
		for i := range bigs {
			if gotBigs[i].Cmp(bigs[i]) != 0 {
				t.Fatalf("bigs[%d]: %v != %v", i, gotBigs[i], bigs[i])
			}
		}
		gotBools := r.Bools()
		if len(gotBools) != len(bools) {
			t.Fatalf("bools: %d != %d", len(gotBools), len(bools))
		}
		for i := range bools {
			if gotBools[i] != bools[i] {
				t.Fatalf("bools[%d]: %v != %v", i, gotBools[i], bools[i])
			}
		}
		if r.Err() != nil || r.Remaining() != 0 {
			t.Fatalf("round trip: err=%v remaining=%d", r.Err(), r.Remaining())
		}

		// The same accessor sequence over the raw fuzz material must be
		// error-sticky, never panicking.
		rr := NewReader(append(append([]byte{}, magBytes...), boolBytes...))
		_ = rr.Uint()
		_ = rr.Bigs()
		_ = rr.Bools()
		_ = rr.Err()
	})
}

// FuzzWireRoundTrip checks that any (uint, int, bytes, big) tuple encoded
// by Builder decodes to the same values.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add(uint64(0), int64(0), []byte{}, []byte{})
	f.Add(uint64(1<<63), int64(-1<<62), []byte{1, 2, 3}, []byte{0xff})

	f.Fuzz(func(t *testing.T, u uint64, i int64, bs []byte, mag []byte) {
		x := new(big.Int).SetBytes(mag)
		if i%2 == 0 {
			x.Neg(x)
		}
		msg := NewBuilder().PutUint(u).PutInt(i).PutBytes(bs).PutBig(x).Bytes()
		r := NewReader(msg)
		if got := r.Uint(); got != u {
			t.Fatalf("Uint: %d != %d", got, u)
		}
		if got := r.Int(); got != i {
			t.Fatalf("Int: %d != %d", got, i)
		}
		if got := r.Bytes(); !bytes.Equal(got, bs) {
			t.Fatalf("Bytes mismatch")
		}
		if got := r.Big(); got.Cmp(x) != 0 {
			t.Fatalf("Big: %v != %v", got, x)
		}
		if r.Err() != nil {
			t.Fatalf("round trip error: %v", r.Err())
		}
	})
}

// FuzzMuxFrame exercises the channel-tagged frame codec of the
// multiplexed transport: every (channel, payload) pair must round-trip
// exactly, and decoding arbitrary bytes must yield either a valid
// in-range channel with an aliasing payload or an error — never a panic.
func FuzzMuxFrame(f *testing.F) {
	f.Add(uint32(0), []byte{})
	f.Add(uint32(1), []byte("payload"))
	f.Add(uint32(MaxMuxChannels-1), bytes.Repeat([]byte{0xfe}, 128))
	f.Add(uint32(MaxMuxChannels), []byte{1})

	f.Fuzz(func(t *testing.T, ch uint32, payload []byte) {
		if ch < MaxMuxChannels {
			frame := AppendMuxFrame(nil, ch, payload)
			gotCh, gotPayload, err := DecodeMuxFrame(frame)
			if err != nil {
				t.Fatalf("round trip (%d, %d bytes): %v", ch, len(payload), err)
			}
			if gotCh != ch || !bytes.Equal(gotPayload, payload) {
				t.Fatalf("round trip (%d, %v) became (%d, %v)", ch, payload, gotCh, gotPayload)
			}
		}

		// Arbitrary bytes through the decoder: in-range channel or error.
		gotCh, gotPayload, err := DecodeMuxFrame(payload)
		if err == nil {
			if gotCh >= MaxMuxChannels {
				t.Fatalf("decoder accepted channel %d ≥ %d", gotCh, MaxMuxChannels)
			}
			if len(gotPayload) > len(payload) {
				t.Fatalf("payload grew: %d > %d", len(gotPayload), len(payload))
			}
		}
	})
}
