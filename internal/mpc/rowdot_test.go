package mpc

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	mrand "math/rand"
	"testing"

	"repro/internal/encoding"
	"repro/internal/paillier"
	"repro/internal/transport"
)

// rowDotPacker sizes slots the way core does for a settle chunk: one exact
// dot product of two m-vectors over [0, maxCoord] a slot.
func rowDotPacker(t testing.TB, k *paillier.PrivateKey, m int, maxCoord int64) *encoding.Packer {
	t.Helper()
	pk, err := encoding.NewSumPacker(k.PlaintextBound(), int64(m)*maxCoord*maxCoord)
	if err != nil {
		t.Fatal(err)
	}
	return pk
}

// runRowDot runs one row-dot exchange over a pipe and returns what the
// receiver decoded.
func runRowDot(t *testing.T, k *paillier.PrivateKey, pk *encoding.Packer, xs []int64, ys [][]int64, rowLens []int, cols int) []*big.Int {
	t.Helper()
	var dots []*big.Int
	if err := transport.Run2(
		func(c transport.Conn) (err error) {
			dots, err = ReceiverRowDot(c, k, xs, rowLens, cols, pk, rand.Reader, nil)
			return err
		},
		func(c transport.Conn) error {
			return SenderRowDot(c, &k.PublicKey, ys, rowLens, cols, pk, rand.Reader, nil)
		},
	); err != nil {
		t.Fatal(err)
	}
	return dots
}

// TestRowDotMatchesPlaintext: every instance decodes to the plaintext dot
// product of its coordinates with its own row's scalars — over empty rows,
// one-instance rows, rows of exactly S and S + 1, a row of several
// replies, zero and negative scalars, and |dot| at the slot bound — on the
// 256-bit test key, where S is small, on a 512-bit one, and at S = 1 (the
// "off" packing: one biased dot product a ciphertext).
func TestRowDotMatchesPlaintext(t *testing.T) {
	const cols, maxCoord = 3, 63
	wide, err := paillier.GenerateKey(rand.Reader, 512)
	if err != nil {
		t.Fatal(err)
	}
	rng := mrand.New(mrand.NewSource(24))
	small := rowDotPacker(t, testKey(t), cols, maxCoord)
	for _, tc := range []struct {
		k  *paillier.PrivateKey
		pk *encoding.Packer
	}{
		{testKey(t), small},
		{wide, rowDotPacker(t, wide, cols, maxCoord)},
		{testKey(t), small.OneSlot()},
	} {
		k, pk := tc.k, tc.pk
		s := pk.Slots()
		if k == testKey(t) && s > 16 {
			t.Fatalf("the test key packs %d slots: not the small-S case", s)
		}
		t.Run(fmt.Sprintf("S=%d/|dot|=bound", s), func(t *testing.T) {
			// Every coordinate at maxCoord against scalars of ±maxCoord:
			// dot products of exactly +bound and −bound, the slot's extremes.
			ys := [][]int64{{maxCoord, maxCoord, maxCoord}, {-maxCoord, -maxCoord, -maxCoord}}
			xs := make([]int64, (s+1)*cols)
			for i := range xs {
				xs[i] = maxCoord
			}
			bound := int64(cols * maxCoord * maxCoord)
			for i, dot := range runRowDot(t, k, pk, xs, ys, []int{s, 1}, cols) {
				want := bound
				if i == s {
					want = -bound
				}
				if !dot.IsInt64() || dot.Int64() != want {
					t.Fatalf("instance %d: decoded %v, plaintext %d", i, dot, want)
				}
			}
		})
		shapes := [][]int{
			{1},
			{s},
			{s + 1},
			{0, 1, 0, s, s + 1, 0},
			{3*s + 2, 2},
			{2, 3, 1, s - 1, 1, 2*s + 1, 4},
		}
		for i := 0; i < 6; i++ {
			shape := make([]int, 1+rng.Intn(7))
			for r := range shape {
				shape[r] = rng.Intn(2*s + 2)
			}
			shape[rng.Intn(len(shape))]++ // at least one instance
			shapes = append(shapes, shape)
		}
		for _, rowLens := range shapes {
			t.Run(fmt.Sprintf("S=%d/%v", s, rowLens), func(t *testing.T) {
				total := 0
				ys := make([][]int64, len(rowLens))
				for r, n := range rowLens {
					total += n
					ys[r] = make([]int64, cols)
					for c := range ys[r] {
						// Negative scalars stay inside the slot: |Σ x·y| ≤ m·maxCoord².
						ys[r][c] = int64(rng.Intn(2*maxCoord+1)) - maxCoord
					}
				}
				ys[0][0], ys[len(ys)-1] = 0, make([]int64, cols) // a zero scalar, an all-zero row
				xs := make([]int64, total*cols)
				for i := range xs {
					xs[i] = int64(rng.Intn(maxCoord + 1))
				}
				dots := runRowDot(t, k, pk, xs, ys, rowLens, cols)
				if len(dots) != total {
					t.Fatalf("decoded %d dot products for %d instances", len(dots), total)
				}
				i := 0
				for r, n := range rowLens {
					for ; n > 0; n, i = n-1, i+1 {
						var want int64
						for c := 0; c < cols; c++ {
							want += xs[i*cols+c] * ys[r][c]
						}
						if !dots[i].IsInt64() || dots[i].Int64() != want {
							t.Fatalf("row %d instance %d: decoded %v, plaintext %d", r, i, dots[i], want)
						}
					}
				}
			})
		}
	}
}

// TestLayoutRows checks the layout function alone: every instance of every
// row sits in exactly one slot, a group never crosses a reply, a reply's
// used slots are claimed exactly once from slot 0 up, groups keep row
// order, and the function is deterministic — which is all "both ends
// compute it" needs.
func TestLayoutRows(t *testing.T) {
	rng := mrand.New(mrand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		slots := 1 + rng.Intn(9)
		rowLens := make([]int, rng.Intn(9))
		for r := range rowLens {
			rowLens[r] = rng.Intn(3*slots + 2)
		}
		lay := LayoutRows(rowLens, slots)
		if again := LayoutRows(rowLens, slots); fmt.Sprint(again) != fmt.Sprint(lay) {
			t.Fatalf("%v at S=%d: two calls disagree: %v vs %v", rowLens, slots, lay, again)
		}
		seen := make([][]bool, len(rowLens)) // per row, per instance
		for r, n := range rowLens {
			seen[r] = make([]bool, n)
		}
		claimed := make([][]bool, len(lay.Replies)) // per reply, per slot
		for i, used := range lay.Replies {
			if used < 1 || used > slots {
				t.Fatalf("%v at S=%d: reply %d uses %d slots", rowLens, slots, i, used)
			}
			claimed[i] = make([]bool, used)
		}
		prevRow, prevReply := 0, 0
		for _, g := range lay.Groups {
			if g.Len < 1 || g.Len > slots || g.Row < prevRow || g.Reply < prevReply {
				t.Fatalf("%v at S=%d: group %+v out of order or out of size", rowLens, slots, g)
			}
			prevRow, prevReply = g.Row, g.Reply
			if g.Reply >= len(lay.Replies) || g.Slot+g.Len > lay.Replies[g.Reply] {
				t.Fatalf("%v at S=%d: group %+v crosses the end of its reply (%v)", rowLens, slots, g, lay.Replies)
			}
			for s := 0; s < g.Len; s++ {
				if seen[g.Row][g.Start+s] || claimed[g.Reply][g.Slot+s] {
					t.Fatalf("%v at S=%d: group %+v reuses an instance or a slot", rowLens, slots, g)
				}
				seen[g.Row][g.Start+s], claimed[g.Reply][g.Slot+s] = true, true
			}
		}
		for r := range seen {
			for i, ok := range seen[r] {
				if !ok {
					t.Fatalf("%v at S=%d: row %d instance %d has no slot", rowLens, slots, r, i)
				}
			}
		}
		for i := range claimed {
			for s, ok := range claimed[i] {
				if !ok {
					t.Fatalf("%v at S=%d: reply %d counts slot %d as used, no group holds it", rowLens, slots, i, s)
				}
			}
		}
	}
}

// TestRowDotWireCounts pins the frame sizes the layout promises: the uplink
// is cols ciphertexts a group, the reply one ciphertext per layout reply —
// short rows share replies, which is the point of the form — and at S = 1
// both are one a value: cols ciphertexts up and one down per instance.
func TestRowDotWireCounts(t *testing.T) {
	const cols = 2
	k := testKey(t)
	packed := rowDotPacker(t, k, cols, 63)
	rowLens := []int{1, 2, 1, packed.Slots() + 1, 1}
	total := 0
	for _, n := range rowLens {
		total += n
	}
	for _, pk := range []*encoding.Packer{packed, packed.OneSlot()} {
		s := pk.Slots()
		lay := LayoutRows(rowLens, s)
		want := 3 // 1+2+1 share one; s, then 1+1
		if s == 1 {
			want = total
		}
		if len(lay.Replies) != want || (s == 1 && len(lay.Groups) != total) {
			t.Fatalf("layout of %v at S=%d takes %d groups and %d replies, want %d replies", rowLens, s, len(lay.Groups), len(lay.Replies), want)
		}
		ys := make([][]int64, len(rowLens))
		for r := range ys {
			ys[r] = []int64{int64(r), 1}
		}
		up, down := -1, -1
		if err := transport.Run2(
			func(c transport.Conn) error {
				_, err := ReceiverRowDot(c, k, make([]int64, total*cols), rowLens, cols, pk, rand.Reader, nil)
				return err
			},
			func(c transport.Conn) error {
				tap := &countTap{Conn: c}
				err := SenderRowDot(tap, &k.PublicKey, ys, rowLens, cols, pk, rand.Reader, nil)
				up, down = tap.recv, tap.sent
				return err
			},
		); err != nil {
			t.Fatal(err)
		}
		if up != len(lay.Groups)*cols || down != len(lay.Replies) {
			t.Errorf("S=%d: wire carried %d uplink and %d reply ciphertexts, layout says %d and %d", s, up, down, len(lay.Groups)*cols, len(lay.Replies))
		}
	}
}

// countTap counts the ciphertexts of the one frame it receives and the one
// it sends.
type countTap struct {
	transport.Conn
	recv, sent int
}

func (c *countTap) Recv() ([]byte, error) {
	b, err := c.Conn.Recv()
	if err == nil {
		c.recv = len(transport.NewReader(b).Bigs())
	}
	return b, err
}

func (c *countTap) Send(b []byte) error {
	c.sent = len(transport.NewReader(b).Bigs())
	return c.Conn.Send(b)
}

// TestRowDotRefusesMalformedFrames: scripted peers. The receiver refuses a
// reply ciphertext outside Z_{n²} and a reply frame of the wrong length;
// the sender refuses an uplink of the wrong length and — whatever its
// scalars, an all-zero row included — an uplink ciphertext out of range.
func TestRowDotRefusesMalformedFrames(t *testing.T) {
	const cols = 2
	k := testKey(t)
	pub := &k.PublicKey
	pk := rowDotPacker(t, k, cols, 63)
	rowLens := []int{2, 1}
	xs := []int64{1, 2, 3, 4, 5, 6}
	good, err := pub.Encrypt(rand.Reader, big.NewInt(0))
	if err != nil {
		t.Fatal(err)
	}
	for name, reply := range map[string][]*big.Int{
		"out of range": {new(big.Int).Set(pub.NSquared)},
		"too many":     {good, good},
		"none":         {},
	} {
		want := ErrLengthMismatch
		if name == "out of range" {
			want = paillier.ErrCiphertextRange
		}
		err := transport.Run2(
			func(c transport.Conn) error {
				_, err := ReceiverRowDot(c, k, xs, rowLens, cols, pk, rand.Reader, nil)
				return err
			},
			func(c transport.Conn) error {
				if _, err := transport.RecvMsg(c); err != nil {
					return err
				}
				return transport.SendMsg(c, transport.NewBuilder().PutBigs(reply))
			},
		)
		if !errors.Is(err, want) {
			t.Errorf("receiver, reply %s: error = %v, want %v", name, err, want)
		}
	}

	ys := [][]int64{{3, -4}, {0, 0}}
	uplink := func(n int) []*big.Int {
		cts := make([]*big.Int, n)
		for i := range cts {
			cts[i] = good
		}
		return cts
	}
	bad := uplink(2 * cols)
	bad[2*cols-1] = new(big.Int).Set(pub.NSquared) // under the all-zero row's scalars
	for name, tc := range map[string]struct {
		cts  []*big.Int
		want error
	}{
		"short":        {uplink(2*cols - 1), ErrLengthMismatch},
		"long":         {uplink(2*cols + 1), ErrLengthMismatch},
		"out of range": {bad, paillier.ErrCiphertextRange},
	} {
		recv, send := transport.Pipe()
		if err := transport.SendMsg(recv, transport.NewBuilder().PutBigs(tc.cts)); err != nil {
			t.Fatal(err)
		}
		if err := SenderRowDot(send, pub, ys, rowLens, cols, pk, rand.Reader, nil); !errors.Is(err, tc.want) {
			t.Errorf("sender, uplink %s: error = %v, want %v", name, err, tc.want)
		}
	}
}
