package mpc

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"testing"

	"repro/internal/encoding"
	"repro/internal/paillier"
	"repro/internal/transport"
)

// Per-layer microbenchmarks, benchstat-comparable:
//
//	go test ./internal/mpc -run NONE -bench SenderDotRowsRetain -benchtime 100x -count 10 -cpu 1
//
// CI runs them with -benchtime 1x so they cannot rot.

var benchSink []*big.Int

// BenchmarkSenderDotRowsRetain is the §5 responder's share phase
// alone — the receiver's uplink is encrypted once, outside the timer —
// at the serve workload's shape: 9 candidate points of dimension m = 2
// (4-coordinate extended vectors) on a 64-grid with 20-bit share masks.
func BenchmarkSenderDotRowsRetain(b *testing.B) {
	for _, bits := range []int{512, 1024} {
		b.Run(fmt.Sprintf("paillier%d", bits), func(b *testing.B) {
			const points, maxCoord, shareV = 9, 63, 1 << 20
			k, err := paillier.GenerateKey(rand.Reader, bits)
			if err != nil {
				b.Fatal(err)
			}
			pk, err := encoding.NewSumPacker(k.PlaintextBound(), 2*maxCoord*maxCoord+shareV)
			if err != nil {
				b.Fatal(err)
			}
			bs := make([][]int64, points)
			vs := make([]*big.Int, points)
			for i := range bs {
				x, y := int64(7*i%maxCoord), int64(11*i%maxCoord)
				bs[i] = []int64{1, x, y, x*x + y*y}
				if vs[i], err = RandomMask(rand.Reader, big.NewInt(shareV)); err != nil {
					b.Fatal(err)
				}
			}
			cts, err := k.EncryptInt64Batch(nil, rand.Reader, []int64{31*31 + 17*17, -2 * 31, -2 * 17, 1})
			if err != nil {
				b.Fatal(err)
			}
			uplink := transport.NewBuilder().PutUint(points).PutBigs(cts)
			// The pipe buffers: queue the uplink, run the sender, drop its reply.
			recv, send := transport.Pipe()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := transport.SendMsg(recv, uplink); err != nil {
					b.Fatal(err)
				}
				ds, err := SenderDotRows(send, &k.PublicKey, bs, []int{points}, vs, pk, true, rand.Reader, nil)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := recv.Recv(); err != nil {
					b.Fatal(err)
				}
				benchSink = ds
			}
		})
	}
}
