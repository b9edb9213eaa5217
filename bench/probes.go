package main

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"runtime"
	"sync"
	"time"

	"repro/internal/compare"
	"repro/internal/core"
	"repro/internal/dbscan"
	"repro/internal/dispatch"
	"repro/internal/encoding"
	"repro/internal/fixedpoint"
	"repro/internal/mpc"
	"repro/internal/paillier"
	"repro/internal/spatial"
	"repro/internal/transport"
	"repro/internal/yao"
)

// Probes are timed direct calls into one layer's public functions at the
// workload's key sizes and shapes: what the layer costs on its own,
// beside what the spans say it cost inside a run. Each reports the
// median of its repetitions.

// probeReps is the repetition count of a cheap probe; expensive ones
// divide it.
const probeReps = 16

// ymppBound is the comparison domain of the ympp workload (squared
// distances on a 16-grid in two dimensions); the yao probe always runs
// there, because YMPP's cost is linear in the domain and the 64-grid's
// domain would take minutes.
var ymppBound = fixedpoint.MaxDistSqBound(15, 2)

// timed returns the median wall time of reps calls of fn, in seconds.
func timed(reps int, fn func() error) (float64, error) {
	xs := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		xs = append(xs, secs(time.Since(start)))
	}
	return median(xs), nil
}

// probe runs every layer's probes for one workload and files the values
// in r under their per-layer metric names.
func probe(r *result, in instance) error {
	cfg := in.config()
	key, err := probePaillier(r, cfg)
	if err != nil {
		return fmt.Errorf("paillier probe: %w", err)
	}
	steps := []struct {
		layer string
		run   func() error
	}{
		{"yao", func() error { return probeYao(r, cfg) }},
		{"encoding", func() error { return probeEncoding(r, cfg, key) }},
		{"compare", func() error { return probeCompare(r, cfg, key) }},
		{"mpc", func() error { return probeMPC(r, cfg, key) }},
		{"spatial", func() error { return probeSpatial(r, cfg, in) }},
		{"transport", func() error { return probeTransport(r, key) }},
		{"dispatch", func() error { return probeDispatch(r) }},
		{"dbscan", func() error { return probeDBSCAN(r, in) }},
	}
	for _, s := range steps {
		if err := s.run(); err != nil {
			return fmt.Errorf("%s probe: %w", s.layer, err)
		}
	}
	return nil
}

func probePaillier(r *result, cfg core.Config) (*paillier.PrivateKey, error) {
	var key *paillier.PrivateKey
	t, err := timed(probeReps, func() (err error) {
		key, err = paillier.GenerateKey(rand.Reader, cfg.PaillierBits)
		return err
	})
	if err != nil {
		return nil, err
	}
	r.set("paillier.keygen_ms", "ms", t*1e3, probeReps)
	pk := &key.PublicKey
	m := big.NewInt(123456789)
	var ct *big.Int
	if t, err = timed(2*probeReps, func() (err error) { ct, err = pk.Encrypt(rand.Reader, m); return err }); err != nil {
		return nil, err
	}
	r.set("paillier.encrypt_us", "us", t*1e6, 2*probeReps)
	if t, err = timed(2*probeReps, func() error { _, err := key.Decrypt(ct); return err }); err != nil {
		return nil, err
	}
	r.set("paillier.decrypt_us", "us", t*1e6, 2*probeReps)
	scalar := new(big.Int).Lsh(big.NewInt(1), uint(cfg.CmpMaskBits))
	if t, err = timed(2*probeReps, func() error { _, err := pk.Mul(ct, scalar); return err }); err != nil {
		return nil, err
	}
	r.set("paillier.mul_us", "us", t*1e6, 2*probeReps)
	if t, err = timed(2*probeReps, func() error { _, err := pk.Randomize(rand.Reader, ct); return err }); err != nil {
		return nil, err
	}
	r.set("paillier.randomize_us", "us", t*1e6, 2*probeReps)

	const batch = 64
	ms := make([]*big.Int, batch)
	for i := range ms {
		ms[i] = big.NewInt(int64(i + 1))
	}
	if t, err = timed(probeReps/4, func() error { _, err := pk.EncryptBatch(nil, rand.Reader, ms); return err }); err != nil {
		return nil, err
	}
	r.set("paillier.encrypt_batch_us", "us", t*1e6/batch, probeReps/4)
	pool := paillier.NewPool(runtime.NumCPU())
	if t, err = timed(probeReps/4, func() error { _, err := pk.EncryptBatch(pool, rand.Reader, ms); return err }); err != nil {
		return nil, err
	}
	r.set("paillier.encrypt_batch_pool_us", "us", t*1e6/batch, probeReps/4)
	if t, err = timed(16*probeReps, func() error {
		return paillier.ParallelFor(pool, batch, func(int) error { return nil })
	}); err != nil {
		return nil, err
	}
	r.set("paillier.pool_dispatch_us", "us", t*1e6, 16*probeReps)
	return key, nil
}

// meteredPair runs the two halves of a sub-protocol over a metered pipe
// and returns the bytes that crossed it.
func meteredPair(alice, bob func(transport.Conn) error) (int64, error) {
	ca, cb := transport.Pipe()
	ma, mb := transport.NewMeter(ca), transport.NewMeter(cb)
	err := transport.RunPair(ma, mb, alice, bob)
	return ma.Stats().Total(), err
}

func probeYao(r *result, cfg core.Config) error {
	var key *yao.RSAKey
	t, err := timed(probeReps, func() (err error) {
		key, err = yao.GenerateRSAKey(rand.Reader, cfg.RSABits)
		return err
	})
	if err != nil {
		return err
	}
	r.set("yao.keygen_ms", "ms", t*1e3, probeReps)
	const batch = 16
	as, bs := make([]int64, batch), make([]int64, batch)
	for i := range as {
		as[i], bs[i] = int64(i)*ymppBound/batch, ymppBound/2
	}
	var bytes int64
	t, err = timed(3, func() (err error) {
		bytes, err = meteredPair(
			func(c transport.Conn) error {
				_, err := yao.AliceLessEqBatch(c, key, as, ymppBound, rand.Reader, nil)
				return err
			},
			func(c transport.Conn) error {
				_, err := yao.BobLessEqBatch(c, &key.RSAPublicKey, bs, ymppBound, rand.Reader)
				return err
			})
		return err
	})
	if err != nil {
		return err
	}
	r.set("yao.cmp_ms", "ms", t*1e3/batch, 3)
	r.set("yao.cmp_bytes", "B", float64(bytes)/batch, 0)
	return nil
}

// packers builds the session's three slot layouts for key: masked
// products, comparison replies, and the packed comparison uplink.
func packers(cfg core.Config, key *paillier.PrivateKey) (product, cmp, uplink *encoding.Packer, bound int64, err error) {
	bound = fixedpoint.MaxDistSqBound(cfg.MaxCoord, 2)
	plain := key.PlaintextBound()
	maskBound := big.NewInt(cfg.MaxCoord * cfg.MaxCoord)
	maskBound.Lsh(maskBound, uint(cfg.CmpMaskBits))
	if product, err = encoding.NewProductPacker(plain, cfg.MaxCoord*cfg.MaxCoord, maskBound, 2); err != nil {
		return
	}
	if cmp, err = encoding.NewComparePacker(plain, bound, cfg.CmpMaskBits); err != nil {
		return
	}
	uplink, err = encoding.NewUplinkComparePacker(plain, bound, cfg.CmpMaskBits)
	return
}

func probeEncoding(r *result, cfg core.Config, key *paillier.PrivateKey) error {
	product, cmp, _, _, err := packers(cfg, key)
	if err != nil {
		return err
	}
	r.set("encoding.slots_product", "count", float64(product.Slots()), 0)
	r.set("encoding.slots_compare", "count", float64(cmp.Slots()), 0)
	vals := make([]int64, product.Slots())
	for i := range vals {
		vals[i] = int64(i) % (cfg.MaxCoord + 1)
	}
	var packed *big.Int
	t, err := timed(8*probeReps, func() (err error) { packed, err = product.PackInt64(vals); return err })
	if err != nil {
		return err
	}
	r.set("encoding.pack_us", "us", t*1e6, 8*probeReps)
	if t, err = timed(8*probeReps, func() error { _, err := product.UnpackInt64(packed, len(vals)); return err }); err != nil {
		return err
	}
	r.set("encoding.unpack_us", "us", t*1e6, 8*probeReps)
	return nil
}

func probeCompare(r *result, cfg core.Config, key *paillier.PrivateKey) error {
	_, cmp, uplink, bound, err := packers(cfg, key)
	if err != nil {
		return err
	}
	alice := &compare.MaskedAlice{Key: key, Max: bound, Random: rand.Reader, Packer: cmp, UplinkPacker: uplink}
	bob := &compare.MaskedBob{Pub: &key.PublicKey, Max: bound, MaskBits: cfg.CmpMaskBits, Random: rand.Reader, Packer: cmp, UplinkPacker: uplink}
	const batch = 64
	as, bs := make([]int64, batch), make([]int64, batch)
	for i := range as {
		as[i], bs[i] = int64(i)*bound/batch, bound/2
	}
	var bytes int64
	t, err := timed(probeReps/2, func() (err error) {
		bytes, err = meteredPair(
			func(c transport.Conn) error { _, err := alice.BatchLessEq(c, as); return err },
			func(c transport.Conn) error { _, err := bob.BatchLessEq(c, bs); return err })
		return err
	})
	if err != nil {
		return err
	}
	r.set("compare.masked_cmp_us", "us", t*1e6/batch, probeReps/2)
	r.set("compare.masked_cmp_bytes", "B", float64(bytes)/batch, 0)
	return nil
}

func probeMPC(r *result, cfg core.Config, key *paillier.PrivateKey) error {
	product, _, _, _, err := packers(cfg, key)
	if err != nil {
		return err
	}
	// One HDP region query's shape: 32 candidate rows × 2 coordinates.
	const rows, cols = 32, 2
	xs := make([]int64, rows*cols)
	for i := range xs {
		xs[i] = int64(i) % (cfg.MaxCoord + 1)
	}
	ys := []int64{cfg.MaxCoord, cfg.MaxCoord / 2}
	vs := make([]*big.Int, rows*cols)
	for i := range vs {
		vs[i] = big.NewInt(int64(i))
	}
	var bytes int64
	t, err := timed(probeReps/2, func() (err error) {
		bytes, err = meteredPair(
			func(c transport.Conn) error {
				_, err := mpc.ReceiverGridMultiply(c, key, xs, rows, cols, product, rand.Reader, nil)
				return err
			},
			func(c transport.Conn) error {
				return mpc.SenderGridMultiply(c, &key.PublicKey, ys, vs, rows, cols, product, rand.Reader, nil)
			})
		return err
	})
	if err != nil {
		return err
	}
	r.set("mpc.product_us", "us", t*1e6/(rows*cols), probeReps/2)
	r.set("mpc.product_bytes", "B", float64(bytes)/(rows*cols), 0)
	return nil
}

func probeSpatial(r *result, cfg core.Config, in instance) error {
	points, epsSq, _, err := in.plain()
	if err != nil {
		return err
	}
	w := spatial.CellWidth(epsSq)
	var dir spatial.Directory
	t, err := timed(4*probeReps, func() error {
		g, err := spatial.NewGrid(points, w)
		if err != nil {
			return err
		}
		dir = g.Directory(cfg.PruneQuantum)
		return nil
	})
	if err != nil {
		return err
	}
	r.set("spatial.build_us", "us", t*1e6, 4*probeReps)
	if t, err = timed(4*probeReps, func() error {
		for _, p := range points {
			dir.Candidates(spatial.Bucket(p, w))
		}
		return nil
	}); err != nil {
		return err
	}
	r.set("spatial.candidates_us", "us", t*1e6/float64(len(points)), 4*probeReps)

	// A stack of four generations over the points; append one more, then
	// retract a tenth of what is live.
	gen := (len(points) + 4) / 5
	var appendS, retractS []float64
	for i := 0; i < 4*probeReps; i++ {
		st, err := spatial.NewStack(w, 2, cfg.PruneQuantum)
		if err != nil {
			return err
		}
		for g := 0; g < 4; g++ {
			if _, err := st.Append(points[g*gen : (g+1)*gen]); err != nil {
				return err
			}
		}
		start := time.Now()
		if _, err := st.Append(points[4*gen:]); err != nil {
			return err
		}
		appendS = append(appendS, secs(time.Since(start)))
		ids := spread(st.Total(), max(1, st.Total()/10))
		start = time.Now()
		if err := st.Retract(ids); err != nil {
			return err
		}
		retractS = append(retractS, secs(time.Since(start)))
	}
	r.set("spatial.append_us", "us", median(appendS)*1e6, len(appendS))
	r.set("spatial.retract_us", "us", median(retractS)*1e6, len(retractS))
	return nil
}

// spread picks k ascending ids evenly over [0, total).
func spread(total, k int) []int {
	ids := make([]int, k)
	for i := range ids {
		ids[i] = i * total / k
	}
	return ids
}

// pingPong times round trips of one size-byte frame between a and b: a
// sends, b echoes. It returns the median round trip in seconds.
func pingPong(a, b transport.Conn, size, trips int) (float64, error) {
	msg := make([]byte, size)
	done := make(chan error, 1)
	go func() {
		for i := 0; i < trips; i++ {
			m, err := b.Recv()
			if err == nil {
				err = b.Send(m)
			}
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	t, err := timed(trips, func() error {
		if err := a.Send(msg); err != nil {
			return err
		}
		_, err := a.Recv()
		return err
	})
	if echoErr := <-done; err == nil {
		err = echoErr
	}
	return t, err
}

func probeTransport(r *result, key *paillier.PrivateKey) error {
	const trips = 256
	a, b := transport.Pipe()
	pipeRTT, err := pingPong(a, b, 256, trips)
	a.Close()
	b.Close()
	if err != nil {
		return err
	}
	r.set("transport.pipe_rtt_us", "us", pipeRTT*1e6, trips)

	// Four channels of one mux, all ping-ponging at once.
	a, b = transport.Pipe()
	ma, mb := transport.NewMux(a), transport.NewMux(b)
	const channels = 4
	rtts := make([]float64, channels)
	errs := make([]error, channels)
	var wg sync.WaitGroup
	for ch := 0; ch < channels; ch++ {
		wg.Add(1)
		go func(ch int) {
			defer wg.Done()
			rtts[ch], errs[ch] = pingPong(ma.Channel(uint32(ch)), mb.Channel(uint32(ch)), 256, trips)
		}(ch)
	}
	wg.Wait()
	ma.Close()
	mb.Close()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	r.set("transport.mux_rtt_us", "us", median(rtts)*1e6, channels*trips)

	l, err := transport.NewListener("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer l.Close()
	accepted := make(chan transport.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			c = nil
		}
		accepted <- c
	}()
	client, err := transport.Dial(l.Addr())
	if err != nil {
		return err
	}
	defer client.Close()
	server := <-accepted
	if server == nil {
		return fmt.Errorf("accept failed")
	}
	defer server.Close()
	for _, p := range []struct {
		name string
		size int
	}{{"transport.tcp_rtt_small_us", 256}, {"transport.tcp_rtt_large_us", 64 << 10}} {
		t, err := pingPong(client, server, p.size, trips)
		if err != nil {
			return err
		}
		r.set(p.name, "us", t*1e6, trips)
	}

	// Frame codec: 64 ciphertexts into a frame and out again.
	cts := make([]*big.Int, 64)
	for i := range cts {
		if cts[i], err = key.PublicKey.Encrypt(rand.Reader, big.NewInt(int64(i))); err != nil {
			return err
		}
	}
	t, err := timed(8*probeReps, func() error {
		rd := transport.NewReader(transport.NewBuilder().PutBigs(cts).Bytes())
		rd.Bigs()
		return rd.Err()
	})
	if err != nil {
		return err
	}
	r.set("transport.codec_us", "us", t*1e6, 8*probeReps)
	return nil
}

func probeDispatch(r *result) error {
	// Admission: a hello through the dispatcher to a backend that admits
	// it, all over in-process pipes.
	mgr := core.NewSessionManager(1)
	backend := &dispatch.Backend{Name: "probe", Mgr: mgr}
	var wg sync.WaitGroup
	disp, err := dispatch.New(dispatch.Options{
		Shards:         []string{"probe"},
		HealthInterval: -1,
		Dial: func(string) (transport.Conn, error) {
			near, far := transport.Pipe()
			wg.Add(1)
			go func() {
				defer wg.Done()
				if h, ok, _ := backend.Accept(far); ok {
					// Admitted: hold the session until the client hangs up.
					far.Recv()
					h.End(nil)
					far.Close()
				}
			}()
			return near, nil
		},
	})
	if err != nil {
		return err
	}
	t, err := timed(4*probeReps, func() error {
		client, front := transport.Pipe()
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = disp.HandleConn(front) // returns when the client hangs up
		}()
		_, err := dispatch.Hello(client, "probe-key")
		client.Close()
		return err
	})
	wg.Wait()
	if err != nil {
		return err
	}
	r.set("dispatch.admit_us", "us", t*1e6, 4*probeReps)

	// Splice: a frame's round trip through a relay, less the direct one.
	const trips = 256
	a, b := transport.Pipe()
	direct, err := pingPong(a, b, 256, trips)
	a.Close()
	b.Close()
	if err != nil {
		return err
	}
	a, relayA := transport.Pipe()
	relayB, b := transport.Pipe()
	spliced := make(chan struct{})
	go func() {
		transport.Splice(relayA, relayB)
		close(spliced)
	}()
	through, err := pingPong(a, b, 256, trips)
	a.Close()
	b.Close()
	<-spliced
	if err != nil {
		return err
	}
	r.set("dispatch.splice_us", "us", (through-direct)*1e6, trips)
	return nil
}

func probeDBSCAN(r *result, in instance) error {
	points, epsSq, minPts, err := in.plain()
	if err != nil {
		return err
	}
	t, err := timed(probeReps, func() error {
		_, err := dbscan.ClusterInt(points, epsSq, minPts)
		return err
	})
	if err != nil {
		return err
	}
	r.set("dbscan.plain_ms", "ms", t*1e3, probeReps)
	return nil
}
