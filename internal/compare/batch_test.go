package compare

import (
	"errors"
	"testing"

	"repro/internal/transport"
)

// runBatchLessEq executes one batched LessEq sub-protocol in-process and
// checks both parties observed the same result vector.
func runBatchLessEq(t testing.TB, ae Alice, be Bob, as, bs []int64) []bool {
	t.Helper()
	var ra, rb []bool
	err := transport.Run2(
		func(c transport.Conn) error {
			var err error
			ra, err = ae.BatchLessEq(c, as)
			return err
		},
		func(c transport.Conn) error {
			var err error
			rb, err = be.BatchLessEq(c, bs)
			return err
		},
	)
	if err != nil {
		t.Fatalf("%s BatchLessEq(%v,%v): %v", ae.Name(), as, bs, err)
	}
	if len(ra) != len(rb) {
		t.Fatalf("result lengths differ: alice %d, bob %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("parties disagree at %d: alice %v, bob %v", i, ra[i], rb[i])
		}
	}
	return ra
}

func runBatchLess(t testing.TB, ae Alice, be Bob, as, bs []int64) []bool {
	t.Helper()
	var ra []bool
	err := transport.Run2(
		func(c transport.Conn) error {
			var err error
			ra, err = ae.BatchLess(c, as)
			return err
		},
		func(c transport.Conn) error {
			_, err := be.BatchLess(c, bs)
			return err
		},
	)
	if err != nil {
		t.Fatalf("%s BatchLess(%v,%v): %v", ae.Name(), as, bs, err)
	}
	return ra
}

func TestBatchLessEqMatchesPlaintext(t *testing.T) {
	const bound = 20
	for _, kind := range []EngineKind{EngineYMPP, EngineMasked} {
		t.Run(string(kind), func(t *testing.T) {
			ae, be := enginePair(t, kind, bound)
			// Mixed true/false results, including values at the bound and
			// at zero.
			as := []int64{0, bound, 7, 7, 7, bound, 0, 13}
			bs := []int64{0, bound, 6, 7, 8, 0, bound, 2}
			got := runBatchLessEq(t, ae, be, as, bs)
			sawTrue, sawFalse := false, false
			for i := range as {
				want := as[i] <= bs[i]
				if got[i] != want {
					t.Errorf("batch[%d]: %d ≤ %d = %v, want %v", i, as[i], bs[i], got[i], want)
				}
				sawTrue = sawTrue || got[i]
				sawFalse = sawFalse || !got[i]
			}
			if !sawTrue || !sawFalse {
				t.Fatalf("test vector must exercise mixed results, got %v", got)
			}
		})
	}
}

func TestBatchLessMatchesPlaintext(t *testing.T) {
	const bound = 20
	for _, kind := range []EngineKind{EngineYMPP, EngineMasked} {
		t.Run(string(kind), func(t *testing.T) {
			ae, be := enginePair(t, kind, bound)
			as := []int64{0, bound, 5, 5, bound - 1}
			bs := []int64{1, bound, 5, 6, bound}
			got := runBatchLess(t, ae, be, as, bs)
			for i := range as {
				if want := as[i] < bs[i]; got[i] != want {
					t.Errorf("batch[%d]: %d < %d = %v, want %v", i, as[i], bs[i], got[i], want)
				}
			}
		})
	}
}

func TestBatchSingleton(t *testing.T) {
	for _, kind := range []EngineKind{EngineYMPP, EngineMasked} {
		t.Run(string(kind), func(t *testing.T) {
			ae, be := enginePair(t, kind, 10)
			got := runBatchLessEq(t, ae, be, []int64{3}, []int64{9})
			if len(got) != 1 || !got[0] {
				t.Fatalf("singleton batch = %v, want [true]", got)
			}
		})
	}
}

// TestBatchEmpty checks the documented contract: an empty batch returns
// empty on both sides without touching the connection.
func TestBatchEmpty(t *testing.T) {
	for _, kind := range []EngineKind{EngineYMPP, EngineMasked} {
		t.Run(string(kind), func(t *testing.T) {
			ae, be := enginePair(t, kind, 10)
			ca, cb := transport.Pipe()
			ma, mb := transport.NewMeter(ca), transport.NewMeter(cb)
			err := transport.RunPair(ma, mb,
				func(transport.Conn) error {
					got, err := ae.BatchLessEq(ma, nil)
					if err != nil || len(got) != 0 {
						t.Errorf("alice empty batch: %v, %v", got, err)
					}
					return err
				},
				func(transport.Conn) error {
					got, err := be.BatchLessEq(mb, nil)
					if err != nil || len(got) != 0 {
						t.Errorf("bob empty batch: %v, %v", got, err)
					}
					return err
				},
			)
			if err != nil {
				t.Fatal(err)
			}
			if n := ma.Stats().Messages() + mb.Stats().Messages(); n != 0 {
				t.Fatalf("empty batch exchanged %d messages, want 0", n)
			}
		})
	}
}

func TestBatchRejectsOutOfRange(t *testing.T) {
	for _, kind := range []EngineKind{EngineYMPP, EngineMasked} {
		t.Run(string(kind), func(t *testing.T) {
			ae, be := enginePair(t, kind, 10)
			ca, cb := transport.Pipe()
			defer ca.Close()
			defer cb.Close()
			if _, err := ae.BatchLessEq(ca, []int64{3, 11}); err == nil {
				t.Error("alice accepted value above bound")
			}
			if _, err := ae.BatchLessEq(ca, []int64{-1}); err == nil {
				t.Error("alice accepted negative value")
			}
			if _, err := be.BatchLessEq(cb, []int64{3, 11}); err == nil {
				t.Error("bob accepted value above bound")
			}
			if _, err := be.BatchLessEq(cb, []int64{-1}); err == nil {
				t.Error("bob accepted negative value")
			}
		})
	}
}

// TestBatchLengthMismatch checks that disagreeing batch lengths surface as
// errors rather than deadlocks or silent truncation.
func TestBatchLengthMismatch(t *testing.T) {
	for _, kind := range []EngineKind{EngineYMPP, EngineMasked} {
		t.Run(string(kind), func(t *testing.T) {
			ae, be := enginePair(t, kind, 10)
			err := transport.Run2(
				func(c transport.Conn) error {
					_, err := ae.BatchLessEq(c, []int64{1, 2, 3})
					return err
				},
				func(c transport.Conn) error {
					_, err := be.BatchLessEq(c, []int64{1, 2})
					return err
				},
			)
			if err == nil {
				t.Fatal("length mismatch not detected")
			}
		})
	}
}

// TestBatchRoundCount verifies the headline property: a batch of any size
// costs exactly three frames end to end.
func TestBatchRoundCount(t *testing.T) {
	for _, kind := range []EngineKind{EngineYMPP, EngineMasked} {
		t.Run(string(kind), func(t *testing.T) {
			ae, be := enginePair(t, kind, 20)
			as := []int64{1, 2, 3, 4, 5, 6, 7, 8}
			bs := []int64{8, 7, 6, 5, 4, 3, 2, 1}
			ca, cb := transport.Pipe()
			ma, mb := transport.NewMeter(ca), transport.NewMeter(cb)
			err := transport.RunPair(ma, mb,
				func(transport.Conn) error {
					_, err := ae.BatchLessEq(ma, as)
					return err
				},
				func(transport.Conn) error {
					_, err := be.BatchLessEq(mb, bs)
					return err
				},
			)
			if err != nil {
				t.Fatal(err)
			}
			if n := ma.Stats().MessagesSent + mb.Stats().MessagesSent; n != 3 {
				t.Fatalf("batch of %d used %d frames, want 3", len(as), n)
			}
		})
	}
}

// TestBatchPredicateMismatch checks the masked engine detects LessEq on
// one side paired with Less on the other.
func TestBatchPredicateMismatch(t *testing.T) {
	ae, be := enginePair(t, EngineMasked, 10)
	err := transport.Run2(
		func(c transport.Conn) error {
			_, err := ae.BatchLessEq(c, []int64{1})
			return err
		},
		func(c transport.Conn) error {
			_, err := be.BatchLess(c, []int64{1})
			return err
		},
	)
	if !errors.Is(err, ErrPredicateMismatch) {
		t.Fatalf("err = %v, want ErrPredicateMismatch", err)
	}
}

// TestFrameBytesBoundsLargestFrame: FrameBytes, which the lockstep driver
// sizes its chunks by, is the same number at both ends of an edge and at
// least what an instance really adds to the largest frame of its batch —
// under YMPP, packed slots and the grouped uplink alike — and, where every
// instance travels (the grouped uplink sends fewer), not loose by more than
// a factor of two.
func TestFrameBytesBoundsLargestFrame(t *testing.T) {
	const bound = 200
	yA, yB := enginePair(t, EngineYMPP, bound)
	mA, mB := enginePair(t, EngineMasked, bound)
	fA, fB := fullPair(t, bound, 32)
	for _, tc := range []struct {
		name  string
		ae    Alice
		be    Bob
		tight bool
	}{{"ympp", yA, yB, true}, {"masked", mA, mB, true}, {"masked, full packing", fA, fB, false}} {
		if a, b := tc.ae.FrameBytes(), tc.be.FrameBytes(); a != b || a <= 0 {
			t.Fatalf("%s: FrameBytes %d on Alice's side, %d on Bob's", tc.name, a, b)
		}
		as := []int64{0, bound, 7, 7, 9, 9, 9, 150, 31, 7}
		bs := []int64{1, bound, 5, 8, 9, 0, 200, 2, 31, 7}
		largest := 0
		tap := func(c transport.Conn) transport.Conn { return &sizeTap{Conn: c, largest: &largest} }
		err := transport.Run2(
			func(c transport.Conn) error { _, err := tc.ae.BatchLess(tap(c), as); return err },
			func(c transport.Conn) error { _, err := tc.be.BatchLess(tap(c), bs); return err },
		)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if most := len(as) * tc.ae.FrameBytes(); largest > most || (tc.tight && 2*largest < most) {
			t.Errorf("%s: the largest frame of %d instances is %d bytes, FrameBytes allows %d", tc.name, len(as), largest, most)
		}
	}
}

// sizeTap records the size of the largest frame sent through it. The two
// parties of a batch alternate, so they may share one counter.
type sizeTap struct {
	transport.Conn
	largest *int
}

func (c *sizeTap) Send(b []byte) error {
	*c.largest = max(*c.largest, len(b))
	return c.Conn.Send(b)
}
