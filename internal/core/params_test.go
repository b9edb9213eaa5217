package core

import (
	"bytes"
	"encoding/hex"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/compare"
	"repro/internal/transport"
)

var testParams = Params{
	EpsSq: 4, MinPts: 3, MaxCoord: 7, Engine: compare.EngineMasked, CmpMaskBits: 40, ShareMaskBits: 10,
	Selection: SelectionScan, Batching: BatchModeBatched, Packing: PackSlots, Pruning: PruneGrid,
	PruneQuantum: 4, Parallel: 1,
}

func TestParamsRoundTrip(t *testing.T) {
	r := transport.NewReader(testParams.Encode(transport.NewBuilder()).Bytes())
	got := DecodeParams(r)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if got != testParams {
		t.Errorf("decoded %+v, want %+v", got, testParams)
	}
	if err := testParams.Diff(got); err != nil {
		t.Errorf("Diff of equal params = %v", err)
	}
	short := transport.NewReader(testParams.Encode(transport.NewBuilder()).Bytes()[:5])
	if DecodeParams(short); short.Err() == nil {
		t.Error("truncated params decoded without error")
	}
}

// TestParamsDiffNamesFirstField changes each field in turn — together
// with every later one — and expects Diff to name exactly the first, in
// wire order.
func TestParamsDiffNamesFirstField(t *testing.T) {
	other := Params{
		EpsSq: 9, MinPts: 4, MaxCoord: 15, Engine: compare.EngineYMPP, CmpMaskBits: 20, ShareMaskBits: 8,
		Selection: SelectionQuick, Batching: BatchModeSequential, Packing: PackOff, Pruning: PruneOff,
		PruneQuantum: 8, Parallel: 4,
	}
	names := []string{"Eps²", "MinPts", "MaxCoord", "engine", "CmpMaskBits", "ShareMaskBits",
		"selection", "batching", "packing", "pruning", "prune quantum", "parallel width"}
	ours, theirs := reflect.ValueOf(testParams), reflect.ValueOf(other)
	if ours.NumField() != len(names) {
		t.Fatalf("Params has %d fields, the test names %d", ours.NumField(), len(names))
	}
	for i, name := range names {
		q := testParams
		for j := i; j < ours.NumField(); j++ {
			reflect.ValueOf(&q).Elem().Field(j).Set(theirs.Field(j))
		}
		err := testParams.Diff(q)
		if !errors.Is(err, ErrHandshake) {
			t.Errorf("field %d: Diff = %v, want ErrHandshake", i, err)
			continue
		}
		if !strings.Contains(err.Error(), ": "+name+" ") {
			t.Errorf("field %d: Diff = %q, want it to name %q", i, err, name)
		}
	}
}

// goldenHandshake is Alice's handshake frame for Config{Eps: 2, MinPts: 3,
// MaxCoord: 7, PaillierBits: 256, RSABits: 256, Engine: masked}, proto
// "horizontal", 5 points of dimension 2: the frame captured off a pipe at
// the commit before core.Params existed, regenerated for version 10 —
// the engine being masked, the two RSA fields that closed the v9 frame (a
// 32-byte modulus and 65537) are empty — and carrying version byte 20:
// versions 11 to 20 changed the lockstep, the horizontal and the enhanced
// schedule, the off/slots settle chunk, the lockstep chunk exchange, the
// off/sequential index and comparison frames, the masked reply layout,
// the sign and shift of the comparison and row-dot uplinks, the
// sequential YMPP comparison frames and the horizontal append exchange,
// and nothing else in this frame.
// The
// serving tier's frame and byte counters include this frame, so it must
// not change shape: re-encoding the same parameters and the frame's own
// public key has to reproduce it byte for byte.
const goldenHandshake = "150a686f72697a6f6e74616c0008030e066d61736b6564280a047363616e076261746368656405736c6f747304677269640401020520e46b588088aca8c20a47af2f5b94a26f587cbc4f46e148fae049e047a54978a10000"

func TestHandshakeFrameGolden(t *testing.T) {
	want, err := hex.DecodeString(goldenHandshake)
	if err != nil {
		t.Fatal(err)
	}
	r := transport.NewReader(want)
	if v, proto, role := r.Uint(), r.String(), Role(r.Uint()); v != handshakeVersion || proto != "horizontal" || role != RoleAlice {
		t.Fatalf("golden frame opens with version %d proto %q role %v", v, proto, role)
	}
	if got := DecodeParams(r); got != testParams {
		t.Fatalf("golden frame carries %+v, want %+v", got, testParams)
	}
	dim, count := int(r.Uint()), int(r.Uint())
	paiPub, rsaN, rsaE := r.Bytes(), r.Bytes(), r.Bytes()
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rsaN) != 0 || len(rsaE) != 0 {
		t.Fatalf("golden masked frame carries RSA fields of %d and %d bytes", len(rsaN), len(rsaE))
	}
	cfg, err := Config{Eps: 2, MinPts: 3, MaxCoord: 7, PaillierBits: 256, RSABits: 256, Engine: compare.EngineMasked}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	params, err := cfg.Params()
	if err != nil {
		t.Fatal(err)
	}
	got := handshakeMsg("horizontal", RoleAlice, params, dim, count, paiPub, rsaN, rsaE).Bytes()
	if !bytes.Equal(got, want) {
		t.Errorf("handshake frame changed:\n got %x\nwant %x", got, want)
	}
}
