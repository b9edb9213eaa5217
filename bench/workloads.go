package main

import (
	"time"

	"repro/internal/compare"
)

// clients is the number of concurrent closed-loop clients of the serve
// workload, the most any workload runs at once.
const clients = 2

// Sizes were chosen so that a timed operation takes from a fifth of a
// second to a little over one on one processor of the 2-core machine the
// benchmark is judged on: sixteen seconds then hold enough operations, each
// between two reference blocks, for steady medians. See README.md for the
// measurements.

var bulkSpec = [2]pairSpec{
	{family: "horizontal", n: 32, layout: layout64, paillier: 1024, rsa: 512, engine: compare.EngineMasked, parallel: 1},
	{family: "horizontal", n: 16, layout: layout64, paillier: 256, rsa: 256, engine: compare.EngineMasked, parallel: 1},
}

var wanSpec = [2]pairSpec{
	{family: "vertical", n: 128, layout: layout64, paillier: 512, rsa: 512, engine: compare.EngineMasked, parallel: 4, latency: 10 * time.Millisecond},
	{family: "vertical", n: 16, layout: layout64, paillier: 256, rsa: 256, engine: compare.EngineMasked, parallel: 4, latency: time.Millisecond},
}

var ymppSpec = [2]pairSpec{
	{family: "arbitrary", n: 16, layout: layout16, paillier: 1024, rsa: 512, engine: compare.EngineYMPP, parallel: 1},
	{family: "arbitrary", n: 12, layout: layout16, paillier: 256, rsa: 256, engine: compare.EngineYMPP, parallel: 1},
}

var liveSpecs = [2]liveSpec{
	{gens: 4, genSize: 4, steps: 2, batch: 2, retract: 1, paillier: 1024, rsa: 512},
	{gens: 2, genSize: 4, steps: 1, batch: 2, retract: 1, paillier: 256, rsa: 256},
}

var serveSpecs = [2]serveSpec{
	{n: 18, paillier: 512, rsa: 512, shards: 2},
	{n: 12, paillier: 256, rsa: 256, shards: 2},
}

var meshSpecs = [2]meshSpec{
	{k: 3, perParty: 8, paillier: 1024, rsa: 512},
	{k: 3, perParty: 5, paillier: 256, rsa: 256},
}

func pairWorkload(name, why string, specs [2]pairSpec) workload {
	return workload{
		name:  name,
		why:   why,
		shape: func(sz size) string { return specs[sz].String() },
		build: func(seed int64, sz size) (instance, error) { return buildPair(specs[sz], seed) },
	}
}

// workloads lists the six workloads in the order -workload all runs them.
var workloads = []workload{
	pairWorkload("bulk", "cold horizontal Run, n=32, Paillier 1024, pipe, W=1: Paillier arithmetic through mpc and compare does the work; transport, caches and scheduler do little", bulkSpec),
	pairWorkload("wan", "cold vertical Run, n=128, Paillier 512, 10 ms one-way delay, W=4: mux and wave scheduler hide wire wait; keys halved so arithmetic stays small", wanSpec),
	{
		name:      "live",
		why:       "long-lived horizontal session, Paillier 1024, window 4x4 points per side, 2 append + 2 window + 2 retract steps and 3 rebuilds: cache replay and invalidation",
		shape:     func(sz size) string { return liveSpecs[sz].String() },
		build:     func(seed int64, sz size) (instance, error) { return buildLive(liveSpecs[sz], seed) },
		longRound: true,
	},
	{
		name:  "serve",
		why:   "short enhanced sessions, n=18, Paillier 512, TCP loopback through the dispatcher to 2 shards, 2 closed-loop clients: per-session fixed cost and framing",
		shape: func(sz size) string { return serveSpecs[sz].String() },
		build: func(seed int64, sz size) (instance, error) { return buildServe(serveSpecs[sz], seed) },
	},
	pairWorkload("ympp", "cold arbitrary Run, n=16 on a 16-grid, the paper's YMPP engine, RSA 512: the only workload where yao's RSA range matters", ymppSpec),
	{
		name:  "mesh",
		why:   "cold 3-party mesh Run, 8 points per party, Paillier 1024: the only workload that exercises multiparty's own pair stack",
		shape: func(sz size) string { return meshSpecs[sz].String() },
		build: func(seed int64, sz size) (instance, error) { return buildMesh(meshSpecs[sz], seed) },
	},
}
