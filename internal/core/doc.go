// Package core implements the paper's privacy-preserving distributed
// DBSCAN protocols for two semi-honest parties:
//
//   - Horizontal (§4.2, Algorithms 3–4): each party owns complete records.
//     Distance decisions against the peer's points use HDP — a batched
//     Multiplication Protocol that hands the responder each cross dot
//     product, followed by one secure comparison against Eps² per pair —
//     settled for every own point before the cluster walk (settle.go).
//     Each party labels only its own points, and cluster expansion walks
//     only its own points, exactly as the paper specifies.
//   - Vertical (§4.3, Algorithms 5–6): each party owns all records but a
//     column slice. Both parties run the identical DBSCAN driver in lock
//     step; each pairwise decision is one secure comparison (VDP), and
//     both parties learn the full labelling.
//   - Arbitrary (§4.4): per-cell ownership; pair distances decompose into
//     locally-owned terms plus HDP-style cross terms, then one comparison
//     (ADP). Lock-step driver as in the vertical case.
//   - Enhanced horizontal (§5, Algorithms 7–8): distances to the peer's
//     points are additively secret-shared via the dot-product form of the
//     Multiplication Protocol (u − v = Dist²); a secure selection (O(kn)
//     scan or quickselect) finds the k-th smallest, and a single secure
//     comparison against Eps² decides core-ness, revealing the core bit
//     instead of the neighbour count.
//
// # Layering
//
// The stack splits server lifetime from session lifetime, session
// lifetime from run lifetime, and schedule from protocol:
//
//	┌────────────────────────────────────────────────────────────┐
//	│ serving tier          internal/dispatch: consistent-hash   │
//	│ (ppdbscan dispatch)   routing of session keys across N     │
//	│                       shard processes, load-based          │
//	│                       admission + shedding, health-checked │
//	│                       failover, frame-level splice; fleet  │
//	│                       rollup over every shard's snapshot   │
//	├────────────────────────────────────────────────────────────┤
//	│ session server        core.SessionManager: registry of N   │
//	│ (registry.go)         concurrent sessions (ids, lifecycle  │
//	│                       states, graceful drain, aggregate    │
//	│                       snapshot) sharing one bounded crypto │
//	│                       pool (injected as Config.Pool); the  │
//	│                       accept loop of `ppdbscan serve`      │
//	├────────────────────────────────────────────────────────────┤
//	│ protocol families     horizontal · enhanced · vertical ·   │
//	│ (hdp/enhanced/        arbitrary (+ multiparty ring/mesh)   │
//	│  vertical/arbitrary)  one Run = one clustering             │
//	├────────────────────────────────────────────────────────────┤
//	│ query scheduler       Config.Parallel: a pass settles its  │
//	│ (parallel.go,         secure decisions first — chunks of   │
//	│  settle.go,           whole rows dealt over W worker       │
//	│  lockstep.go)         channels — then walks them with      │
//	│                       dbscan's ExpandCluster; W=1 → one    │
//	│                       worker on the bare connection        │
//	├────────────────────────────────────────────────────────────┤
//	│ core.Session          lifecycle on one Pair: many Run      │
//	│ (sess.go, gens.go)    calls; Append / Expire / Retract     │
//	│                       (index deltas only on the wire) run  │
//	│                       through one control-op path (Guard,  │
//	│                       poison rule, setup Ledger, counter)  │
//	│                       over three generation tables —       │
//	│                       OwnGens + PeerGens (horizontal       │
//	│                       shape), RowGens (shared rows); the   │
//	│                       cross-run comparison cache makes     │
//	│                       re-clustering O(Δ·candidates); setup │
//	│                       vs per-run Ledger split              │
//	├────────────────────────────────────────────────────────────┤
//	│ core.Pair             one edge's keys (a KeySet handed to  │
//	│ (pair.go, params.go,  establish: keys.go), agreed          │
//	│  hdp.go, settle.go,   parameters (core.Params,             │
//	│  keys.go)             handshakeVersion), worker channels,  │
//	│                       pool and counters; the HDP settle    │
//	│                       step and index exchange over         │
//	│                       OwnGens / PeerGens. A Session wraps  │
//	│                       one Pair; a k-party mesh holds one   │
//	│                       per peer, all on the party's one     │
//	│                       KeySet                               │
//	├────────────────────────────────────────────────────────────┤
//	│ crypto pool           paillier.Pool: bounded worker slots  │
//	│ (internal/paillier)   for all batch encryption/decryption/ │
//	│                       homomorphic arithmetic and YMPP's    │
//	│                       decryption ranges; process-shared    │
//	│                       across sessions, nil = GOMAXPROCS.   │
//	│                       The key owner decrypts AND encrypts  │
//	│                       by CRT (same nonce distribution, a   │
//	│                       quarter of the work); a peer pays    │
//	│                       r^n — once per ciphertext it SENDS,  │
//	│                       raised at the encryption: one that   │
//	│                       stays in the process is              │
//	│                       paillier.Unblinded (nonce 1). Every  │
//	│                       packed reply and dot product is      │
//	│                       folded by one kernel, SlotFold.      │
//	│                       YMPP's Da runs its two CRT           │
//	│                       exponentiations on yao's own         │
//	│                       four-limb Montgomery kernel whenever │
//	│                       the RSA primes fit 256 bits (every   │
//	│                       key up to 512), on math/big above    │
//	├────────────────────────────────────────────────────────────┤
//	│ transport mux         transport.Mux: W channel-tagged      │
//	│ (internal/transport)  logical channels over one Conn,      │
//	│                       under a concurrent-writer-safe Meter;│
//	│                       transport.Listener accepts N conns,  │
//	│                       one per session                      │
//	└────────────────────────────────────────────────────────────┘
//
// Every protocol runs over a transport.Conn; pair the two role functions
// with transport.Run2 for in-process execution or TCP framing for real
// two-process deployments (`ppdbscan serve`/`client` hold a Session over
// TCP). All traffic is attributable to protocol phases via
// transport.Meter tags, which the communication experiments (E3–E5)
// consume. Each result carries a leakage Ledger recording exactly what the
// protocol disclosed beyond its output, mirroring Theorems 9–11; the
// one-time index disclosure of a long-lived session is reported once, via
// Session.SetupLeakage.
//
// # Pairs and the handshake
//
// Everything two parties share lives in one Pair (pair.go): establish
// splits the connection into its W worker channels, takes the party's
// keys as a KeySet (keys.go) — a Paillier pair always, an RSA pair only
// under YMPP, the one engine that reads it — and swaps one handshake
// frame — version handshakeVersion: proto, role, the agreed parameters,
// data dimensions, public keys. establish is handed its keys instead of
// drawing them: DrawKeySet is the one place a protocol key is generated,
// Paillier first and RSA second, from Config.Random. A two-party family
// draws its set right before it establishes; a mesh party draws one set
// before its edge loop and hands it to all k−1 of its Pairs, k keys per
// mesh instead of k·(k−1) (KeySet says why sharing it discloses nothing
// new); the ring's coordinator draws the ring's one set. The two RSA
// fields travel empty under the masked engine; PeerRSAKey holds a peer to
// that (a key the engine does not use, or none where it does, is
// ErrHandshake), and a peer key that does not parse is ErrHandshake
// wrapping the key package's error.
// The agreed parameters are one codec, Params (params.go: Eps² …
// Parallel in wire order, Encode / DecodeParams / Diff); Diff returns
// an ErrHandshake that names the first field the parties disagree on.
// There is one such stack, not one per topology: a multiparty mesh edge
// is a Pair (NewPair, proto "mesh", lower party index as RoleAlice)
// running the same index exchange and the same settle step (Settle /
// SettleServe) as a two-party horizontal Session, and the multiparty ring
// embeds Params in its circulating token (at multiparty's
// ringHandshakeVersion, the same
// RSA rule for the coordinator's key). Comparison
// engines come from the one constructor compare.Edge — Pair.engines and
// the ring's coordinator/last-party pair both call it.
//
// Set-up is counted in one-way legs, each a wait over a delayed link.
// Every set-up swap sends while it receives (Pair.Swap, over
// transport.Exchange), so it is one leg whichever party reaches it
// first: the hello, then the index (hdp.idx, vdp.idx) — 2 legs for
// horizontal, enhanced, vertical and each mesh edge — and 3 for
// arbitrary, whose adp.owners check comes between. The index does not
// ride in the hello: it would leave before the handshake is checked, and
// CandidateGrid's fallback width depends on the peer's dimension.
//
// Generational state lives in three tables (gens.go), each the only
// place its shape's Append / Expire / Retract arithmetic is written. The
// horizontal shape splits by whose points a table describes: one OwnGens
// per party (encoded points, generation starts, the one spatial.Stack),
// one PeerGens per peer (per-generation counts, disclosed directories,
// the cross-run caches) — a two-party session is 1 own + 1 peer, a
// k-party mesh 1 own + k−1 peers. The shared-row shape — vertical,
// arbitrary, and the multiparty ring, whose parties all hold the same
// records and learn the same public bit per record pair — keeps one
// RowGens: live count per generation (dead prefix retained), the full
// cell rows, and the PairCache. The record matrices stay
// with the family, which follows an expiry with a slice and a retraction
// with CompactRows; retractCounts is the one place retracted ids become
// generation decrements, for PeerGens and RowGens alike.
//
// # Randomness
//
// Each worker channel has one randomness stream (ChannelStreams, set up
// by establish once the keys are drawn), and every draw a worker makes
// on it reads that stream: masks, nonces, Algorithm 4's permutations
// (unless Config.Seed is set) and the engines' draws — Pair.engines
// builds each channel its own. Channel 0 reads Config.Random, channel
// c ≥ 1 AES-CTR under a key read from it; with Random nil every channel
// reads crypto/rand. A channel runs its chunks in schedule order and
// every batch draws before the crypto pool fans out, so under a seeded
// Random each channel's frames are a pure function of the inputs at
// every W — only their interleaving on the connection is not, which is
// why the golden tables hash each channel apart. At W = 1 nothing is
// derived: one stream, read in the order it always was.
//
// # Long-lived sessions and the query scheduler
//
// Every driving pass runs in two steps, settle, then walk, and
// Config.Parallel = W is the width of its settle step; the walk is
// dbscan's ExpandCluster, the plaintext oracle's own loop and the one
// cluster-expansion loop outside the SimulateHorizontalPass oracle. The
// horizontal shape — basic, enhanced, and the multiparty mesh — is
// Algorithm 4: it queries every own point at least once, and what a query
// asks the peer depends on no label, so the settle step decides every
// first query up front, over the one schedule every settle step shares
// (settleSchedule, lockstep.go): rows in order, whole rows packed into
// chunks under the chunkBound rule, chunk c on worker channel c mod W, one
// exchange a chunk. The basic protocol and the mesh run Pair.Settle
// (settle.go), a row being one own point's (point, peer generation)
// sub-queries the cross-run cache does not answer; the enhanced protocol
// runs settleEnhanced (enhanced.go), a row being one own point's core
// query the cache and the local cases leave open — k = MinPts − |own
// neighbours| depends on the point and our own data only, and the dataset
// sizes are just the cache's validity key. The walk,
// dbscan.ClusterCore, then reads what was settled: it touches no channel
// (a two-party basic driver reports its query count on the done frame, for
// the responder's query-level Ledger; enhanced and mesh drivers report
// nothing) and runs at width one. LockstepCluster (lockstep.go) is
// Algorithm 6 for the pair shape — vertical, arbitrary, and the multiparty
// ring: DBSCAN queries every point once, so the pairs it will ask about
// are all of them, known before the first frame. The driver settles the
// whole pair matrix first — what the grid index or the cross-run cache
// does not decide goes to the oracle through the same settleSchedule, a
// row being the undecided pairs of one record against the records before
// it (an appended record's neighbourhood) — and then runs
// dbscan.ClusterGeneric over the
// result, a chunk being one exchange at every batching and packing. The
// comparison and multiplication leaves under the drivers are the only
// thing that varies by family, and Config.Batching only switches the
// comparison leg (batched, or one at a time — the engine's business,
// compare.Edge.Sequential). Schedules
// are pure functions of shared protocol state, so jointly-computed oracles
// stay in lock step, and labels, Ledgers, and comparison totals do not
// depend on W (the parallel equivalence harness enforces this). W = 1 is
// one worker, run inline on the session's bare connection; W > 1
// multiplexes W channels over it. The win is round-trip overlap — the
// bench `wan` workload measures it over a delayed pipe as
// core.sched_overlap_x. Each reply's r^n under the peer's key is raised at
// its encryption. Responder workers draw
// their permutations per channel, so with Selection=quickselect OrderBits
// can shift with W (labels and CoreBits are unaffected); the scan default
// is permutation-invariant.
//
// # Concurrent sessions and the shared crypto pool
//
// One server process holds many sessions at once: SessionManager is the
// registry (accept-ordered ids, handshaking → active → closed/failed
// lifecycle, ErrDraining once shutdown starts, a Drain that waits for
// in-flight runs and force-closes hung connections at its timeout, and
// an aggregate ManagerSnapshot over every session's Meter). Sessions
// registered with one manager share exactly one resource — the bounded
// paillier.Pool injected via SessionManager.Configure — and the pool
// schedules only pure big-integer arithmetic, never protocol state, so
// every concurrent session's labels and Ledgers are byte-identical to
// the same run on a solo server. The concurrency-equivalence harness
// (registry_test.go) pins this at C ∈ {2, 4}, and the bench `serve`
// workload measures serving throughput (ops_per_s, core.manager_*).
// Session itself rejects misuse under concurrency: a second Run
// while one is in flight fails with ErrConcurrentRun, and Run after
// Close fails with ErrSessionClosed.
//
// # Sharded serving and the dispatch tier
//
// One process scales up; internal/dispatch scales out. A dispatcher
// fronts N serve processes (shards), each running its own
// SessionManager over its own crypto pool, and routes every inbound
// connection by consistent-hashing its session key onto the shard
// ring — the same key always lands on the same live shard, so
// per-shard cross-run caches stay warm, and shard churn only moves the
// keys that hash onto the changed shard. The dispatcher speaks a small
// control preamble (transport/control.go) before the protocol
// handshake: it reserves an admission slot, dials the shard, forwards
// the client's hello, and then splices frames verbatim in both
// directions — it never parses protocol traffic, which is what makes
// routing protocol-transparent (labels and Ledgers through the
// dispatcher are byte-identical to a direct connection;
// dispatch.TestDispatcherTransparentForEveryFamily pins this for all
// four families). Admission is load-based: a shard
// at its in-flight cap (or failing pings) is skipped in ring-walk
// order, and only when every shard is exhausted does the client see
// the same typed refusals a solo server issues — ErrServerFull,
// ErrDraining — before any keygen work. Draining the dispatcher drains
// every shard and merges their ManagerSnapshots via MergeSnapshots
// into one fleet rollup. The bench `serve` workload measures the tier
// end to end: ops_per_s through the dispatcher to two shards, with
// dispatch.sheds and core.manager_* beside it.
//
// # Round structure and batching
//
// Config.Batching selects between two round structures with identical
// outputs and identical leakage:
//
//   - batched (default): every protocol step whose secure comparisons are
//     mutually independent issues them as one compare.BatchLessEq /
//     BatchLess — three frames per step regardless of how many predicates
//     it settles. An HDP settle chunk costs 3 hdp.cmp frames at every
//     packing instead of 3 per candidate; a lockstep chunk
//     (vertical/arbitrary, via
//     LockstepCluster: up to 256 pair decisions, whole rows) costs a
//     constant number of vdp.cmp/adp.cmp frames instead of 3 per pair,
//     and a cold Run is a handful of chunks; an enhanced chunk (up to 256
//     candidates, whole core queries) costs one op frame, one share
//     exchange, three frames a selection round — every query's step
//     machine in lockstep, a tournament level (scan) or a pivot
//     (quickselect) a round — and three for the final batch. Underneath,
//     all Paillier work rides the parallel pool
//     (paillier.EncryptBatch/DecryptBatch on the session's paillier.Pool
//     handle — process-shared and bounded on a server, GOMAXPROCS for a
//     solo run), so the round collapse comes with a wall-clock collapse
//     on multi-core hosts.
//   - sequential: the paper-literal comparison leg — one comparison
//     sub-protocol per candidate pair, a chunk's pairs asked one at a time
//     in its order — retained as the equivalence harness's reference. The
//     engine runs it: Pair.engines sets compare.Edge.Sequential from
//     Config.Batching, and every call site issues the same batch in both
//     modes, which the engine runs as batches of one, in order (3 frames
//     each). Only the comparison leg changes: every other exchange of
//     a chunk (HDP's row-dot round, arbitrary's dot exchange, the ring's
//     circulation, enhanced's shares) is the batched mode's, once a chunk.
//     The per-pair rounds it used to run — one masked Multiplication
//     Protocol round per arbitrary pair, one ring circulation per pair —
//     are test oracles now (perpair_test.go, and the ring's
//     lockstep_oracle_test.go).
//
// The equivalence harness (equivalence_test.go) pins the contract: both
// modes produce identical labels, cluster counts, and Ledger entries on
// every protocol family, with strictly fewer frames in batched mode.
//
// # Plaintext packing and the encoding layer
//
// Batching collapses frames; Config.Packing collapses the ciphertexts
// inside them. Under the default "slots" mode (internal/encoding) S
// fixed-point values share one Paillier plaintext, each in a fixed-width
// bit slot: slot width w is sized for the largest value a slot can reach
// after all homomorphic arithmetic plus a per-slot bias and one
// carry-guard bit (2·slotMax < 2^{w−1}), and S = ⌊(|n/2|−1)/w⌋ follows
// from the key's plaintext space — see the encoding package doc for the
// derivation and the no-carry argument. Both parties derive identical
// Packers from handshake-agreed parameters (Packing travels in the
// handshake; a mismatch is ErrHandshake) and the exchanged public keys,
// so the packed layout needs no extra wire state.
//
// Four hot paths run over packed frames, each with its own slot sizing:
//
//   - Row dot products (hdp, at every packing): a settle chunk's
//     coordinates go up packed per row, each slot group already shifted
//     by its owner to its slots in the reply, and mpc.SenderRowDot folds
//     every row's column ciphertexts, raised by their scalars alone, into
//     reply ciphertexts shared by all rows, one exact dot product a slot —
//     a slot a third as wide as a masked product's, no masks, one nonce a
//     reply, a fold chain as long as the widest coordinate (hdp.go says
//     why the responder's view is the paper's masked round's).
//   - Dot products (enhanced): mpc.SenderDotRows packs the share replies
//     of a chunk's core queries across queries, whose small per-slot range
//     gives the largest S.
//   - Cross dot products (adp, at every packing): a chunk's mixed values
//     go up one ciphertext each, and mpc.SenderScatterDot folds each
//     pair's terms into one slot of a bias-only reply, so Bob decrypts
//     exactly each pair's cross dot product — all the paper's zero-sum
//     masked products gave him — in ⌈pairs/S⌉ ciphertexts on the row-dot
//     packers. mpc's masked grid and batch forms serve no production path:
//     HDP's per-sub-query masked round and arbitrary's per-pair one are
//     the differentials' oracles (perquery_test.go, perpair_test.go).
//   - Masked-comparison replies: the oracle's masked differences return as
//     ⌈n/S⌉ ciphertexts. Under "slots" the querying direction stays
//     unpacked deliberately — each comparison instance needs its own
//     fresh multiplier r_i, and sharing one r across a packed slot group
//     would disclose magnitude ratios between instances.
//
// Packing "full" extends "slots" at the comparison uplink — the one leg
// "slots" leaves per-instance. Packing E(a_i) themselves is impossible
// without weakening the masking (the per-slot multipliers cannot stay
// independent on one packed ciphertext), so "full" shrinks the set of
// uplink base ciphertexts instead, choosing per batch between three
// moded wire forms (internal/compare, full.go): per-instance (the
// slots-equivalent fallback, so full never sends more), grouped (one
// ciphertext per distinct operand value; the responder folds each
// instance from its class representative with a fresh r_i — an HDP
// chunk's batch collapses to one ciphertext per own point, vertical's
// repeating partial distances group), and derived (zero uplink
// ciphertexts: the responder re-derives each E(−a_i) homomorphically
// from ciphertexts it already holds — the enhanced family's selection
// and final comparisons, where the share-phase dot products retain
// exactly those ciphertexts, which it inverts once a chunk). The
// retained ciphertexts D_i and the constant added to their differences
// are built without nonces (paillier.Unblinded): they never travel, and
// each reply computed from them is multiplied by a freshly blinded
// encryption of its own — the share reply's bias group, the comparison
// reply's packed mask term — so every ciphertext on the wire has the
// nonce distribution it always had
// (package paillier, "When a nonce is owed";
// TestEnhancedWireCiphertextsAreBlinded opens every reply of a query
// with the private key and finds a fresh nonce in each). Derived replies
// carry signed differences with the κ-bit mask folded into the slot, so
// they ride a wider-slot uplink Packer (encoding.NewUplinkComparePacker).
//
// "off" is not a second code path but the degenerate packing: the row-dot,
// share and cross-dot exchanges, the ring's circulation and the masked
// comparison replies run at S = 1 (encoding.Packer.OneSlot, one biased
// value a ciphertext), so the three modes differ only in S and in the
// comparison uplink — grouped or derived under "full", one ciphertext an
// instance otherwise. Both engines have one wire form, the batch, and no
// scalar call: what sequential batching runs is a batch of one — three
// frames, one ciphertext each way under the masked engine, one Algorithm
// 1 instance behind a count of one under YMPP.
//
// Packing changes the frame layout only: labels, cluster counts, and the
// full disclosure Ledger are byte-identical to Packing "off" (the packing
// equivalence harness pins all four core families across Append / Expire /
// Retract plus a multiparty ring/mesh Run, W ∈ {1, 4}, pruning on/off,
// for "slots" and "full" alike), and Result.CiphertextsSent records the
// compression, split into CiphertextsUplink/CiphertextsDownlink —
// every bench workload records both legs as core.cts_up / core.cts_down
// (exact, gated by bench/counters.json) beside encoding.slots_product /
// slots_compare. "off" is the harness's reference and the default under
// sequential batching, the only packing that round structure admits. The
// one disclosure "full" adds is batch-local: a grouped frame shows the
// responder which instances of that batch share an operand value (the
// value-equality partition, never the values) — see compare/full.go for
// the leakage note and why it stays outside the Ledger.
//
// # Candidate pruning and the grid index
//
// Config.Pruning selects the grid the candidate sets those comparisons run
// over are drawn from (CandidateGrid); every session runs one index round
// after the handshake and every query announces against it. Under the
// default grid mode (internal/spatial) the region queries shrink:
//
//   - Index round. Horizontal family: both parties bucket their points
//     into an Eps-width grid and exchange padded occupancy directories —
//     which cells they occupy, with counts rounded up to
//     Config.PruneQuantum (one hdp.idx frame each way). Lockstep family:
//     both parties disclose the per-record cell coordinates of the
//     attributes they own (vdp.idx/adp.idx) and assemble the same full
//     cell matrix.
//   - Pruned region query (hdp). For each sub-query of a settle chunk the
//     driver announces, on the chunk's op frame, the ≤3^d candidate cells
//     adjacent to its query point's cell, and the MP + comparison phases
//     run over their padded occupancy only — the responder serves the
//     real members plus always-out-of-range dummies, freshly permuted per
//     sub-query. When padding would not shrink the candidate set the
//     sub-query falls back to the exhaustive generation (flagged on the
//     op frame), so pruning never adds comparisons; a two-party driver
//     still announces empty candidate sets so both Ledgers account them.
//     The enhanced
//     protocol prunes its share and selection phases the same way, with
//     dummy shares pinned to the domain bound.
//   - Pruned lockstep pair (vdp/adp). Pairs in non-adjacent cells are
//     decided out of range locally on every participant identically and
//     never reach the oracle. The pairs that do are adjacent on every
//     attribute, so the comparison runs over a domain D both parties
//     derive from handshake-checked parameters, not over the dist² bound
//     (W the cell width, M = MaxCoord): vertical's D is
//     m_A·min(2W − 1, M)², m_A RoleAlice's column count (Pair.verticalDomain),
//     which bounds her partial sum. An arbitrary pair's split attribute
//     gives RoleAlice u², which adjacency does not bound, so batchLE first
//     moves the pair's public shift L = Σ (cW)² over its split attributes,
//     c the cell of the value RoleAlice owns (adpState.splitShift), from
//     her share to RoleBob's: the sum and the predicate stay, and her term
//     u² − (cW)² ≤ min((c+1)W − 1, M)² − (cW)², so
//     D = m·max(min(2W − 1, M)², max_c[min((c+1)W − 1, M)² − (cW)²])
//     (Pair.arbitraryDomain). RoleBob's operand is clamped to [0, D+1]
//     (responderOperand), exact because her share never leaves [0, D]. A
//     YMPP comparison then costs D + 2 values instead of bound + 2 — 60,
//     not 452, on bench's ympp grid (W = 2, M = 15) — and a masked reply
//     packs more slots. On the one-cell grid (W > M: pruning off or the
//     geometric fallback) D is the bound and L is 0, so those runs compare
//     exactly as the paper's. Nothing new is disclosed: L and D are
//     functions of the cell matrix both parties already hold (the
//     IndexCellCoords they were charged for); predicates, labels and
//     Ledger counts do not move; a masked reply still encodes
//     T + 1 − dist² wherever no clamp binds. Equal shifted operands under
//     two shifts would tell Bob a₁ − a₂, so the grouped uplink's classes
//     are keyed within (row, L) (shiftRows), a refinement of the
//     (row, a) partition PairRows gave it.
//
// "off" is not a second code path but the degenerate grid: one cell wider
// than the coordinate domain, padded at 1, so the directory discloses only
// the counts the handshake and the append ops already carry, the cell
// matrix is all zeros, every pair is adjacent, and every query takes the
// exhaustive fallback — the paper's candidate sets, with the comparison
// counts they always had. Grid mode runs the same one-cell grid when Eps²
// reaches the dist² bound (the geometric fallback), where no dummy could
// stay strictly out of range. A driver prunes only when the padded total
// is below the live count, never against one cell, and a responder
// refuses a pruned announcement that is not (ErrPrunedSpan), so an
// exhaustive query never carries a dummy. A candidate lookup costs
// min(3^d, occupied cells) cell tests (spatial.Directory.Candidates), so
// on the one-cell grid it is one test at any dimension.
//
// Cell width is the smallest W with W² ≥ Eps², so within-Eps neighbours
// are always in adjacent cells: pruning removes only comparisons whose
// outcome the index already implies, and labels are byte-identical to the
// exhaustive run — the pruning equivalence harness enforces this together
// with identical non-index Ledger classes. The index disclosure itself is
// first-class Ledger state (IndexCells, IndexPaddedPoints,
// IndexCellCoords, IndexQueryCells, IndexDeltaCells; see Ledger docs for
// the budget semantics); bench records the resulting reduction on every
// grid workload as spatial.candidate_ratio (secure comparisons ÷
// exhaustive pairs).
//
// # Streaming appends and the cross-run comparison cache
//
// A live Session absorbs new points between runs: the initiating party
// calls Append (AppendOwned for the arbitrary family), and the serving
// party's AppendSource contributes its own share of the batch. Every
// family's append is one exchange on the control channel, written once
// (Session.announceAppend / serveAppend): the announce [append op,
// count, request fields, index payload] and the reply [count, index
// payload] — 2 frames at every W. A family supplies only its hooks
// (appendHooks): encode and validate a batch, parse the request fields
// (the arbitrary family's public ownership rows), write its index payload,
// absorb the peer's. The horizontal families' payload is one
// spatial.GridDelta naming only the index cells the batch touched (each
// append is a new generation of the session's spatial.Stack), the same
// [count, GridDelta] a mesh edge swaps; the shared-row families' payload
// is this party's cell coordinates of the new records. Either is recorded
// in IndexDeltaCells. The initiator validates its batch before it touches
// its own state or the wire, so a bad batch leaves the session usable,
// and every declared count is checked against MaxPoints before anything
// is sized from it (ErrPointCount) — a horizontal-shape count also against
// its GridDelta, whose cells padded to c hold c − (quantum − 1) to c
// points each. The data itself never crosses the wire.
//
// Append, Expire and Retract are one control-op path (sess.go): the
// initiating side enters through Session.initiate — the Guard
// (ErrConcurrentRun while any operation is in flight, ErrSessionClosed
// once the session ended), the role check, the family's exchange — and
// the serving side through Run's control loop; both close in
// Session.absorb (the op's disclosures move to the setup Ledger, its
// counter ticks), and on both a failure after a frame was sent poisons
// the session while a purely local validation failure leaves it usable.
// The same Guard serializes the Run of the multiparty RingSession and
// MeshSession, which are establishment plus Run and have no control ops.
//
// Re-clustering after an append is incremental because decided
// predicates are immutable — appends only add points, so a pairwise
// within-Eps bit, a region count against a fixed peer prefix, and a true
// core bit (counts are monotone) never change. Each family keeps the
// matching cross-run cache: the lockstep families seed their drivers
// with a PairCache (identical on all sides, since pair bits are public
// to every participant, so the chunks of the oracle's schedule stay in
// lock step);
// the basic horizontal family caches per-point, per-generation counts and
// settles only the peer generations a point's cached run does not reach
// (each named on the chunk's op frame — the responder serves only those,
// each padded to its own directory's counts); the enhanced family
// skips whole core queries whose cached bit is still valid. Budget
// accounting follows the pruning convention: a cache-served predicate
// still records its decision-level Ledger entries, so an incremental
// run's labels and non-index classes are byte-identical to a fresh
// session over the concatenated data (the incremental-equivalence
// harness pins all four families at W ∈ {1, 4}), while
// Result.SecureComparisons shrinks toward O(Δ·candidates) and
// Result.CachedComparisons records the reuse — the bench `live` workload
// measures both against rebuilds (rebuild_x, core.append_step_s,
// core.cache_hit_ratio).
//
// # Sliding windows: expiry, tombstones, and cache invalidation
//
// Appends alone grow a session without bound; Session.Expire(gens)
// retires the oldest gens append generations, and
// Session.WindowAppend(batch) is the steady state of a sliding-window
// feed (append one generation, expire the oldest). The point lifecycle
// is: constructed or appended as a generation of the session's
// spatial.Stack → live across any number of runs → tombstoned by an
// expiry → compacted away once part of the dead prefix. Generation
// numbering is absolute for the session's lifetime: wire frames carry
// absolute generation spans, tombstoned generations answer as empty
// husks, and a dead prefix is physically dropped with live indices
// rebased, so a long-lived window stays O(window), not O(stream).
//
// Only the initiating party may expire (ErrExpireRole). Expiry is one
// announce/validate pair for every family (Session.announceExpire /
// serveExpire): the initiator ships one spatial.TombstoneDelta pinned to
// its generation table's dead prefix, the serving side validates it
// against its own table (a disagreement is a loud protocol error, not
// divergence), and both apply the family's hook — OwnGens.Expire +
// PeerGens.Expire for the horizontal shape, RowGens.Expire plus a slice
// of the record matrices for the shared-row shape. The disclosure is
// first-class setup-Ledger state (IndexTombstones, one per expired
// generation on each side).
//
// Expiry is the one operation that breaks the append-only monotonicity
// the cross-run caches rely on, so each cache invalidates exactly the
// entries an expired point touches: the lockstep PairCache drops every
// pair bit naming an expired record and remaps the survivors onto the
// compacted indices (identically on all participants, keeping the
// seeded drivers in lock step); the basic horizontal family's count
// cache holds one count per (own point, live peer generation) — the
// settle step asks one sub-query per live generation — and expiry
// re-slices the rows past the dead generations while the surviving
// counts keep serving; the enhanced family's core
// bits are cleared outright (a count that was ≥ MinPts may not be after
// points leave). The windowed-equivalence harness pins the contract:
// after any slide, labels and non-index Ledger classes are
// byte-identical to a fresh session over exactly the window contents,
// and slides cost strictly fewer secure comparisons than per-window
// rebuilds (except the enhanced family, whose cleared cache makes a
// slide cost exactly a rebuild) — `live` times a slide as
// core.window_step_s against core.rebuild_s.
//
// # Retraction: point tombstones, masked slots, and compaction
//
// Expiry forgets whole generations; Session.Retract(ids) withdraws
// individual points from generations still live. The full point
// lifecycle becomes: constructed or appended as a generation slot →
// live across runs → either tombstoned with its whole generation by an
// expiry, or masked individually by a retraction → compacted away once
// its generation's occupancy drops below half (or once the generation
// joins the dead prefix). ids name live points in the caller's current
// compacted numbering — the caller's own rows for the horizontal
// families (the serving side contributes its own ids through
// SetRetractSource), shared record rows for the vertical/arbitrary
// lockstep families. Only the initiating party may call Retract
// (ErrRetractRole); every family opens with Session.announceRetract —
// ids are range- and order-checked before any frame is sent (a bad
// argument is a local error, not a poisoned session), then one validated
// spatial.PointTombstone is announced. The shared-row families stop
// there (Session.rowRetract: the records are shared, so the initiator's
// tombstone binds both sides, which compact the same rows and call
// RowGens.Retract); the horizontal family swaps a second tombstone back,
// the serving party's own ids.
//
// A masked slot is not erased from the disclosed index: the directory
// keeps the padded counts announced at append time, and the slot keeps
// answering region queries as a maximal-distance dummy, so per-query
// wire sizes never change and the peer cannot tell which cells lost
// points — that silence is the privacy property. Compaction below the
// half-occupancy threshold drops masked slots from the local grid and
// rebases the live numbering (subsequent Retract ids address the
// rebased indices), while the disclosed directory still never shrinks.
// Cache invalidation is exact, as for expiry: the lockstep PairCache
// drops pairs naming a retracted record and remaps survivors
// identically on all sides, the basic horizontal region counts are
// re-derived for generations with masked slots, and the enhanced core
// bits are cleared. The retraction-equivalence harness pins the
// contract: post-retraction labels are byte-identical to a fresh
// session over exactly the surviving points, the counting families'
// non-index Ledger classes match a fresh rebuild, and re-clustering
// costs strictly fewer secure comparisons than rebuilding (the
// enhanced family under pruning is the deliberate exception — masked
// dummies keep participating in its selection until compaction, so its
// cost is bounded below by the rebuild's) — `live` times a retraction
// as core.retract_step_s against core.rebuild_s.
//
// The setup-class Ledger entries that record the streaming lifecycle,
// side by side:
//
//	class             unit                 disclosed by         discloses
//	IndexCells        occupied grid cell   initial exchange     cell coords + padded occupancy
//	IndexDeltaCells   occupied grid cell   Session.Append       delta cells + padded occupancy
//	IndexTombstones   expired generation   Session.Expire       which generations left the window
//	IndexRetractions  retracted point id   Session.Retract      which live records were withdrawn
//
// Tombstones and retractions ride the same generation ledger that keeps
// both parties' caches invalidating in lockstep; neither adds spatial
// information beyond what the append-time directory already disclosed.
package core
