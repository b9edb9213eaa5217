package core

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/paillier"
	"repro/internal/partition"
	"repro/internal/spatial"
	"repro/internal/transport"
)

// Long-lived sessions. A Session amortizes the fixed per-run costs of the
// paper's protocols — Paillier/RSA key generation, the parameter
// handshake, and the grid-index exchange (Config.Pruning) — across many
// Run invocations on the same data: handshake and keys are established
// once at construction, and each Run executes one complete clustering
// pass over the established state. This is the split the outsourced
// multi-user clustering literature argues for (see PAPERS.md): session
// lifetime ≠ run lifetime.
//
// The initiating party (RoleAlice) drives the session: each of its Run
// calls sends a run op on the control channel before the protocol
// traffic, and Close sends a close op. The serving party (RoleBob) calls
// Run in a loop; a Run that receives the close op returns
// ErrSessionClosed. `ppdbscan serve` / `ppdbscan client` expose exactly
// this loop over TCP.
//
// Disclosure accounting splits accordingly: SetupLeakage returns the
// one-time disclosures of the session establishment (the Index* classes
// of the candidate-index exchange), while each Run's Result.Leakage
// carries only that run's disclosures. Two Runs on one Session therefore
// disclose the index once, where two fresh sessions disclose it twice —
// the session-reuse tests pin this. The one-shot protocol entry points
// (HorizontalAlice et al.) fold SetupLeakage back into their single
// Result for continuity with the per-run API.
//
// The session's W = Config.Parallel worker channels are fixed at
// construction, before the handshake: the bare connection for W = 1, W
// multiplexed channels (transport.Mux) otherwise — both parties must
// therefore agree on Parallel out of band, and the handshake (which runs
// on worker channel 0) verifies the agreement like every other
// parameter.

// Session op codes on the control channel (worker channel 0).
const (
	sessOpRun     uint64 = 1
	sessOpClose   uint64 = 2
	sessOpAppend  uint64 = 3
	sessOpExpire  uint64 = 4
	sessOpRetract uint64 = 5
)

// ErrSessionClosed reports that the initiating party ended the session;
// the serving party's Run loop terminates on it.
var ErrSessionClosed = errors.New("core: session closed by peer")

// ErrConcurrentRun reports a second Run entered while one is in flight.
// A Session serializes its protocol traffic; concurrent clustering runs
// need concurrent sessions (see SessionManager). Append and Close share
// the guard: any overlap of Run/Append/Close on one session is rejected
// with this error rather than corrupting the protocol stream.
var ErrConcurrentRun = errors.New("core: concurrent Run calls on one session")

// ErrAppendRole reports an Append call on the serving party: only the
// initiating party (RoleAlice) drives the control channel; the serving
// party contributes its own batches through SetAppendSource.
var ErrAppendRole = errors.New("core: only the initiating party may call Append; the serving party supplies batches via SetAppendSource")

// ErrExpireRole reports an Expire call on the serving party: like
// appends, expiries are driven by the initiating party over the control
// channel; the serving party absorbs them inside its Run loop.
var ErrExpireRole = errors.New("core: only the initiating party may call Expire; the serving party absorbs expiries from the control channel")

// ErrRetractRole reports a Retract call on the serving party: like
// appends and expiries, retractions are driven by the initiating party
// over the control channel; the serving party contributes its own
// retraction ids through SetRetractSource.
var ErrRetractRole = errors.New("core: only the initiating party may call Retract; the serving party supplies ids via SetRetractSource")

// opRoleErr names the error a serving party gets for driving each
// lifecycle op itself.
var opRoleErr = map[uint64]error{
	sessOpAppend:  ErrAppendRole,
	sessOpExpire:  ErrExpireRole,
	sessOpRetract: ErrRetractRole,
}

// Guard is the misuse guard of a long-lived session, shared by Session
// and the k-party sessions of internal/multiparty: operations on one
// session are strictly serial, and a session whose peers may be
// mid-exchange at an unknown point is closed for good. Atomic, so a server
// can observe a session while goroutines race operations against it.
type Guard struct {
	running atomic.Bool // an operation is in flight
	closed  atomic.Bool // the session ended or was poisoned
}

// Do runs one operation under the guard: ErrConcurrentRun while another is
// in flight, ErrSessionClosed once the session ended. op reports whether
// it touched the wire before failing — a failure after that leaves the
// peers inside a partial exchange, where a later frame would land in
// their sub-protocol reads, so it poisons the session; a purely local
// validation failure leaves it usable.
func (g *Guard) Do(op func() (wired bool, err error)) error {
	if !g.running.CompareAndSwap(false, true) {
		return ErrConcurrentRun
	}
	defer g.running.Store(false)
	if g.closed.Load() {
		return ErrSessionClosed
	}
	wired, err := op()
	if err != nil && wired {
		g.closed.Store(true)
	}
	return err
}

// idleController is implemented by server-side connections whose idle
// read deadline can be switched off for the duration of a protocol run:
// a client doing long local cryptography between frames is healthy, not
// idle, and must not trip the -idle-timeout mid-run. The deadline stays
// armed while the serving Run loop waits for control ops — the state in
// which peer silence really does mean a hung client.
type idleController interface{ SetIdleArmed(bool) }

// Session is one party's half of a long-lived protocol session. Create
// one with NewHorizontalSession, NewEnhancedHorizontalSession,
// NewVerticalSession, or NewArbitrarySession; both parties must construct
// matching sessions concurrently (the constructor performs the blocking
// handshake and index exchange).
type Session struct {
	s     *Pair // s.Conns[0] carries the control ops
	proto string

	setup   Ledger // one-time disclosures recorded at construction
	runOnce func() (*Result, error)

	// Lifecycle hooks, wired by the family constructors; every op runs
	// through initiate on the driving side and Run's control loop on the
	// serving side (one path: guard, poison rule, setup ledger, counter).
	// appendInit is the initiating side of one append exchange (announce +
	// swap); its sent flag reports whether any frame reached the wire.
	// appendServe is the serving side; appendSrc supplies this party's own
	// batch when the peer initiates (see SetAppendSource).
	appendInit  func(values [][]float64, owners [][]partition.Owner) (sent bool, err error)
	appendServe func(r *transport.Reader) error
	appendSrc   AppendSource

	// Expiry is one announce/validate pair for every family
	// (announceExpire/serveExpire below): window reports the family's
	// generation table position the tombstone is checked against, expire
	// applies an agreed expiry to the family's state.
	window func() (dead, live int)
	expire func(gens int) error

	// Retraction: retractInit announces this party's point tombstone,
	// retractServe answers a peer-initiated one. The shared-row families
	// wire the one-way pair of rowRetract; the horizontal family swaps
	// tombstones both ways, consulting retractSrc for this party's own ids.
	retractInit  func(ids []int) (sent bool, err error)
	retractServe func(r *transport.Reader) error
	retractSrc   RetractSource

	// idleCtl, when non-nil, is the serving connection's idle-deadline
	// switch (see idleController); the Run loop disarms it for the
	// duration of each protocol run.
	idleCtl idleController

	// stock shelves ready nonces for the peer's key (s.peerPai), the one
	// every reply this party puts on the wire is encrypted under; nil when
	// Config.Random is set. Its filler runs for the length of a Run — the
	// only time the session both computes and waits for the wire — so the
	// peer's r^n is raised while a frame is in flight instead of between
	// an uplink and its reply. Leftovers stay for the next Run.
	stock *paillier.NonceStock

	// guard serializes Run/Append/Expire/Retract/Close (ErrConcurrentRun)
	// and latches once the session ended (ErrSessionClosed); runs counts
	// completed Run calls and ops the absorbed lifecycle ops by op code.
	guard Guard
	runs  atomic.Int64
	ops   [sessOpRetract + 1]atomic.Int64
}

// newSession wraps an established Pair as a Session; the establishment
// disclosures recorded so far become its setup ledger. The family wires
// the hooks. The peer's key gets a nonce stock (see Session.stock) unless
// the caller supplied the randomness: Config.Random is not assumed
// goroutine-safe, and tests rely on the order it is read in.
func newSession(conn transport.Conn, s *Pair, proto string) *Session {
	t := &Session{s: s, proto: proto, setup: s.takeLedger()}
	t.idleCtl, _ = conn.(idleController)
	if s.cfg.Random == nil {
		t.stock = paillier.NewNonceStock(s.peerPai, s.pool)
	}
	return t
}

// AppendRequest describes a peer-initiated append the serving party must
// answer with its own batch (possibly empty).
type AppendRequest struct {
	// PeerCount is the number of points/records the initiating party is
	// appending.
	PeerCount int
	// Owners carries the public ownership rows of the appended records in
	// the arbitrary-partition family (nil elsewhere).
	Owners [][]partition.Owner
}

// AppendSource supplies the serving party's own share of an append batch
// whenever the peer initiates one. Horizontal-family sources may return
// any batch (including none); the vertical and arbitrary families must
// return exactly the announced record count (their columns/cells of the
// same new records).
type AppendSource func(req AppendRequest) ([][]float64, error)

// SetAppendSource registers the serving party's append source. Call it
// before entering the serving Run loop; the default source appends
// nothing for the horizontal families and rejects appends for the
// vertical and arbitrary families (which cannot proceed without this
// party's share of the new records).
func (t *Session) SetAppendSource(fn AppendSource) { t.appendSrc = fn }

// appendSource resolves the configured source or the family default.
func (t *Session) appendSource() AppendSource {
	if t.appendSrc != nil {
		return t.appendSrc
	}
	return func(req AppendRequest) ([][]float64, error) {
		switch t.proto {
		case "horizontal", "enhanced-horizontal":
			return nil, nil
		}
		if req.PeerCount == 0 {
			return nil, nil
		}
		return nil, fmt.Errorf("core: %s session needs an AppendSource to serve %d appended records", t.proto, req.PeerCount)
	}
}

// RetractRequest describes a peer-initiated retraction the serving party
// may answer with retractions of its own.
type RetractRequest struct {
	// PeerIDs are the live indices the initiating party is retracting:
	// its own points for the horizontal families, shared record indices
	// for the vertical and arbitrary families (where both parties delete
	// the same rows).
	PeerIDs []int
}

// RetractSource supplies the serving party's own retraction ids whenever
// the peer initiates one. Only the horizontal families consult it (their
// parties own disjoint point sets); the default source retracts nothing.
// The vertical and arbitrary families share rows, so the initiator's ids
// bind both sides and the source is never called.
type RetractSource func(req RetractRequest) ([]int, error)

// SetRetractSource registers the serving party's retraction source. Call
// it before entering the serving Run loop.
func (t *Session) SetRetractSource(fn RetractSource) { t.retractSrc = fn }

// retractSource resolves the configured source or the default (retract
// nothing of our own).
func (t *Session) retractSource() RetractSource {
	if t.retractSrc != nil {
		return t.retractSrc
	}
	return func(RetractRequest) ([]int, error) { return nil, nil }
}

// Append absorbs a batch of this party's new points into the live
// session at incremental cost: no keys, no handshake, and — under grid
// pruning — only the index cells the batch touched cross the wire (one
// spatial.GridDelta each way). The serving peer contributes its own
// batch through its AppendSource. The next Run re-clusters the full
// concatenated dataset, reusing every comparison the session already
// paid for; labels and decision-level Ledger budgets are byte-identical
// to a fresh session over the concatenated data (the
// incremental-equivalence harness enforces this).
//
// Only the initiating party (RoleAlice) may call Append — it drives the
// control channel — and never concurrently with Run or Close
// (ErrConcurrentRun) or after Close (ErrSessionClosed). The arbitrary
// family appends via AppendOwned.
func (t *Session) Append(points [][]float64) error {
	return t.append(points, nil)
}

// AppendOwned is Append for the arbitrary-partition family: values holds
// the full rows of the appended records (only this party's cells are
// read) and owners their public ownership rows, identical on both sides
// (the serving party's AppendSource receives them in its AppendRequest).
func (t *Session) AppendOwned(values [][]float64, owners [][]partition.Owner) error {
	if owners == nil {
		return fmt.Errorf("core: AppendOwned requires ownership rows")
	}
	return t.append(values, owners)
}

func (t *Session) append(values [][]float64, owners [][]partition.Owner) error {
	return t.initiate(sessOpAppend, func() (bool, error) { return t.appendInit(values, owners) })
}

// initiate drives one lifecycle op from the initiating party: the guard,
// the role check, the family's exchange, and absorb.
func (t *Session) initiate(op uint64, exchange func() (sent bool, err error)) error {
	return t.guard.Do(func() (bool, error) {
		if t.s.role != RoleAlice {
			return false, opRoleErr[op]
		}
		sent, err := exchange()
		if err == nil {
			t.absorb(op)
		}
		return sent, err
	})
}

// absorb closes a completed lifecycle op on either side. Its disclosures
// (index deltas, tombstones) are setup-class state — paid once, not per
// run — so they accumulate alongside the construction-time index exchange.
func (t *Session) absorb(op uint64) {
	t.setup.Add(t.s.takeLedger())
	t.ops[op].Add(1)
}

// sendOp puts one frame on the control channel.
func (t *Session) sendOp(msg *transport.Builder) error {
	ctrl := t.s.Conns[0]
	setTag(ctrl, "session.op")
	return transport.SendMsg(ctrl, msg)
}

// Appends reports how many append exchanges this session has absorbed.
func (t *Session) Appends() int { return int(t.ops[sessOpAppend].Load()) }

// Expire slides the session's window forward by tombstoning its gens
// oldest live generations: their points leave both parties' datasets,
// every cross-run cache entry touching them is invalidated (a stale
// cached bit would silently corrupt labels), and the next Run clusters
// exactly the surviving window — labels and decision-level Ledger
// budgets byte-identical to a fresh session over the window contents
// (the windowed-equivalence harness enforces this). The only disclosure
// is the tombstone itself: *which* generations died, never which points
// they held (their padded cell counts were public since append time);
// it is recorded in the setup ledger's IndexTombstones class.
//
// Like Append, Expire is driven by the initiating party (RoleAlice) over
// the control channel — the serving party absorbs it inside its Run loop
// — and never concurrently with Run, Append, or Close
// (ErrConcurrentRun) or after Close (ErrSessionClosed). Expiring every
// live generation leaves a valid empty window; expiring more is an
// error.
func (t *Session) Expire(gens int) error {
	return t.initiate(sessOpExpire, func() (bool, error) { return t.announceExpire(gens) })
}

// announceExpire is the initiating side of every family's expiry:
// announce the tombstone (which generations die — their contents were
// disclosed at append time, so the tombstone itself adds only the window
// movement) and apply it locally. Expiry is one-way: the serving side
// holds the same generation table, so the tombstone either applies
// identically there or surfaces as a protocol error on its decode.
func (t *Session) announceExpire(gens int) (sent bool, err error) {
	dead, live := t.window()
	if gens < 1 || gens > live {
		return false, fmt.Errorf("core: expire %d of %d live generations", gens, live)
	}
	msg := transport.NewBuilder().PutUint(sessOpExpire)
	spatial.TombstoneDelta{From: dead, N: gens}.Encode(msg)
	if err := t.sendOp(msg); err != nil {
		return true, fmt.Errorf("core: session expire op: %w", err)
	}
	return true, t.applyExpire(gens)
}

// serveExpire validates the announced tombstone against this side's
// generation table and applies it.
func (t *Session) serveExpire(r *transport.Reader) error {
	dead, live := t.window()
	td, err := spatial.DecodeTombstoneDelta(r, dead, live)
	if err != nil {
		return fmt.Errorf("core: session expire op: %w", err)
	}
	return t.applyExpire(td.N)
}

// applyExpire runs the family's expiry and records its only disclosure:
// one IndexTombstones entry per dead generation.
func (t *Session) applyExpire(gens int) error {
	if err := t.expire(gens); err != nil {
		return err
	}
	t.s.led(func(l *Ledger) { l.IndexTombstones += gens })
	return nil
}

// WindowAppend slides the window one step: append points as the newest
// generation, then expire the oldest live one. The steady state of a
// sliding-window feed — window width constant, one tombstone per batch.
func (t *Session) WindowAppend(points [][]float64) error {
	if err := t.Append(points); err != nil {
		return err
	}
	return t.Expire(1)
}

// Expires reports how many expiries this session has absorbed.
func (t *Session) Expires() int { return int(t.ops[sessOpExpire].Load()) }

// Retract deletes individual live records from the session — the
// point-level generalization of Expire for GDPR-style deletes and fraud
// corrections. ids are this party's live point indices for the
// horizontal families (the serving peer may retract its own points in
// the same exchange via SetRetractSource) or shared record indices for
// the vertical and arbitrary families (both parties delete the same
// rows); they must be strictly ascending and in range. Retracted points
// are masked inside their generations — the padded index disclosed at
// append time keeps answering as if they were dummies, so per-query wire
// sizes do not change — and every cross-run cache entry touching them is
// invalidated exactly, so the next Run's labels are byte-identical to a
// fresh session over the surviving points, as are the counting families'
// decision-level Ledger budgets (the retraction-equivalence harness
// enforces this). The one deliberate cost asymmetry: under grid pruning
// the enhanced family's selection keeps running over the padded
// footprint disclosed at append time, so masked dummies still
// participate (at pinned maximal distance) until their generation
// compacts or expires — the price of not disclosing which cells lost
// points.
// A generation whose occupancy falls below the compaction threshold is
// rewritten in place over its survivors. The only disclosure is the
// point tombstone itself — *which* live indices left, never their
// coordinates — recorded in the setup ledger's IndexRetractions class
// on both sides.
//
// Like Append and Expire, Retract is driven by the initiating party
// (RoleAlice) over the control channel — the serving party absorbs it
// inside its Run loop — and never concurrently with Run, Append, Expire,
// or Close (ErrConcurrentRun) or after Close (ErrSessionClosed).
// Invalid ids (out of range, unsorted, duplicated, or more than the
// live count) fail with a local validation error before any frame is
// sent, so they do not poison the session.
func (t *Session) Retract(ids []int) error {
	return t.initiate(sessOpRetract, func() (bool, error) { return t.retractInit(ids) })
}

// announceRetract opens every family's retraction from the initiating
// side: validate ids against the live count — a failure here is local, no
// frame sent — and announce the point tombstone.
func (t *Session) announceRetract(ids []int, live int) (sent bool, err error) {
	if err := spatial.ValidateRetractIDs(ids, live); err != nil {
		return false, fmt.Errorf("core: retract: %w", err)
	}
	msg := transport.NewBuilder().PutUint(sessOpRetract)
	spatial.PointTombstone{IDs: ids}.Encode(msg)
	if err := t.sendOp(msg); err != nil {
		return true, fmt.Errorf("core: session retract op: %w", err)
	}
	return true, nil
}

// rowRetract wires the retraction pair of a shared-row family: the
// records are shared, so the initiator's tombstone binds both sides — no
// reply, exactly as with expiry — and both compact the same rows: compact
// drops them from the family's own matrices, g follows with the counts,
// cell rows and pair cache. The Ledger records one IndexRetractions entry
// per retracted record.
func (t *Session) rowRetract(g *RowGens, compact func(ids []int)) {
	apply := func(ids []int) {
		compact(ids)
		g.Retract(ids)
		t.s.led(func(l *Ledger) { l.IndexRetractions += len(ids) })
	}
	t.retractInit = func(ids []int) (bool, error) {
		sent, err := t.announceRetract(ids, g.N)
		if err == nil {
			apply(ids)
		}
		return sent, err
	}
	t.retractServe = func(r *transport.Reader) error {
		tomb, err := spatial.DecodePointTombstone(r, g.N)
		if err != nil {
			return fmt.Errorf("core: session retract op: %w", err)
		}
		apply(tomb.IDs)
		return nil
	}
}

// Retracts reports how many retraction exchanges this session has
// absorbed.
func (t *Session) Retracts() int { return int(t.ops[sessOpRetract].Load()) }

// setIdleArmed flips the serving connection's idle deadline, when the
// session sits on one (see idleController).
func (t *Session) setIdleArmed(on bool) {
	if t.idleCtl != nil {
		t.idleCtl.SetIdleArmed(on)
	}
}

// Run executes one clustering pass over the session's established keys
// and index. The initiating party announces the run on the control
// channel; the serving party's Run blocks until the peer either runs
// (returns this run's Result), appends (the exchange is absorbed
// transparently — this party's AppendSource supplies its own batch — and
// the wait resumes), or closes (returns ErrSessionClosed).
// Result.Leakage covers this run only; see SetupLeakage.
func (t *Session) Run() (res *Result, err error) {
	err = t.guard.Do(func() (bool, error) {
		res, err = t.run()
		return true, err
	})
	return res, err
}

// run is Run under the guard; any failure poisons the session — a failed
// run leaves the peer at an unknown point of the protocol, where a retry
// would inject a control frame into its in-flight sub-protocol reads.
func (t *Session) run() (*Result, error) {
	if t.s.role == RoleAlice {
		if err := t.sendOp(transport.NewBuilder().PutUint(sessOpRun)); err != nil {
			return nil, fmt.Errorf("core: session run op: %w", err)
		}
	} else if err := t.serveOps(); err != nil {
		return nil, err
	}
	// Per-run accounting starts clean; the setup ledger was moved aside at
	// construction.
	t.s.ResetRun()
	// The filler is joined on every way out of the run, before the guard
	// releases: an idle, failed or closed session owns no goroutine.
	t.stock.StartFiller()
	defer t.stock.StopFiller()
	res, err := t.runOnce()
	if err != nil {
		return nil, err
	}
	t.runs.Add(1)
	return res, nil
}

// serveOps is the serving party's control loop: absorb lifecycle ops until
// the peer announces a run (nil) or closes (ErrSessionClosed).
func (t *Session) serveOps() error {
	ctrl := t.s.Conns[0]
	// Waiting for a control op is the one state where peer silence means a
	// hung client: arm the idle deadline here and disarm it for the
	// protocol run itself, whose frames may lag behind the client's local
	// cryptography without the session being idle. (Each Recv inside a
	// lifecycle exchange re-arms the rolling deadline on its own.)
	t.setIdleArmed(true)
	for {
		setTag(ctrl, "session.op")
		r, err := transport.RecvMsg(ctrl)
		if err != nil {
			return fmt.Errorf("core: session op recv: %w", err)
		}
		op := r.Uint()
		if r.Err() != nil {
			return r.Err()
		}
		var serve func(*transport.Reader) error
		switch op {
		case sessOpRun:
			t.setIdleArmed(false)
			return nil
		case sessOpClose:
			return ErrSessionClosed
		case sessOpAppend:
			serve = t.appendServe
		case sessOpExpire:
			serve = t.serveExpire
		case sessOpRetract:
			serve = t.retractServe
		default:
			return fmt.Errorf("core: unexpected session op %d", op)
		}
		if err := serve(r); err != nil {
			return err
		}
		t.absorb(op)
	}
}

// Close ends the session. The initiating party notifies the peer (whose
// next Run returns ErrSessionClosed); the serving party's Close is local.
// Close never closes the underlying connection — the caller owns it.
// Close while a Run is in flight is rejected with ErrConcurrentRun: the
// close op would otherwise be injected into the peer's mid-protocol
// reads on the control channel.
func (t *Session) Close() error {
	err := t.guard.Do(func() (bool, error) {
		t.guard.closed.Store(true)
		if t.s.role == RoleAlice {
			if err := t.sendOp(transport.NewBuilder().PutUint(sessOpClose)); err != nil {
				return true, fmt.Errorf("core: session close op: %w", err)
			}
		}
		return false, nil
	})
	if errors.Is(err, ErrSessionClosed) {
		return nil // already closed
	}
	return err
}

// SetupLeakage returns the one-time disclosures of session establishment
// and of every absorbed append — the candidate-index exchange plus the
// index deltas (Index* Ledger classes). Runs do not repeat them; callers
// totalling a session's exposure add SetupLeakage once to the sum of the
// per-run Leakage ledgers. Read it between operations, not concurrently
// with a Run or Append in flight.
func (t *Session) SetupLeakage() Ledger { return t.setup }

// NonceStats reports the session's nonce stock: how many of the peer-key
// nonces its Runs asked for were ready (Hits) or raised on the spot
// (Misses), how many the filler Produced, and — once the session has
// ended — how many of those were never used (Discarded). Counts only: one
// nonce per ciphertext the Ledger and the ciphertext counters already
// account for. All zero for a session with Config.Random set.
func (t *Session) NonceStats() paillier.NonceStats {
	return t.stock.Stats(t.guard.closed.Load())
}

// Runs reports how many completed Run calls this session has served.
func (t *Session) Runs() int { return int(t.runs.Load()) }

// Parallel reports the session's scheduler width W.
func (t *Session) Parallel() int { return t.s.cfg.Parallel }

// result assembles a Result from the session's per-run accounting.
func (t *Session) result(labels []int, clusters int) *Result {
	up, down := t.s.Ciphertexts()
	return &Result{
		Labels:              labels,
		NumClusters:         clusters,
		Leakage:             t.s.takeLedger(),
		SecureComparisons:   t.s.cmpCount.Load(),
		CachedComparisons:   t.s.cmpCached.Load(),
		CiphertextsSent:     up + down,
		CiphertextsUplink:   up,
		CiphertextsDownlink: down,
	}
}

// runOneShot adapts a session constructor to the single-run protocol
// entry points: one Run, setup disclosures folded into the Result, close
// op sent so the peer's wrapper (which never reads it) stays compatible
// with a serving loop.
func runOneShot(t *Session, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	res, err := t.Run()
	if err != nil {
		return nil, err
	}
	res.Leakage.Add(t.SetupLeakage())
	// The peer of a one-shot run may already have hung up after its own
	// single Run; a failed courtesy close is not a protocol failure.
	_ = t.Close()
	return res, nil
}
