package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/paillier"
	"repro/internal/transport"
)

// The session registry. One server process concurrently holds many
// independent privacy-preserving clustering sessions — each with its own
// keys, grid index, Ledger, and Meter — while sharing the expensive
// compute substrate: a SessionManager owns the process-wide bounded
// crypto pool (injected as Config.Pool) and tracks every live session's
// identity and lifecycle state, so `ppdbscan serve` can accept clients
// in a loop, survive individual client failures, drain gracefully on
// SIGINT, and report an aggregate traffic snapshot at shutdown.
//
// Concurrency equivalence: registered sessions share only the crypto
// pool, which schedules pure big-integer arithmetic — never protocol
// state — so every concurrent session's labels and Ledger are
// byte-identical to the same run on a solo server. The
// concurrency-equivalence harness (registry_test.go) enforces this at
// C ∈ {2, 4} against solo baselines.

// ErrDraining reports that the manager is shutting down and refuses new
// sessions.
var ErrDraining = errors.New("core: session manager draining; not accepting new sessions")

// ErrServerFull reports that the manager's admission bound
// (SetMaxSessions) is reached; the connection is refused before any
// handshake work is spent on it.
var ErrServerFull = errors.New("core: session manager at max sessions; refusing new session")

// SessionState is one registered session's lifecycle position.
type SessionState int32

// The lifecycle states, in order.
const (
	// StateHandshaking: connection accepted, session establishment
	// (keygen, handshake, index exchange) in progress.
	StateHandshaking SessionState = iota
	// StateActive: established; serving Run requests.
	StateActive
	// StateClosed: ended cleanly (peer closed or drain completed).
	StateClosed
	// StateFailed: ended with a protocol, transport, or handshake error.
	StateFailed
)

func (s SessionState) String() string {
	switch s {
	case StateHandshaking:
		return "handshaking"
	case StateActive:
		return "active"
	case StateClosed:
		return "closed"
	case StateFailed:
		return "failed"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// SessionHandle is one registered session's registry entry.
type SessionHandle struct {
	id    uint64
	m     *SessionManager
	conn  transport.Conn   // closed by a drain timeout to unblock a hung session
	meter *transport.Meter // per-session traffic view, folded into the aggregate

	mu    sync.Mutex
	state SessionState
	runs  int64
	err   error
}

// ID returns the registry-unique session id (1, 2, … in accept order).
func (h *SessionHandle) ID() uint64 { return h.id }

// Meter returns the session's traffic meter.
func (h *SessionHandle) Meter() *transport.Meter { return h.meter }

// State reports the current lifecycle state.
func (h *SessionHandle) State() SessionState {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state
}

// Err returns the terminal error of a failed session (nil otherwise).
func (h *SessionHandle) Err() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.err
}

// Runs reports how many clustering runs this session has completed.
func (h *SessionHandle) Runs() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.runs
}

// Activate marks establishment complete: the session now serves runs.
func (h *SessionHandle) Activate() {
	h.mu.Lock()
	if h.state == StateHandshaking {
		h.state = StateActive
	}
	h.mu.Unlock()
}

// RunDone counts one completed clustering run.
func (h *SessionHandle) RunDone() {
	h.mu.Lock()
	h.runs++
	h.mu.Unlock()
}

// End retires the session: nil err (or a peer-close) ends it as
// StateClosed, anything else as StateFailed. Idempotent; the handle's
// traffic is folded into the manager's aggregate exactly once.
func (h *SessionHandle) End(err error) {
	h.mu.Lock()
	if h.state == StateClosed || h.state == StateFailed {
		h.mu.Unlock()
		return
	}
	if err == nil || errors.Is(err, ErrSessionClosed) {
		h.state = StateClosed
	} else {
		h.state = StateFailed
		h.err = err
	}
	runs := h.runs
	failed := h.state == StateFailed
	h.mu.Unlock()
	h.m.retire(h, runs, failed)
}

// SessionManager is the registry of one server process's sessions plus
// the process-shared crypto pool they compute on.
type SessionManager struct {
	pool *paillier.Pool

	mu          sync.Mutex
	next        uint64
	live        map[uint64]*SessionHandle
	draining    bool
	maxSessions int // admission bound; 0 = unlimited

	// Aggregate counters over retired sessions; Snapshot adds the live
	// sessions' current view on top.
	opened, closed, failed int
	runs                   int64
	traffic                transport.Stats
}

// NewSessionManager builds a registry whose sessions share one bounded
// crypto pool of `workers` slots (≤ 0: GOMAXPROCS).
func NewSessionManager(workers int) *SessionManager {
	return &SessionManager{
		pool: paillier.NewPool(workers),
		live: make(map[uint64]*SessionHandle),
	}
}

// Pool returns the process-shared crypto pool.
func (m *SessionManager) Pool() *paillier.Pool { return m.pool }

// SetMaxSessions bounds the number of concurrently live sessions (0 =
// unlimited, the default): once the bound is reached, Begin fails with
// ErrServerFull until a session retires — admission control that keeps
// an overloaded server from accepting handshakes it cannot serve.
func (m *SessionManager) SetMaxSessions(n int) {
	m.mu.Lock()
	m.maxSessions = n
	m.mu.Unlock()
}

// Configure returns cfg with the shared pool injected — the Config every
// session constructed under this manager must use.
func (m *SessionManager) Configure(cfg Config) Config {
	cfg.Pool = m.pool
	return cfg
}

// Begin registers a new inbound session in StateHandshaking, handing it
// its own id and per-session Meter over conn. Returns ErrDraining once
// shutdown has started.
func (m *SessionManager) Begin(conn transport.Conn) (*SessionHandle, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return nil, ErrDraining
	}
	if m.maxSessions > 0 && len(m.live) >= m.maxSessions {
		return nil, ErrServerFull
	}
	m.next++
	m.opened++
	h := &SessionHandle{
		id:    m.next,
		m:     m,
		conn:  conn,
		meter: transport.NewMeter(conn),
		state: StateHandshaking,
	}
	m.live[h.id] = h
	return h, nil
}

// retire folds a terminal handle into the aggregate counters.
func (m *SessionManager) retire(h *SessionHandle, runs int64, failed bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.live, h.id)
	if failed {
		m.failed++
	} else {
		m.closed++
	}
	m.runs += runs
	m.traffic = m.traffic.Add(h.meter.Stats())
}

// Live reports the number of registered, not-yet-retired sessions.
func (m *SessionManager) Live() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.live)
}

// Draining reports whether shutdown has started.
func (m *SessionManager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// drainPoll is the drain loop's re-check interval — coarse is fine on a
// shutdown path.
const drainPoll = 5 * time.Millisecond

// Drain starts graceful shutdown: new Begin calls fail with ErrDraining,
// and Drain waits up to timeout — total, wall-clock — for the in-flight
// sessions to retire. The budget is split: most of it is spent waiting
// for graceful retirement, with a tail reserved for the hung-client
// path, where the remaining sessions' connections are force-closed so
// the serving goroutines unwind with a transport error and Drain waits
// out the rest of the budget for them to retire. Drain never blocks for
// more than the documented timeout (plus one poll interval). Returns
// true when every session retired gracefully, false when the
// force-close path was taken.
func (m *SessionManager) Drain(timeout time.Duration) bool {
	m.mu.Lock()
	m.draining = true
	m.mu.Unlock()
	deadline := time.Now().Add(timeout)
	// Reserve a slice of the budget for the force-close tail so a hung
	// client still gets its connection torn down inside the timeout.
	grace := timeout / 5
	if grace < drainPoll {
		grace = drainPoll
	}
	for m.Live() > 0 && time.Now().Before(deadline.Add(-grace)) {
		time.Sleep(drainPoll)
	}
	if m.Live() == 0 {
		return true
	}
	// Force-close tail: tear down every remaining session's connection so
	// its serving goroutine unwinds with a transport error, then spend the
	// reserved rest of the budget waiting for those sessions to retire so
	// the caller's aggregate is as complete as it can be — but never hang
	// shutdown on a goroutine that won't End. The sweep repeats every poll
	// instead of snapshotting the live set once: a session whose Begin
	// raced the draining cutover (admitted after a sweep took its
	// snapshot) is caught by the next sweep rather than keeping its
	// connection open past the drain deadline. Close is idempotent, so
	// re-sweeping an already-closed handle is free.
	for {
		m.mu.Lock()
		for _, h := range m.live {
			h.conn.Close()
		}
		remaining := len(m.live)
		m.mu.Unlock()
		if remaining == 0 || !time.Now().Before(deadline) {
			return false
		}
		time.Sleep(drainPoll)
	}
}

// SessionInfo is one session's row in a Snapshot.
type SessionInfo struct {
	ID    uint64
	State SessionState
	Runs  int64
}

// ManagerSnapshot is the server-wide metrics view: lifecycle counts,
// total completed runs, aggregate traffic across every session (retired
// and live), and the live sessions' rows.
type ManagerSnapshot struct {
	Opened  int // sessions ever registered
	Live    int // currently registered
	Closed  int // retired cleanly
	Failed  int // retired with an error
	Runs    int64
	Traffic transport.Stats
	Lives   []SessionInfo
}

// Snapshot assembles the aggregate server-wide metrics view.
func (m *SessionManager) Snapshot() ManagerSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	snap := ManagerSnapshot{
		Opened:  m.opened,
		Live:    len(m.live),
		Closed:  m.closed,
		Failed:  m.failed,
		Runs:    m.runs,
		Traffic: m.traffic,
	}
	for _, h := range m.live {
		h.mu.Lock()
		snap.Lives = append(snap.Lives, SessionInfo{ID: h.id, State: h.state, Runs: h.runs})
		snap.Runs += h.runs
		h.mu.Unlock()
		snap.Traffic = snap.Traffic.Add(h.meter.Stats())
	}
	sort.Slice(snap.Lives, func(i, j int) bool { return snap.Lives[i].ID < snap.Lives[j].ID })
	return snap
}
